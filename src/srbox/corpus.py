"""Corpus data model: annotated documents, validation, and sequence chunking.

The input is a line-delimited JSON file, one document per line:

    {"id": str, "tokens": [str],
     "mentions": [{"entity": str, "start": int, "end": int}],
     "triplets": [{"head": str, "relation": str, "tail": str}]}

Token indices are 0-based and span ends are inclusive. Entity and relation
ids are interned to dense integer indices in order of first appearance, so
the same file bytes always produce the same id assignment.

Documents are concatenated in file order and split into fixed-length token
windows (sequences). A sequence carries every triplet of every document it
covers whose head and tail entities both have at least one mention lying
fully inside the window; this is what allows triplets from different
documents to combine into cross-document structures downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from srbox.errors import ParseError, ValidationError


@dataclass(frozen=True)
class Mention:
    """An entity mention: token span [start, end], ends inclusive."""

    entity: int
    start: int
    end: int


@dataclass(frozen=True)
class Triplet:
    """A (head, relation, tail) assertion, attributed to the document it came from."""

    head: int
    relation: int
    tail: int
    doc: int

    def key(self) -> tuple[int, int, int]:
        return (self.head, self.relation, self.tail)


@dataclass(frozen=True)
class Document:
    doc_id: str
    tokens: tuple[str, ...]
    mentions: tuple[Mention, ...]
    triplets: tuple[Triplet, ...]


@dataclass(frozen=True)
class Sequence:
    """A fixed-length token window over the concatenated corpus.

    ``entities`` are the entities with at least one mention fully inside the
    window; they double as the same-text negative-sampling pool. ``triplets``
    is the deduplicated union over covered documents, restricted to triplets
    whose endpoints are both in ``entities``.
    """

    seq_id: int
    start: int
    stop: int
    doc_ids: tuple[int, ...]
    triplets: tuple[Triplet, ...]
    entities: tuple[int, ...]

    def __len__(self) -> int:
        return self.stop - self.start


@dataclass
class Corpus:
    documents: list[Document]
    entity_ids: list[str]
    relation_ids: list[str]
    entity_index: dict[str, int] = field(repr=False)
    relation_index: dict[str, int] = field(repr=False)

    @property
    def n_entities(self) -> int:
        return len(self.entity_ids)

    @property
    def n_relations(self) -> int:
        return len(self.relation_ids)

    @property
    def n_tokens(self) -> int:
        return sum(len(d.tokens) for d in self.documents)

    def doc_offsets(self) -> list[int]:
        """Global token offset of each document under file-order concatenation."""
        offsets = []
        pos = 0
        for doc in self.documents:
            offsets.append(pos)
            pos += len(doc.tokens)
        return offsets


def _intern(name: str, index: dict[str, int], names: list[str]) -> int:
    idx = index.get(name)
    if idx is None:
        idx = len(names)
        index[name] = idx
        names.append(name)
    return idx


# the fields of a mention and of a triplet, each with its JSON type
MENTION_FIELDS = {"entity": str, "start": int, "end": int}
TRIPLET_FIELDS = {"head": str, "relation": str, "tail": str}
_TYPE_NAMES = {str: "a string", int: "an int"}


def _field_error(item, kind: str, types: dict[str, type], where: str) -> ParseError:
    """What is wrong with a mention or triplet that is not an object holding
    each field of ``types`` with a value of its type (a bool is not an int)."""
    if not isinstance(item, dict):
        return ParseError(f"{where}: {kind} {item!r} is not an object")
    for key, typ in types.items():
        if key not in item:
            return ParseError(f"{where}: {kind} {item!r} misses {key!r}")
        if type(item[key]) is not typ:
            return ParseError(
                f"{where}: {kind} field {key!r} is {item[key]!r}, not {_TYPE_NAMES[typ]}"
            )
    return ParseError(f"{where}: malformed {kind} {item!r}")


def load_corpus(path: str | Path) -> Corpus:
    """Parse and validate a corpus file.

    Raises ParseError for malformed records (bad JSON, a missing field, a
    field of the wrong type) and ValidationError for records that parse but
    violate an invariant (span out of range, self-loop triplet, triplet
    referencing an entity never mentioned anywhere in the corpus). Messages
    name the file and the 1-based line number.
    """
    path = Path(path)
    entity_index: dict[str, int] = {}
    relation_index: dict[str, int] = {}
    entity_ids: list[str] = []
    relation_ids: list[str] = []
    documents: list[Document] = []
    mentioned: set[int] = set()
    # (line, entity) pairs to verify once the whole corpus is read: a triplet
    # may legitimately reference an entity first mentioned in a later document.
    # An entity mentioned by the time its triplet is read needs no check.
    pending: list[tuple[int, int]] = []
    seen_doc_ids: set[str] = set()

    with path.open("rb") as fh:
        # universal newlines, as a file read in text mode has them
        for lineno, line in enumerate(fh.read().splitlines(), start=1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
            except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
                raise ParseError(f"{path}: line {lineno}: malformed record: {exc}") from exc
            if not isinstance(record, dict):
                raise ParseError(f"{path}: line {lineno}: record is not an object")
            try:
                doc_id = record["id"]
                tokens = record["tokens"]
                raw_mentions = record.get("mentions", [])
                raw_triplets = record.get("triplets", [])
            except KeyError as exc:
                raise ParseError(f"{path}: line {lineno}: missing field {exc}") from exc
            if not isinstance(doc_id, str) or not isinstance(tokens, list):
                raise ParseError(
                    f"{path}: line {lineno}: 'id' must be a string and 'tokens' a list"
                )
            if not isinstance(raw_mentions, list) or not isinstance(raw_triplets, list):
                raise ParseError(f"{path}: line {lineno}: 'mentions' and 'triplets' must be lists")
            if doc_id in seen_doc_ids:
                raise ValidationError(f"{path}: line {lineno}: duplicate document id {doc_id!r}")
            seen_doc_ids.add(doc_id)

            n_tok = len(tokens)
            doc_idx = len(documents)
            mentions = []
            for m in raw_mentions:
                try:
                    ent_name, start, end = m["entity"], m["start"], m["end"]
                except (KeyError, TypeError):
                    ent_name = None
                # the checks run inline: a corpus has tens of thousands of mentions
                if type(ent_name) is not str or type(start) is not int or type(end) is not int:
                    raise _field_error(m, "mention", MENTION_FIELDS, f"{path}: line {lineno}")
                if not (0 <= start <= end < n_tok):
                    raise ValidationError(
                        f"{path}: line {lineno}: mention span ({start}, {end}) outside "
                        f"document of {n_tok} tokens"
                    )
                ent = entity_index.get(ent_name)
                if ent is None:
                    ent = _intern(ent_name, entity_index, entity_ids)
                mentioned.add(ent)
                mentions.append(Mention(ent, start, end))

            triplets = []
            for t in raw_triplets:
                try:
                    head_name, rel_name, tail_name = t["head"], t["relation"], t["tail"]
                except (KeyError, TypeError):
                    head_name = None
                if (type(head_name) is not str or type(rel_name) is not str
                        or type(tail_name) is not str):
                    raise _field_error(t, "triplet", TRIPLET_FIELDS, f"{path}: line {lineno}")
                if head_name == tail_name:
                    raise ValidationError(
                        f"{path}: line {lineno}: self-loop triplet on {head_name!r} rejected"
                    )
                head = _intern(head_name, entity_index, entity_ids)
                tail = _intern(tail_name, entity_index, entity_ids)
                rel = _intern(rel_name, relation_index, relation_ids)
                if head not in mentioned:
                    pending.append((lineno, head))
                if tail not in mentioned:
                    pending.append((lineno, tail))
                triplets.append(Triplet(head, rel, tail, doc_idx))

            documents.append(
                Document(doc_id, tuple(tokens), tuple(mentions), tuple(triplets))
            )

    for lineno, ent in pending:
        if ent not in mentioned:
            raise ValidationError(
                f"{path}: line {lineno}: triplet references entity {entity_ids[ent]!r} "
                f"with no mention anywhere in the corpus"
            )

    return Corpus(documents, entity_ids, relation_ids, entity_index, relation_index)


def chunk_sequences(corpus: Corpus, seq_len: int) -> list[Sequence]:
    """Split the concatenated corpus into consecutive ``seq_len``-token windows.

    All windows have exactly ``seq_len`` tokens except possibly the last. A
    mention counts as inside a window only when its whole span is; triplets
    whose endpoint mentions straddle a boundary are dropped from both sides.
    """
    if seq_len < 1:
        raise ValidationError(f"seq_len must be >= 1, got {seq_len}")

    offsets = corpus.doc_offsets()
    total = corpus.n_tokens
    docs = corpus.documents
    sequences: list[Sequence] = []
    first = 0  # the first document that ends after the current window starts
    for seq_id, w_start in enumerate(range(0, total, seq_len)):
        w_stop = min(w_start + seq_len, total)
        # documents lie in order, so the ones a window overlaps are a run
        # from ``first`` to the first document starting at or after w_stop
        while first < len(docs) and offsets[first] + len(docs[first].tokens) <= w_start:
            first += 1
        last = first
        while last < len(docs) and offsets[last] < w_stop:
            last += 1
        doc_ids = range(first, last)
        window_entities: set[int] = set()
        for d in doc_ids:
            for m in docs[d].mentions:
                if offsets[d] + m.start >= w_start and offsets[d] + m.end < w_stop:
                    window_entities.add(m.entity)
        by_key: dict[tuple[int, int, int], Triplet] = {}
        for d in doc_ids:
            for t in docs[d].triplets:
                if t.head in window_entities and t.tail in window_entities:
                    by_key.setdefault(t.key(), t)
        triplets = tuple(by_key[k] for k in sorted(by_key))
        sequences.append(
            Sequence(
                seq_id=seq_id,
                start=w_start,
                stop=w_stop,
                doc_ids=tuple(doc_ids),
                triplets=triplets,
                entities=tuple(sorted(window_entities)),
            )
        )
    return sequences
