"""Learnable parameters: entity/relation embeddings, intersection net, persistence.

The store keeps entity centers (E x d), relation centers (2R x d, forward
rows first and inverse rows after them), relation offsets (one shared row or
2R per-relation rows), and the intersection-network weights, together with
the string ids of its entity and relation rows, in row order.

Contextual initialization averages precomputed token vectors: an entity's
center is the mean over its mentions of (h_start + h_end) / 2, a forward
relation's center is the same span average over the documents that carry a
span for it, and each inverse center starts as the negation of its forward
row so that projecting forward then backward roughly cancels at init.
Offsets and network weights are left alone.

Files:
  * checkpoint: magic ``SRBXCKPT``, u32 version, u64 header length, a JSON
    header (dim, counts, offset mode, id lists, array manifest), then the
    arrays row-major as little-endian float64 in manifest order. The
    manifest must be ``layout``'s for the header's dim, counts and mode.
  * vectors file: per document one JSON header line {"id", "rows", "dim",
    optional "relation_spans"} followed by rows*dim little-endian float64
    bytes. relation_spans maps relation id -> [start, end] token span.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from srbox.boxalg import NET_FIELDS, IntersectionNet, check_arrays, net_random
from srbox.corpus import Corpus, Mention
from srbox.errors import ParseError, ValidationError
from srbox.rng import STREAM_INIT, substream

CHECKPOINT_MAGIC = b"SRBXCKPT"
CHECKPOINT_VERSION = 1
OFFSET_MODES = ("shared", "per_relation")
# the store's own arrays, ahead of the net's in the checkpoint manifest
ROW_TABLES = ("entity_centers", "relation_centers", "relation_offsets")
# documents whose span means the contextual import gathers and adds at once
SPAN_DOCS = 32


@dataclass
class ParamStore:
    dim: int
    entity_ids: list[str]
    relation_ids: list[str]
    entity_centers: np.ndarray  # (E, d)
    relation_centers: np.ndarray  # (2R, d): forward rows 0..R-1, inverse R..2R-1
    relation_offsets: np.ndarray  # (1, d) shared or (2R, d) per-relation
    offset_mode: str
    net: IntersectionNet

    @property
    def n_entities(self) -> int:
        return len(self.entity_ids)

    @property
    def n_relations(self) -> int:
        return len(self.relation_ids)

    def center_row(self, rel: int, inverse: bool) -> int:
        return rel + self.n_relations if inverse else rel

    def offset_row(self, rel: int, inverse: bool) -> int:
        if self.offset_mode == "shared":
            return 0
        return self.center_row(rel, inverse)

    def relation_params(self, rel, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
        """(center, offset) rows of a relation id, or of each of a (B,) array of ids."""
        return (
            self.relation_centers[self.center_row(rel, inverse)],
            self.relation_offsets[self.offset_row(rel, inverse)],
        )

    @classmethod
    def from_arrays(
        cls,
        dim: int,
        entity_ids: list[str],
        relation_ids: list[str],
        offset_mode: str,
        arrays: dict[str, np.ndarray],
    ) -> "ParamStore":
        """A store over parameter arrays keyed by name, as ``arrays()`` gives them."""
        return cls(
            dim,
            list(entity_ids),
            list(relation_ids),
            offset_mode=offset_mode,
            net=IntersectionNet(**{name: arrays[name] for name in NET_FIELDS}),
            **{name: arrays[name] for name in ROW_TABLES},
        )

    def arrays(self) -> dict[str, np.ndarray]:
        """Every parameter array by name, in checkpoint-manifest order."""
        return {**{name: getattr(self, name) for name in ROW_TABLES}, **self.net.arrays()}

    def grad_targets(self) -> dict[str, np.ndarray | dict[str, np.ndarray]]:
        """What each ``Grads`` table's keys index: a row table's row numbers
        index its array, the net table's field names its dict of arrays."""
        return {
            "entity": self.entity_centers,
            "rel_center": self.relation_centers,
            "rel_offset": self.relation_offsets,
            "net": self.net.arrays(),
        }

    def validate(self) -> None:
        shapes = layout(self.dim, self.n_entities, self.n_relations, self.offset_mode)
        check_arrays(self.arrays(), shapes)
        if np.any(self.relation_offsets < 0):
            raise ValidationError("relation_offsets must be nonnegative")

    def copy(self) -> "ParamStore":
        arrays = {name: arr.copy() for name, arr in self.arrays().items()}
        return ParamStore.from_arrays(
            self.dim, self.entity_ids, self.relation_ids, self.offset_mode, arrays
        )

    def equals(self, other: "ParamStore") -> bool:
        """Bit-exact equality of ids, mode, and every parameter array."""
        if (
            self.dim != other.dim
            or self.entity_ids != other.entity_ids
            or self.relation_ids != other.relation_ids
            or self.offset_mode != other.offset_mode
        ):
            return False
        theirs = other.arrays()
        return all(np.array_equal(arr, theirs[name]) for name, arr in self.arrays().items())


def layout(
    dim: int, n_entities: int, n_relations: int, offset_mode: str
) -> dict[str, tuple[int, ...]]:
    """Every parameter table's shape by name, in checkpoint-manifest order:
    the row tables, whose offsets hold one shared row or a row per relation
    center, then the intersection net's fields."""
    if offset_mode not in OFFSET_MODES:
        raise ValidationError(
            f"offset_mode must be one of {', '.join(OFFSET_MODES)}, got {offset_mode!r}"
        )
    return {
        "entity_centers": (n_entities, dim),
        "relation_centers": (2 * n_relations, dim),
        "relation_offsets": (1 if offset_mode == "shared" else 2 * n_relations, dim),
        **IntersectionNet.shapes(dim),
    }


def init_random(
    dim: int,
    n_entities: int,
    n_relations: int,
    seed: int,
    offset_mode: str = "shared",
    entity_ids: list[str] | None = None,
    relation_ids: list[str] | None = None,
) -> ParamStore:
    """Fresh store: centers ~ U(-0.5/sqrt(d), 0.5/sqrt(d)), offsets 0.1,
    net weights fan-in-scaled uniform. Deterministic for a given seed."""
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    shapes = layout(dim, n_entities, n_relations, offset_mode)
    if entity_ids is None:
        entity_ids = [str(i) for i in range(n_entities)]
    if relation_ids is None:
        relation_ids = [str(i) for i in range(n_relations)]
    if len(entity_ids) != n_entities or len(relation_ids) != n_relations:
        raise ValidationError("id list lengths do not match entity/relation counts")
    rng = substream(seed, STREAM_INIT)
    bound = 0.5 / np.sqrt(dim)
    arrays = {  # drawn in this order
        "entity_centers": rng.uniform(-bound, bound, size=shapes["entity_centers"]),
        "relation_centers": rng.uniform(-bound, bound, size=shapes["relation_centers"]),
        "relation_offsets": np.full(shapes["relation_offsets"], 0.1, dtype=np.float64),
        **net_random(dim, rng).arrays(),
    }
    return ParamStore.from_arrays(dim, entity_ids, relation_ids, offset_mode, arrays)


# ---------------------------------------------------------------------------
# file headers


def _is_int(value) -> bool:
    return type(value) is int  # a bool is not an int


def _is_str(value) -> bool:
    return type(value) is str


def _is_names(value) -> bool:
    return type(value) is list and all(map(_is_str, value))


def _is_spans(value) -> bool:
    return type(value) is dict and all(
        type(se) is list and len(se) == 2 and type(se[0]) is int and type(se[1]) is int
        for se in value.values()
    )


# each field a header must hold: a test of its value, and what the test asks
CHECKPOINT_FIELDS = {
    "dim": (_is_int, "an int"),
    "n_entities": (_is_int, "an int"),
    "n_relations": (_is_int, "an int"),
    "offset_mode": (_is_str, "a string"),
    "entity_ids": (_is_names, "a list of strings"),
    "relation_ids": (_is_names, "a list of strings"),
    "arrays": (lambda value: type(value) is list, "a list"),
}
VECTOR_FIELDS = {
    "id": (_is_str, "a string"),
    "rows": (_is_int, "an int"),
    "dim": (_is_int, "an int"),
}


def _check_header(header, fields: dict, what: str) -> None:
    """ParseError unless ``header`` is a JSON object that holds every key
    of ``fields`` with a value that passes the key's test; the message
    names the keys missing or the first field that fails."""
    if not isinstance(header, dict):
        raise ParseError(f"{what} is not a JSON object")
    if not header.keys() >= fields.keys():
        missing = [key for key in fields if key not in header]
        raise ParseError(f"{what} misses {', '.join(map(repr, missing))}")
    for key, (fits, kind) in fields.items():
        if not fits(header[key]):
            raise ParseError(f"{what} field {key!r} is not {kind}")


# ---------------------------------------------------------------------------
# contextual vectors


@dataclass
class ContextualVectors:
    """Precomputed per-token vectors, one (rows x dim) matrix per document."""

    dim: int
    matrices: dict[str, np.ndarray]
    relation_spans: dict[str, dict[str, tuple[int, int]]] = field(default_factory=dict)

    def span_mean(self, doc_id: str, start: int, end: int) -> np.ndarray:
        """(h_start + h_end) / 2 for one token span of one document."""
        mat = self.matrices.get(doc_id)
        if mat is None:
            raise ValidationError(f"no vectors for document {doc_id!r}")
        if not 0 <= start <= end < mat.shape[0]:
            raise ValidationError(
                f"span ({start}, {end}) outside the {mat.shape[0]} rows of document {doc_id!r}"
            )
        return 0.5 * (mat[start] + mat[end])


def entity_center_from_context(
    vectors: ContextualVectors, mentions: list[tuple[str, Mention]]
) -> np.ndarray:
    """Mean over mentions of the per-mention span average (h_start + h_end) / 2.

    Mentions are (document id, mention) pairs so one entity can draw on
    several documents.
    """
    if not mentions:
        raise ValidationError("entity has no mentions to average")
    total = np.zeros(vectors.dim, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past float64's range is inf
        for doc_id, m in mentions:
            total += vectors.span_mean(doc_id, m.start, m.end)
    return total / len(mentions)


def import_contextual(
    corpus: Corpus, vectors: ContextualVectors, store: ParamStore
) -> ParamStore:
    """Overwrite entity centers and forward relation centers from context
    vectors; inverse relation centers become the negated forward rows.
    Offsets and network weights are untouched. Missing coverage raises with
    every uncovered id listed, and so does a center that is not finite, as
    when its sum passes float64's range.

    Each document's span means are gathered as one array and added to their
    rows with ``np.add.at``, which adds in index order: every row's sum is
    the same left fold, from zeros in corpus order, as averaging one
    ``span_mean`` at a time (``entity_center_from_context``).
    """
    if vectors.dim != store.dim:
        raise ValidationError(
            f"vectors have dim {vectors.dim} but the store has dim {store.dim}"
        )
    for doc in corpus.documents:
        mat = vectors.matrices.get(doc.doc_id)
        if mat is not None and mat.shape[0] != len(doc.tokens):
            raise ValidationError(
                f"document {doc.doc_id!r} has {len(doc.tokens)} tokens but "
                f"{mat.shape[0]} vector rows"
            )

    # (matrix, rows, starts, ends) per document, rows indexing the table
    entity_spans = []
    for doc in corpus.documents:
        mat = vectors.matrices.get(doc.doc_id)
        if mat is None:
            continue
        n_rows = mat.shape[0]
        rows, starts, ends = [], [], []
        for m in doc.mentions:
            if m.end < n_rows:
                rows.append(m.entity)
                starts.append(m.start)
                ends.append(m.end)
        if rows:
            entity_spans.append((mat, rows, starts, ends))

    relation_spans = []
    for doc_id, spans in vectors.relation_spans.items():
        mat = vectors.matrices.get(doc_id)
        if mat is None:
            raise ValidationError(f"relation spans given for unknown document {doc_id!r}")
        rows, starts, ends = [], [], []
        for rid, (start, end) in spans.items():
            idx = corpus.relation_index.get(rid)
            if idx is None:
                continue
            if not 0 <= start <= end < mat.shape[0]:
                raise ValidationError(
                    f"relation {rid!r} span ({start}, {end}) outside document {doc_id!r}"
                )
            rows.append(idx)
            starts.append(start)
            ends.append(end)
        if rows:
            relation_spans.append((mat, rows, starts, ends))

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        entity_sums, entity_counts = _span_sums(entity_spans, corpus.n_entities, store.dim)
        relation_sums, relation_counts = _span_sums(relation_spans, corpus.n_relations, store.dim)
    missing = [corpus.entity_ids[i] for i in np.flatnonzero(entity_counts == 0)]
    missing += [corpus.relation_ids[i] for i in np.flatnonzero(relation_counts == 0)]
    if missing:
        raise ValidationError(
            "no contextual coverage for: " + ", ".join(sorted(missing))
        )

    n, r = corpus.n_relations, store.n_relations
    entity = entity_sums / entity_counts[:, None]
    forward = relation_sums / relation_counts[:, None]
    bad = [corpus.entity_ids[i] for i in np.flatnonzero(~np.isfinite(entity).all(axis=1))]
    bad += [corpus.relation_ids[i] for i in np.flatnonzero(~np.isfinite(forward).all(axis=1))]
    if bad:
        raise ValidationError("contextual centers are not finite for: " + ", ".join(sorted(bad)))
    store.entity_centers[:corpus.n_entities] = entity
    store.relation_centers[:n] = forward
    store.relation_centers[r:r + n] = -forward
    return store


def _span_sums(spans, n_rows: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Per table row, the sum of its span means (h_start + h_end) / 2, added
    in the order given, and the number of spans added; ``spans`` holds one
    (matrix, rows, starts, ends) per document. Up to ``SPAN_DOCS`` documents
    are gathered and added at a time, which bounds the temporaries."""
    sums = np.zeros((n_rows, dim), dtype=np.float64)
    rows: list[int] = []
    for lo in range(0, len(spans), SPAN_DOCS):
        part = spans[lo:lo + SPAN_DOCS]
        part_rows = [row for _, doc_rows, _, _ in part for row in doc_rows]
        # one gather per document: its start rows, then its end rows
        gathered = np.concatenate([mat[starts + ends] for mat, _, starts, ends in part])
        per_doc = [len(doc_rows) for _, doc_rows, _, _ in part]
        is_start = np.repeat(np.tile([True, False], len(part)), np.repeat(per_doc, 2))
        np.add.at(sums, part_rows, 0.5 * (gathered[is_start] + gathered[~is_start]))
        rows += part_rows
    return sums, np.bincount(np.array(rows, dtype=np.intp), minlength=n_rows)


def write_vectors(path: str, vectors: ContextualVectors) -> None:
    with open(path, "wb") as fh:
        for doc_id in vectors.matrices:
            mat = np.ascontiguousarray(vectors.matrices[doc_id], dtype="<f8")
            header = {"id": doc_id, "rows": int(mat.shape[0]), "dim": int(mat.shape[1])}
            spans = vectors.relation_spans.get(doc_id)
            if spans:
                header["relation_spans"] = {
                    rid: [int(s), int(e)] for rid, (s, e) in spans.items()
                }
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            fh.write(mat.tobytes())


def load_vectors(path: str) -> ContextualVectors:
    """The vectors of a ``write_vectors`` file. A malformed file raises
    ParseError, whose message names the file."""
    try:
        return _read_vectors(path)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_vectors(path: str) -> ContextualVectors:
    matrices: dict[str, np.ndarray] = {}
    relation_spans: dict[str, dict[str, tuple[int, int]]] = {}
    dim: int | None = None
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        while True:
            line = fh.readline()
            if not line:
                break
            if not line.strip():
                continue
            try:
                header = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
                raise ParseError(f"bad vector-file header: {exc}") from exc
            _check_header(header, VECTOR_FIELDS, "vector-file header")
            doc_id, rows, d = header["id"], header["rows"], header["dim"]
            spans = header.get("relation_spans", {})
            if not _is_spans(spans):
                raise ParseError(
                    f"vector-file header field 'relation_spans' of document {doc_id!r} "
                    "is not a map of [int, int] pairs"
                )
            if rows < 0 or not 1 <= d < 2**60:  # numpy cannot size a row of 2**60 float64s
                raise ParseError(f"bad vector-file shape ({rows}, {d})")
            if dim is None:
                dim = d
            elif d != dim:
                raise ParseError(f"document {doc_id!r} has dim {d}, file started with {dim}")
            if doc_id in matrices:
                raise ParseError(f"duplicate document {doc_id!r} in vector file")
            left = size - fh.tell()
            if rows * d * 8 > left:
                raise ParseError(
                    f"vector file truncated in document {doc_id!r}: its {rows} x {d} vectors "
                    f"take {rows * d * 8} bytes, {left} remain"
                )
            mat = np.empty((rows, d), dtype="<f8")
            fh.readinto(mat)
            matrices[doc_id] = mat
            if spans:
                relation_spans[doc_id] = {rid: (start, end) for rid, (start, end) in spans.items()}
    if dim is None:
        raise ParseError("vector file holds no documents")
    return ContextualVectors(dim, matrices, relation_spans)


# ---------------------------------------------------------------------------
# checkpoints


def save(store: ParamStore, path: str) -> None:
    """Binary checkpoint; the round trip through load() is bit-exact."""
    arrays = store.arrays()
    header = {
        "dim": store.dim,
        "n_entities": store.n_entities,
        "n_relations": store.n_relations,
        "offset_mode": store.offset_mode,
        "entity_ids": store.entity_ids,
        "relation_ids": store.relation_ids,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays.items()],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _header_layout(header: dict) -> dict[str, tuple[int, ...]]:
    """The ``layout`` a checkpoint header's fields give, after checking that
    its counts are its id lists' lengths and that its manifest lists that
    layout, entry by entry, as ``save`` writes it."""
    for count, ids in (("n_entities", "entity_ids"), ("n_relations", "relation_ids")):
        if header[count] != len(header[ids]):
            raise ParseError(
                f"checkpoint header field {count!r} is {header[count]}, "
                f"but {ids!r} holds {len(header[ids])} ids"
            )
    if header["dim"] < 1:
        raise ParseError(f"checkpoint header field 'dim' is {header['dim']}, not >= 1")
    if header["offset_mode"] not in OFFSET_MODES:
        raise ParseError(
            f"checkpoint header field 'offset_mode' is {header['offset_mode']!r}, "
            f"not one of {', '.join(OFFSET_MODES)}"
        )
    shapes = layout(header["dim"], header["n_entities"], header["n_relations"],
                    header["offset_mode"])
    manifest = [[name, list(shape)] for name, shape in shapes.items()]
    for i, (theirs, ours) in enumerate(itertools.zip_longest(header["arrays"], manifest)):
        if json.dumps(theirs) != json.dumps(ours):
            raise ParseError(
                f"checkpoint array manifest entry {i} is {json.dumps(theirs)} "
                f"where the layout has {json.dumps(ours)}"
            )
    return shapes


def load(path: str, expected_dim: int | None = None) -> ParamStore:
    """The store of a ``save`` file. A malformed file raises ParseError,
    whose message names the file; a dim other than ``expected_dim`` (when
    given) raises ValidationError."""
    try:
        return _read_checkpoint(path, expected_dim)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_checkpoint(path: str, expected_dim: int | None) -> ParamStore:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ParseError(f"not a checkpoint file: bad magic {magic!r}")
        head = fh.read(12)
        if len(head) != 12:
            raise ParseError("checkpoint truncated before header")
        version, header_len = struct.unpack("<IQ", head)
        if version != CHECKPOINT_VERSION:
            raise ParseError(
                f"checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})"
            )
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if header_len > left:  # checked before the read allocates the claim
            raise ParseError(
                f"checkpoint truncated inside header: it claims {header_len} bytes, "
                f"{left} follow its length"
            )
        blob = fh.read(header_len)
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad checkpoint header: {exc}") from exc
        _check_header(header, CHECKPOINT_FIELDS, "checkpoint header")
        dim = header["dim"]
        if expected_dim is not None and dim != expected_dim:
            raise ValidationError(
                f"checkpoint has dim {dim} but the configuration expects dim {expected_dim}"
            )
        shapes = _header_layout(header)
        sizes = {name: 8 * math.prod(shape) for name, shape in shapes.items()}
        need = sum(sizes.values())
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < need:
            ends = zip(sizes, itertools.accumulate(sizes.values()))
            short = next(name for name, end in ends if end > left)
            raise ParseError(
                f"checkpoint truncated inside array {short!r}: its arrays take {need} bytes, "
                f"{left} follow the header"
            )
        if left > need:
            raise ParseError(f"checkpoint has {left - need} trailing byte(s) after its last array")
        loaded = {
            name: np.frombuffer(fh.read(sizes[name]), dtype="<f8").reshape(shape).copy()
            for name, shape in shapes.items()
        }
    store = ParamStore.from_arrays(
        dim, header["entity_ids"], header["relation_ids"], header["offset_mode"], loaded
    )
    store.validate()
    return store
