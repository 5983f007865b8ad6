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
    arrays row-major as little-endian float64 in manifest order.
  * vectors file: per document one JSON header line {"id", "rows", "dim",
    optional "relation_spans"} followed by rows*dim little-endian float64
    bytes. relation_spans maps relation id -> [start, end] token span.
"""

from __future__ import annotations

import json
import math
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
HEADER_KEYS = ("dim", "offset_mode", "entity_ids", "relation_ids", "arrays")


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
        if self.offset_mode not in OFFSET_MODES:
            raise ValidationError(f"unknown offset mode {self.offset_mode!r}")
        d, r = self.dim, self.n_relations
        check_arrays(self.arrays(), {
            "entity_centers": (self.n_entities, d),
            "relation_centers": (2 * r, d),
            "relation_offsets": (1 if self.offset_mode == "shared" else 2 * r, d),
            **IntersectionNet.shapes(d),
        })
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
    if offset_mode not in OFFSET_MODES:
        raise ValidationError(f"unknown offset mode {offset_mode!r}")
    if entity_ids is None:
        entity_ids = [str(i) for i in range(n_entities)]
    if relation_ids is None:
        relation_ids = [str(i) for i in range(n_relations)]
    if len(entity_ids) != n_entities or len(relation_ids) != n_relations:
        raise ValidationError("id list lengths do not match entity/relation counts")
    rng = substream(seed, STREAM_INIT)
    bound = 0.5 / np.sqrt(dim)
    entity_centers = rng.uniform(-bound, bound, size=(n_entities, dim))
    relation_centers = rng.uniform(-bound, bound, size=(2 * n_relations, dim))
    rows = 1 if offset_mode == "shared" else 2 * n_relations
    relation_offsets = np.full((rows, dim), 0.1, dtype=np.float64)
    net = net_random(dim, rng)
    return ParamStore(
        dim,
        list(entity_ids),
        list(relation_ids),
        entity_centers,
        relation_centers,
        relation_offsets,
        offset_mode,
        net,
    )


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
    for doc_id, m in mentions:
        total += vectors.span_mean(doc_id, m.start, m.end)
    return total / len(mentions)


def relation_center_from_context(
    vectors: ContextualVectors, doc_id: str, span: tuple[int, int]
) -> np.ndarray:
    """Span average (h_start + h_end) / 2 for one relation occurrence."""
    return vectors.span_mean(doc_id, span[0], span[1])


def import_contextual(
    corpus: Corpus, vectors: ContextualVectors, store: ParamStore
) -> ParamStore:
    """Overwrite entity centers and forward relation centers from context
    vectors; inverse relation centers become the negated forward rows.
    Offsets and network weights are untouched. Missing coverage raises with
    every uncovered id listed.
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

    mention_lists: dict[int, list[tuple[str, Mention]]] = {
        i: [] for i in range(corpus.n_entities)
    }
    for doc in corpus.documents:
        if doc.doc_id not in vectors.matrices:
            continue
        rows = vectors.matrices[doc.doc_id].shape[0]
        for m in doc.mentions:
            if m.end < rows:
                mention_lists[m.entity].append((doc.doc_id, m))

    rel_spans: dict[int, list[tuple[str, tuple[int, int]]]] = {
        i: [] for i in range(corpus.n_relations)
    }
    for doc_id, spans in vectors.relation_spans.items():
        mat = vectors.matrices.get(doc_id)
        if mat is None:
            raise ValidationError(f"relation spans given for unknown document {doc_id!r}")
        for rid, (start, end) in spans.items():
            idx = corpus.relation_index.get(rid)
            if idx is None:
                continue
            if not 0 <= start <= end < mat.shape[0]:
                raise ValidationError(
                    f"relation {rid!r} span ({start}, {end}) outside document {doc_id!r}"
                )
            rel_spans[idx].append((doc_id, (start, end)))

    missing = [corpus.entity_ids[i] for i, ms in mention_lists.items() if not ms]
    missing += [corpus.relation_ids[i] for i, sp in rel_spans.items() if not sp]
    if missing:
        raise ValidationError(
            "no contextual coverage for: " + ", ".join(sorted(missing))
        )

    for i in range(corpus.n_entities):
        store.entity_centers[i] = entity_center_from_context(vectors, mention_lists[i])
    r = store.n_relations
    for i in range(corpus.n_relations):
        spans = rel_spans[i]
        total = np.zeros(store.dim, dtype=np.float64)
        for doc_id, span in spans:
            total += relation_center_from_context(vectors, doc_id, span)
        forward = total / len(spans)
        store.relation_centers[i] = forward
        store.relation_centers[i + r] = -forward
    return store


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
    matrices: dict[str, np.ndarray] = {}
    relation_spans: dict[str, dict[str, tuple[int, int]]] = {}
    dim: int | None = None
    with open(path, "rb") as fh:
        while True:
            line = fh.readline()
            if not line:
                break
            if not line.strip():
                continue
            try:
                header = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ParseError(f"bad vector-file header: {exc}") from exc
            for key in ("id", "rows", "dim"):
                if key not in header:
                    raise ParseError(f"vector-file header missing {key!r}")
            doc_id = header["id"]
            rows, d = int(header["rows"]), int(header["dim"])
            if rows < 0 or d < 1:
                raise ParseError(f"bad vector-file shape ({rows}, {d})")
            if dim is None:
                dim = d
            elif d != dim:
                raise ParseError(f"document {doc_id!r} has dim {d}, file started with {dim}")
            if doc_id in matrices:
                raise ParseError(f"duplicate document {doc_id!r} in vector file")
            raw = fh.read(rows * d * 8)
            if len(raw) != rows * d * 8:
                raise ParseError(f"vector file truncated in document {doc_id!r}")
            matrices[doc_id] = np.frombuffer(raw, dtype="<f8").reshape(rows, d).copy()
            spans = header.get("relation_spans")
            if spans:
                relation_spans[doc_id] = {
                    rid: (int(se[0]), int(se[1])) for rid, se in spans.items()
                }
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


def _manifest(entries) -> list[tuple[str, tuple[int, ...]]]:
    """The header's array manifest as (name, shape) pairs, after checking
    that it names every parameter table once and every shape is a list of
    non-negative ints."""
    if not isinstance(entries, list) or not all(
        isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) for e in entries
    ):
        raise ParseError("checkpoint array manifest is not a list of [name, shape] pairs")
    names = [name for name, _ in entries]
    expected = ROW_TABLES + NET_FIELDS
    if sorted(names) != sorted(expected):
        missing = [n for n in expected if n not in names]
        extra = [n for n in names if n not in expected or names.count(n) > 1]
        raise ParseError(
            f"checkpoint arrays do not match the parameter tables: missing {missing}, "
            f"unexpected or repeated {extra}"
        )
    for name, shape in entries:
        if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
            raise ParseError(
                f"checkpoint array {name!r} has shape {shape!r}, not a list of non-negative ints"
            )
    return [(name, tuple(shape)) for name, shape in entries]


def load(path: str, expected_dim: int | None = None) -> ParamStore:
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
        blob = fh.read(header_len)
        if len(blob) != header_len:
            raise ParseError("checkpoint truncated inside header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad checkpoint header: {exc}") from exc
        if not isinstance(header, dict):
            raise ParseError("checkpoint header is not a JSON object")
        missing = [key for key in HEADER_KEYS if key not in header]
        if missing:
            raise ParseError(f"checkpoint header misses {', '.join(map(repr, missing))}")
        dim = int(header["dim"])
        if expected_dim is not None and dim != expected_dim:
            raise ValidationError(
                f"checkpoint has dim {dim} but the configuration expects dim {expected_dim}"
            )
        loaded: dict[str, np.ndarray] = {}
        for name, shape in _manifest(header["arrays"]):
            count = math.prod(shape)
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ParseError(f"checkpoint truncated inside array {name!r}")
            loaded[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        trailing = len(fh.read())
        if trailing:
            raise ParseError(f"checkpoint has {trailing} trailing byte(s) after its last array")
    store = ParamStore.from_arrays(
        dim, header["entity_ids"], header["relation_ids"], header["offset_mode"], loaded
    )
    store.validate()
    return store
