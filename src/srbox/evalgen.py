"""Complex-query generation over a KG, answer oracles, and ranking metrics.

Nine query shapes are supported: chains (1p, 2p, 3p), intersections (2i,
3i), intersection-then-projection (ip), chain-joined-intersection (pi), and
unions (2u, up). Training queries may use only the first five shapes; all
nine are available for evaluation.

Queries are generated by walking outward from a seed edge of the requested
split: evaluation queries walk the full graph so every query touches at
least one held-out edge, training queries walk the training graph only.
Candidates whose hard-answer set (answers over the full graph minus answers
over the training graph) is empty are rejected and redrawn; a retry budget
caps the search and a short warning reports a partial result.

Ranking follows the filtered convention: a hard answer competes only
against entities that are not known answers, ties count half (average
rank). A raw mode that filters nothing but the ranked entity itself is
available. Metrics are hits@k and mean reciprocal rank.

The grid KG builder makes a deterministic synthetic benchmark: entities are
cells of a rectangular grid and every relation is a fixed set of one or two
coordinate displacements, so all relations are exactly representable by
translations and learnability is a property of the trainer, not luck.
"""

from __future__ import annotations

import json
import os
import warnings
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from srbox import boxalg
from srbox.boxalg import DEFAULT_ALPHA, DEFAULT_NORM
from srbox.errors import ParseError, ValidationError
from srbox.rng import substream
from srbox.structures import (
    NodeKind,
    Plan,
    QueryDag,
    chain_dag,
    compile_plan,
    dag_of,
    dag_shape,
    merge_dag,
    plan_of,
    query_ids,
)
from srbox.timing import timed

TRAIN_QUERY_TYPES = ("1p", "2p", "3p", "2i", "3i")
EVAL_QUERY_TYPES = TRAIN_QUERY_TYPES + ("ip", "pi", "2u", "up")
SPLITS = ("train", "valid", "test")
SCORERS = ("box", "ptranse")


@dataclass(eq=False)
class KnowledgeGraph:
    """A dense-id graph with train, valid and test splits.

    ``rows`` holds each split as an ``(n, 3)`` int64 array of (head,
    relation, tail) ids; ``train``, ``valid`` and ``test`` are the same
    triplets as lists of tuples, made on first use. ``train_index`` and
    ``full_index`` are the ``EdgeIndex`` of the train split and of all three
    splits, and ``entity_index`` and ``relation_index`` map each name to its
    id. Each is built once, on first use, and never rebuilt, so neither the
    names nor the splits may be mutated once the graph exists.
    """

    entity_ids: list[str]
    relation_ids: list[str]
    rows: dict[str, np.ndarray]

    @cached_property
    def entity_index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.entity_ids)}

    @cached_property
    def relation_index(self) -> dict[str, int]:
        return {r: i for i, r in enumerate(self.relation_ids)}

    @cached_property
    def train(self) -> list[tuple[int, int, int]]:
        return _triplets(self.rows["train"])

    @cached_property
    def valid(self) -> list[tuple[int, int, int]]:
        return _triplets(self.rows["valid"])

    @cached_property
    def test(self) -> list[tuple[int, int, int]]:
        return _triplets(self.rows["test"])

    @property
    def n_entities(self) -> int:
        return len(self.entity_ids)

    @property
    def n_relations(self) -> int:
        return len(self.relation_ids)

    def edges(self, split: str) -> list[tuple[int, int, int]]:
        if split not in SPLITS:
            raise ValidationError(f"unknown split {split!r}")
        return getattr(self, split)

    def all_edges(self) -> list[tuple[int, int, int]]:
        return self.train + self.valid + self.test

    @cached_property
    def train_index(self) -> EdgeIndex:
        return EdgeIndex(self.rows["train"])

    @cached_property
    def full_index(self) -> EdgeIndex:
        return EdgeIndex(np.concatenate([self.rows[split] for split in SPLITS]))

    def validate(self) -> None:
        """Every id in range, then no valid or test triplet also in train."""
        sizes = (self.n_entities, self.n_relations, self.n_entities)
        for split in SPLITS:
            rows = self.rows[split]
            bad = ((rows < 0) | (rows >= sizes)).any(axis=1)
            if bad.any():
                h, r, t = rows[bad.argmax()].tolist()
                raise ValidationError(f"triplet ({h}, {r}, {t}) out of id range")
        train = _distinct(_row_keys(self.rows["train"], sizes))
        for split in ("valid", "test"):
            keys = np.sort(_row_keys(self.rows[split], sizes))  # searched in order, cache-friendly
            at = np.searchsorted(train, keys)
            found = at < len(train)
            found[found] = train[at[found]] == keys[found]
            shared = len(_distinct(keys[found]))
            if shared:
                raise ValidationError(f"{split} split shares {shared} triplet(s) with train")


def _id_rows(triplets) -> np.ndarray:
    """An ``(n, 3)`` int64 array of id triplets."""
    return np.asarray(triplets, dtype=np.int64).reshape(-1, 3)


def _triplets(rows: np.ndarray) -> list[tuple[int, int, int]]:
    return list(zip(*rows.T.tolist()))


def _read_fields(path: str) -> tuple[bytes, np.ndarray]:
    """The bytes of a head<TAB>relation<TAB>tail file, with universal
    newlines and a final newline, and the ``(n, 3, 2)`` start and end offsets
    of the fields of its n non-blank lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # universal newlines, as a file read in text mode has them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero(buf <= 10)  # tabs, newlines and the rarer bytes below them
    kinds = buf[seps]
    kept = (kinds == 9) | (kinds == 10)
    seps, newline = seps[kept], kinds[kept] == 10
    starts = np.concatenate(([0], seps[:-1] + 1))  # of the text before each separator
    blank = newline & (starts == seps) & np.concatenate(([True], newline[:-1]))
    starts, ends, newline = starts[~blank], seps[~blank], newline[~blank]
    if len(ends) % 3 or not (newline.reshape(-1, 3) == (False, False, True)).all():
        # the check runs on whole arrays; this loop runs only to name the bad line
        for lineno, line in enumerate(data.split(b"\n"), start=1):
            tabs = line.count(b"\t")
            if line and tabs != 2:
                raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields, got {tabs + 1}")
    return data, np.stack([starts, ends], axis=-1).reshape(-1, 3, 2)


# A name's key word covers its next 7 bytes, zeroed past its end, in the high
# bytes and min(bytes left, 8) in the low byte, 8 meaning that more bytes
# follow; word sequences compare as the names' bytes from there do. The
# tables hold each word's big-endian bytes, read as a native uint64.
_KEEP = np.array([(1 << 64) - (1 << 64 - 8 * min(n, 7)) for n in range(9)], dtype=">u8").view(np.uint64)
_LEFT = np.arange(9, dtype=">u8").view(np.uint64)
_DATA_PER_WORD = 32  # bytes of data per key word a pass may build


def _name_keys(words: np.ndarray, starts: np.ndarray, left: np.ndarray, width: int) -> np.ndarray:
    """The ``(n, width)`` key words of the n names at ``starts`` with
    ``left`` bytes each, from the big-endian words at every byte of data."""
    at = np.arange(0, 7 * width, 7)
    index = starts[:, None] + at
    np.minimum(index, len(words) - 1, out=index)  # a word read past its name's end is zeroed
    keys = words[index].view(np.uint64)
    del index  # a pass holds few arrays the size of its keys at once
    left = left[:, None] - at
    np.clip(left, 0, 8, out=left)
    keys &= _KEEP[left]
    keys |= _LEFT[left]
    return keys


def _intern(data: bytes, spans: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct names among the fields ``data[start:end]`` of ``spans``
    ``(m, 2)`` in code-point order, and each field's id in that list.
    ``data`` holds 8 more bytes past its last field.

    The fields are sorted by the key word of their first 7 bytes. Fields
    that tie on a word that says more bytes follow are sorted again within
    their run by the key words of their next bytes, until no run ties. A
    later pass reads as many words per tied field as fit in one word per
    ``_DATA_PER_WORD`` bytes of ``data``, and no more than the longest tied
    name needs: memory stays linear in the bytes, and a long name that few
    fields share takes few passes. Only the distinct names are decoded.
    """
    starts, lengths = spans[:, 0], spans[:, 1] - spans[:, 0]
    words = np.ndarray((len(data) - 7,), dtype=">u8", buffer=data, strides=(1,))
    order = np.arange(len(spans))
    new = np.zeros(len(spans), dtype=bool)  # the field at this sorted place starts a name
    new[:1] = True
    tied = order.copy()  # sorted places in runs that later bytes may split
    offset = 0
    while len(tied):
        fields = order[tied]
        left = lengths[fields] - offset
        width = 1
        if offset:
            width = max(1, min(len(data) // _DATA_PER_WORD // len(tied), (int(left.max()) + 6) // 7))
        keys = _name_keys(words, starts[fields] + offset, left, width)
        more = keys[:, -1] & _LEFT[8] != 0  # bytes follow the last key word
        if offset:  # within runs: rows of the run's first sorted place and the keys, compared as bytes
            run = np.maximum.accumulate(np.where(new[tied], tied, 0)).astype(">u8").view(np.uint64)
            keys = np.column_stack((run, keys)).view(f"V{8 * (width + 1)}").ravel()
            # a run that already holds one name stays in order, which a stable sort checks in one sweep
            sub = np.argsort(keys, kind="stable")
        else:
            keys = keys[:, 0].byteswap()
            sub = np.argsort(keys)
        order[tied] = fields[sub]
        keys = keys[sub]
        new[tied[1:]] |= keys[1:] != keys[:-1]
        same = ~new[tied]
        tied = tied[more[sub] & (same | np.append(same[1:], False))]
        del keys  # before the next pass builds its own
        offset += 7 * width
    ids = np.empty(len(spans), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return [data[s:e].decode("utf-8") for s, e in spans[order[new]].tolist()], ids


def _read_splits(paths) -> tuple[bytes, list[np.ndarray]]:
    """The bytes of the files, one after another and then 8 zero bytes, and
    each file's field offsets into them, as ``_read_fields`` gives them."""
    parts = [_read_fields(path) for path in paths]
    offsets = np.cumsum([0] + [len(data) for data, _ in parts])
    return b"".join([data for data, _ in parts] + [bytes(8)]), [
        fields + offset for (_, fields), offset in zip(parts, offsets)
    ]


def load_kg(train_path: str, valid_path: str, test_path: str) -> KnowledgeGraph:
    """Read three head<TAB>relation<TAB>tail files into one dense-id graph.

    Ids follow the code-point order of the names. A triplet repeated within
    a split is kept once, at its first occurrence. CRLF, CR and blank lines
    are accepted; a line that is not UTF-8 or not three tab-separated
    fields raises ``ParseError`` naming ``path:line``.
    """
    data, splits = _read_splits((train_path, valid_path, test_path))
    spans = np.concatenate(splits)
    entities, e_ids = _intern(data, spans[:, ::2].reshape(-1, 2))
    relations, r_ids = _intern(data, spans[:, 1])
    e_ids = e_ids.reshape(-1, 2)
    all_rows = np.stack([e_ids[:, 0], r_ids, e_ids[:, 1]], axis=1)
    sizes = (len(entities), len(relations), len(entities))
    rows = {}
    bounds = np.cumsum([0] + [len(fields) for fields in splits])
    for split, lo, hi in zip(SPLITS, bounds[:-1], bounds[1:]):
        split_rows = all_rows[lo:hi]
        keys = _row_keys(split_rows, sizes)
        if len(_distinct(keys)) < len(keys):
            _, first = np.unique(keys, return_index=True)
            split_rows = split_rows[np.sort(first)]
        rows[split] = split_rows
    kg = KnowledgeGraph(entities, relations, rows)
    kg.validate()
    return kg


def save_kg(kg: KnowledgeGraph, out_dir: str) -> dict[str, str]:
    """Write train.tsv / valid.tsv / test.tsv; returns the path map."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for split in SPLITS:
        path = os.path.join(out_dir, f"{split}.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            for h, r, t in kg.edges(split):
                fh.write(f"{kg.entity_ids[h]}\t{kg.relation_ids[r]}\t{kg.entity_ids[t]}\n")
        paths[split] = path
    return paths


# ---------------------------------------------------------------------------
# edge index and the set-semantics oracle


def _row_keys(rows: np.ndarray, sizes: tuple[int, int, int]) -> np.ndarray:
    """Each ``(c0, c1, c2)`` row, with ``0 <= c_i < sizes[i]``, as one int64
    that sorts as the row does."""
    if sizes[0] * sizes[1] * sizes[2] > 2**63:
        raise ValidationError(f"ids too large to index: {sizes}")
    return (rows[:, 0] * sizes[1] + rows[:, 1]) * sizes[2] + rows[:, 2]


def _key_columns(keys: np.ndarray, sizes: tuple[int, int, int]) -> np.ndarray:
    """The rows of ``_row_keys``' keys, as a ``(3, n)`` array of columns."""
    rest, c2 = np.divmod(keys, sizes[2])
    c0, c1 = np.divmod(rest, sizes[1])
    return np.stack([c0, c1, c2])


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _last_column(c1, c2, lo: int, hi: int) -> tuple:
    return tuple(c2[lo:hi])


def _last_pairs(c1, c2, lo: int, hi: int) -> tuple:
    return tuple(zip(c1[lo:hi], c2[lo:hi]))


def _last_pairs_reversed(c1, c2, lo: int, hi: int) -> tuple:
    return tuple(sorted(zip(c2[lo:hi], c1[lo:hi])))


class _Groups:
    """One lazy lookup of an ``EdgeIndex``: a key (the first column, or the
    first two, of distinct edges sorted by their columns) to the sorted
    tuple of what its rows hold after the key. A group is cut from the
    columns by binary search on its first lookup and kept, and an absent
    key is kept as an empty group, which ``get`` reports as its default.
    The search reads the columns through memoryviews, whose items are
    Python ints."""

    def __init__(self, columns: np.ndarray, width: int, group: Callable) -> None:
        self._views = tuple(map(memoryview, columns))
        self._width = width
        self._group = group
        self._built: dict = {}

    def get(self, key, default=None):
        found = self._built.get(key)
        if found is None:
            found = self._build(key)
        return found or default

    def image(self, firsts, second: int) -> set:
        """The union of the groups of the keys ``(e, second)``, e in
        ``firsts``, of a two-column lookup; an absent key adds nothing."""
        out: set = set()
        built = self._built
        for e in firsts:
            found = built.get((e, second))
            out.update(self._build((e, second)) if found is None else found)
        return out

    def _build(self, key) -> tuple:
        c0, c1, c2 = self._views
        if self._width == 1:
            lo = bisect_left(c0, key)
            hi = bisect_right(c0, key, lo)
        else:
            a, b = key
            lo = bisect_left(c0, a)
            hi = bisect_right(c0, a, lo)
            lo = bisect_left(c1, b, lo, hi)
            hi = bisect_right(c1, b, lo, hi)
        found = self._built[key] = self._group(c1, c2, lo, hi)
        return found


class EdgeIndex:
    """Sorted adjacency lookups for forward/inverse traversal: ``fwd``
    (head, relation) -> tails, ``rev`` (tail, relation) -> heads,
    ``out_adj`` head -> (relation, tail) pairs and ``in_adj`` tail ->
    (head, relation) pairs. Each answers ``get(key, default)``; ``fwd``
    and ``rev`` also give the ``image`` of a set of entities along one
    relation, which the answer oracle walks.

    The distinct edges are held as int arrays, sorted twice: by (head,
    relation, tail) for ``fwd`` and ``out_adj``, and by (tail, relation,
    head) for ``rev`` and ``in_adj``. Each lookup builds a key's group on
    its first use, so set-up costs the two sorts, not a pass over every
    edge per lookup, and only the groups looked up are ever built. Ids must
    be >= 0.
    """

    def __init__(self, edges) -> None:
        rows = _id_rows(edges)
        if len(rows) and rows.min() < 0:
            raise ValidationError("an edge index needs ids >= 0")
        n_e, n_r = (int(rows[:, ::2].max()) + 1, int(rows[:, 1].max()) + 1) if len(rows) else (1, 1)
        sizes = (n_e, n_r, n_e)
        heads = _key_columns(_distinct(_row_keys(rows, sizes)), sizes)
        tails = _key_columns(np.sort(_row_keys(heads[::-1].T, sizes)), sizes)
        self.fwd = _Groups(heads, 2, _last_column)
        self.out_adj = _Groups(heads, 1, _last_pairs)
        self.rev = _Groups(tails, 2, _last_column)
        self.in_adj = _Groups(tails, 1, _last_pairs_reversed)

    def answers(self, dag: QueryDag) -> set[int]:
        """Answer set of a query DAG over this index's edges: ``plan_answers``
        of its compiled plan (which validates the DAG)."""
        return self.plan_answers(plan_of(dag), *query_ids(dag))

    def plan_answers(self, plan: Plan, anchors, relations) -> set[int]:
        """Answer set of a plan on an entity id per anchor slot and a relation id
        per edge slot: each step maps its slots' source sets along their relations,
        then intersects the images at an intersection and unions them otherwise."""
        sets = dict(zip(plan.anchors, zip(anchors)))  # 1-tuples: ``image`` only iterates them
        for n, intersects, slots, _ in plan.steps:
            images = []
            for slot in slots:
                src, _, inverse = plan.edges[slot]
                images.append((self.rev if inverse else self.fwd).image(sets[src], relations[slot]))
            sets[n] = (set.intersection if intersects else set.union)(*images)
        return set(sets[plan.answer_node])


def brute_force_answers(dag: QueryDag, edges) -> set[int]:
    """Exact answer set of a query DAG over an ``EdgeIndex``, a list of id
    triplets or an ``(n, 3)`` id array, by plain set semantics (anchor
    singletons, relational image per edge, set intersection/union at
    operator nodes)."""
    index = edges if isinstance(edges, EdgeIndex) else EdgeIndex(edges)
    return index.answers(dag)


# ---------------------------------------------------------------------------
# query generation


@dataclass(frozen=True)
class GeneratedQuery:
    qtype: str
    dag: QueryDag
    answers_train: frozenset[int]
    answers_full: frozenset[int]

    @property
    def hard_answers(self) -> frozenset[int]:
        return self.answers_full - self.answers_train


def check_answers(train: set[int], full: set[int]) -> None:
    """A query needs answers over the full graph, and its train answers
    must be among them."""
    if not full:
        raise ValidationError("query has no answers over the full graph")
    if not full >= train:
        raise ValidationError("train answers are not a subset of full answers")


def _pick(options, rng: np.random.Generator):
    return options[int(rng.integers(len(options)))]


def _type_shapes() -> dict[str, tuple]:
    """The ``dag_shape`` of each query type: the slots that ``_walk`` fills.
    pi's two-hop chain from anchor 0 (edge slots 0 and 1) meets one hop from
    anchor 1 (slot 2); no builder makes that shape, so it is written out."""
    hop = (0, False)
    branch = (0, 0, False)
    return {
        "1p": dag_shape(chain_dag(0, [hop])),
        "2p": dag_shape(chain_dag(0, [hop] * 2)),
        "3p": dag_shape(chain_dag(0, [hop] * 3)),
        "2i": dag_shape(merge_dag([branch] * 2)),
        "3i": dag_shape(merge_dag([branch] * 3)),
        "ip": dag_shape(merge_dag([branch] * 2, NodeKind.INTERSECTION, [hop])),
        "pi": (
            (0, 1),
            ((0, 2, False), (2, 3, False), (1, 3, False)),
            ((2, NodeKind.PROJECTION), (3, NodeKind.INTERSECTION)),
            3,
        ),
        "2u": dag_shape(merge_dag([branch] * 2, NodeKind.UNION)),
        "up": dag_shape(merge_dag([branch] * 2, NodeKind.UNION, [hop])),
    }


TYPE_SHAPES = _type_shapes()


def _walk(qtype: str, seed_edge: tuple[int, int, int], index: EdgeIndex,
          rng: np.random.Generator) -> tuple[list[int], list[int]] | None:
    """Grow one query of the requested type around a seed edge: its entity id
    per anchor slot and relation id per edge slot of ``TYPE_SHAPES[qtype]``,
    or None at a dead end."""
    h, r, t = seed_edge
    if qtype in ("1p", "2p", "3p"):
        relations = [r]
        for _ in TYPE_SHAPES[qtype][1][1:]:  # a hop per edge slot after the seed's
            hops = index.out_adj.get(t)
            if not hops:
                return None
            r2, t = _pick(hops, rng)
            relations.append(r2)
        return [h], relations
    if qtype == "pi":
        hops = index.out_adj.get(t)
        if not hops:
            return None
        r2, t2 = _pick(hops, rng)
        others = [p for p in index.in_adj.get(t2, ()) if p != (t, r2)]
        if not others:
            return None
        h2, r3 = _pick(others, rng)
        return [h, h2], [r, r2, r3]
    others = [p for p in index.in_adj.get(t, ()) if p != (h, r)]
    if qtype == "3i":
        if len(others) < 2:
            return None
        (h2, r2), (h3, r3) = (others[i] for i in rng.choice(len(others), size=2, replace=False))
        return [h, h2, h3], [r, r2, r3]
    if qtype in ("2i", "2u"):
        if not others:
            return None
        h2, r2 = _pick(others, rng)
        return [h, h2], [r, r2]
    hops = index.out_adj.get(t)  # ip and up: two branches, then one hop
    if not others or not hops:
        return None
    h2, r2 = _pick(others, rng)
    r3, _ = _pick(hops, rng)
    return [h, h2], [r, r2, r3]


def _generate(kg: KnowledgeGraph, qtype: str, count: int, split: str,
              rng: np.random.Generator) -> _Pending:
    """The rows of ``generate_block``. Called only by the public entry
    points, so its warning names their caller's line."""
    if split not in SPLITS:
        raise ValidationError(f"unknown split {split!r}")
    seeds = kg.rows[split]
    allowed = TRAIN_QUERY_TYPES if split == "train" else EVAL_QUERY_TYPES
    if qtype not in allowed:
        raise ValidationError(
            f"query type {qtype!r} is not available for the {split} split"
        )
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    if not len(seeds):
        raise ValidationError(f"{split} split has no edges to seed from")
    shape = TYPE_SHAPES[qtype]
    rows = _Pending(qtype, shape, compile_plan(shape))
    if count == 0:
        return rows
    train_index = kg.train_index
    full_index = kg.full_index
    walk_index = train_index if split == "train" else full_index

    budget = max(100, 30 * count)
    attempts = 0
    while len(rows.positions) < count and attempts < budget:
        attempts += 1
        ids = _walk(qtype, _pick(seeds, rng).tolist(), walk_index, rng)
        if ids is None:
            continue
        answers_train = train_index.plan_answers(rows.plan, *ids)
        answers_full = full_index.plan_answers(rows.plan, *ids)
        if not answers_full:
            continue
        if split == "train":
            if not answers_train:
                continue
        elif not (answers_full - answers_train):
            continue
        rows.add(*ids, answers_train, answers_full, len(rows.positions))
    if len(rows.positions) < count:
        warnings.warn(
            f"generated {len(rows.positions)}/{count} {qtype} queries for split {split} "
            f"within the retry budget of {budget}",
            stacklevel=3,
        )
    return rows


def generate_block(kg: KnowledgeGraph, qtype: str, count: int, split: str,
                   rng: np.random.Generator) -> QueryBlock:
    """Sample ``count`` queries of one shape seeded from the given split, as
    one block whose positions number them in the order drawn.

    Train-split queries use only the five training shapes and walk training
    edges. Eval-split queries walk the full graph and must have at least one
    hard answer. A draw gets max(100, 30 * count) walks; when they run out,
    the block is shorter and a warning says so.
    """
    return _generate(kg, qtype, count, split, rng).block()


def generate_queries(kg: KnowledgeGraph, qtype: str, count: int, split: str,
                     rng: np.random.Generator) -> list[GeneratedQuery]:
    """The queries ``generate_block`` draws, as ``GeneratedQuery`` objects
    made straight from its rows."""
    return _generate(kg, qtype, count, split, rng).queries()


# ---------------------------------------------------------------------------
# queries as id arrays


@dataclass(frozen=True, eq=False)
class Csr:
    """Rows of sorted, distinct ids: row i is ``ids[offsets[i]:offsets[i + 1]]``."""

    offsets: np.ndarray  # (rows + 1,) int64, from 0
    ids: np.ndarray  # int64

    @classmethod
    def of(cls, rows: list[list[int]]) -> Csr:
        """From a list of sorted, distinct id lists."""
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(row) for row in rows])
        return cls(offsets, np.fromiter(chain.from_iterable(rows), np.int64, int(offsets[-1])))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def rows(self, start: int, stop: int) -> Csr:
        """Rows start .. stop - 1."""
        offsets = self.offsets[start:stop + 1]
        return Csr(offsets - offsets[0], self.ids[offsets[0]:offsets[-1]])

    def row_of_ids(self) -> np.ndarray:
        """The row that holds each id."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def lists(self) -> list[list[int]]:
        ids, offsets = self.ids.tolist(), self.offsets.tolist()
        return [ids[lo:hi] for lo, hi in zip(offsets, offsets[1:])]


@dataclass(frozen=True, eq=False)
class QueryBlock:
    """Queries of one type and one DAG shape, held as id arrays.

    Row i is one query: ``anchors[i]`` holds its entity id per anchor slot
    of ``plan`` and ``relations[i]`` its relation id per edge slot;
    ``train``, ``full`` and ``hard`` (full minus train) hold its answers.
    ``positions[i]`` is the query's place in the list, file or draw the
    block came from.
    """

    qtype: str
    shape: tuple  # the ``dag_shape`` that ``plan`` compiles
    plan: Plan
    anchors: np.ndarray  # (B, n_anchors) int64
    relations: np.ndarray  # (B, n_edges) int64
    train: Csr
    full: Csr
    hard: Csr
    positions: np.ndarray  # (B,) int64

    def __len__(self) -> int:
        return len(self.positions)


@dataclass
class _Pending:
    """The rows of one ``QueryBlock``, gathered query by query."""

    qtype: str
    shape: tuple
    plan: Plan
    anchors: list = field(default_factory=list)  # a list of ids per row
    relations: list = field(default_factory=list)
    answers: list = field(default_factory=list)  # (train, full) id sets per row
    positions: list = field(default_factory=list)

    def add(self, anchors: list[int], relations: list[int], train: set[int], full: set[int],
            position: int) -> None:
        self.anchors.append(anchors)
        self.relations.append(relations)
        self.answers.append((train, full))
        self.positions.append(position)

    def block(self) -> QueryBlock:
        anchor_nodes, edges, _, _ = self.shape
        return QueryBlock(
            self.qtype, self.shape, self.plan,
            np.array(self.anchors, dtype=np.int64).reshape(-1, len(anchor_nodes)),
            np.array(self.relations, dtype=np.int64).reshape(-1, len(edges)),
            Csr.of([sorted(t) for t, _ in self.answers]),
            Csr.of([sorted(f) for _, f in self.answers]),
            Csr.of([sorted(f - t) for t, f in self.answers]),
            np.array(self.positions, dtype=np.int64),
        )

    def queries(self) -> list[GeneratedQuery]:
        """The rows as ``GeneratedQuery`` objects, in row order."""
        return [
            GeneratedQuery(self.qtype, dag_of(self.shape, ents, rels), frozenset(train), frozenset(full))
            for ents, rels, (train, full) in zip(self.anchors, self.relations, self.answers)
        ]


def query_blocks(queries: list[GeneratedQuery]) -> list[QueryBlock]:
    """The array form of a list of queries: one block per (type, DAG shape),
    in order of first appearance, each row's position its query's index in
    the list."""
    groups: dict = {}
    for i, q in enumerate(queries):
        key = (q.qtype, dag_shape(q.dag))
        if key not in groups:
            groups[key] = _Pending(*key, compile_plan(key[1]))
        groups[key].add(*query_ids(q.dag), q.answers_train, q.answers_full, i)
    return [rows.block() for rows in groups.values()]


# ---------------------------------------------------------------------------
# scoring and ranking


def _chain_hops(plan: Plan) -> list[tuple[int, bool]]:
    """The (edge slot, inverse) of each hop of a pure chain plan, from its
    anchor to its answer node: one anchor, then steps of one slot each fed
    by the node before."""
    unsupported = ValidationError("unsupported query shape for the path scorer (chains only)")
    if len(plan.anchors) != 1 or any(len(slots) != 1 for _, _, slots, _ in plan.steps):
        raise unsupported
    hops = []
    node = plan.anchors[0]
    for n, _, (slot,), _ in plan.steps:
        src, _, inverse = plan.edges[slot]
        if src != node:
            raise unsupported
        hops.append((slot, inverse))
        node = n
    if node != plan.answer_node:
        raise unsupported
    return hops


def ptranse_distances(anchor: int, path: list[tuple[int, bool]], params) -> np.ndarray:
    """PTransE path-sum distance of every entity to a chain query:
    |Cen(anchor) + sum of signed relation centers - Cen(e)|_1, inverse hops
    contributing their negated forward center."""
    vec = params.entity_centers[anchor].copy()
    for rel, inverse in path:
        row = params.relation_centers[params.center_row(rel, False)]
        vec = vec - row if inverse else vec + row
    return np.abs(params.entity_centers - vec).sum(axis=1)


# elements of one stacked (B, d) array in the forward pass: 128 queries at
# d = 32, where a 3i block's intersection holds about 2 MB of intermediate
# arrays; a larger block runs in parts of that size, so memory does not grow
# with it (512-query parts raised eval's peak RSS by about 7 MB)
FORWARD_TILE = 1 << 12


def _forward_parts(block: QueryBlock, params):
    """(b0, boxes) for consecutive parts of the block of up to
    ``FORWARD_TILE // d`` rows, b0 the first: the answer disjuncts of one
    stacked ``boxalg.execute_ids`` call, each a Box of stacked arrays."""
    size = max(1, FORWARD_TILE // params.entity_centers.shape[1])
    for b0 in range(0, len(block), size):
        rows = slice(b0, b0 + size)
        yield b0, boxalg.execute_ids(block.plan, block.anchors[rows], block.relations[rows], params)


def _ptranse_rows(block: QueryBlock, params):
    """The path-sum distances from every entity to each row of a block,
    (n_entities,) each, along the chain its plan lays out."""
    hops = _chain_hops(block.plan)
    for ents, rels in zip(block.anchors.tolist(), block.relations.tolist()):
        yield ptranse_distances(ents[0], [(rels[s], inv) for s, inv in hops], params)


def _screened_chunks(block: QueryBlock, params, alpha: float, norm: str, counts: dict):
    """(start, D, screen) for consecutive chunks of rows under the box
    scorer, so memory holds one chunk's distances, not the block's. D (c,
    n_entities) is the float32 screen of rows start .. start + c - 1, from
    ``boxalg.min_distance_tiles`` on each forward part, and ``screen`` the
    pair ``rank_block`` takes with it: each row's ``boxalg.screen_error``
    and a function of (rows, ids) that gives those pairs' float64
    distances. Adds the pairs screened, and the distinct pairs recounted,
    to ``counts["pairs"]`` and ``counts["recomputed"]`` once a chunk is
    ranked."""
    entities = params.entity_centers
    for b0, boxes in _forward_parts(block, params):
        eps = boxalg.screen_error(entities, boxes, alpha)
        for start, dist in boxalg.min_distance_tiles(entities, boxes, alpha, norm):
            part = slice(start, start + len(dist))
            chunk = [boxalg.Box(b.center[part], b.offset[part]) for b in boxes]
            seen = np.zeros(dist.shape, dtype=bool)  # the pairs recounted, each once

            def exact(rows, ids, chunk=chunk, seen=seen):
                seen[rows, ids] = True
                return boxalg.pair_distances(entities, chunk, rows, ids, alpha, norm)

            yield b0 + start, dist, (eps[part], exact)
            counts["pairs"] += dist.size
            counts["recomputed"] += int(np.count_nonzero(seen))


def rank_block(dist: np.ndarray, hard: Csr, known: Csr | None, screen=None) -> np.ndarray:
    """Rank of each hard answer of c queries, in the order of ``hard.ids``,
    from their distances D (c, m) to every entity: 1 + competitors strictly
    closer + half the competitors at the same distance.

    Filtered ranking takes each query's ``known`` answers out of its
    competitor pool; raw ranking (``known`` None) keeps every entity. The
    ranked entity is never its own competitor. The counts are integers,
    summed exactly in float64. Distances must not be NaN.

    D is always a screen: ``screen`` is a pair (eps, exact), each finite
    entry of row i of D lies within eps[i] of the exact distance, and
    exact(rows, ids) gives the exact distances of (row, entity) pairs;
    without one, D is exact, eps is 0 and exact reads D. An answer's own
    distance d is taken exact. A competitor screened below d - eps is
    surely closer and one above d + eps surely not; the ones between, the
    answer's band, are recounted from their exact distances. A row with a
    non-finite entry or eps takes eps = inf, so its every competitor is
    recounted. Each rank is then that of the exact distances.

    A query with more hard answers than m's bit length (about log2 m)
    counts them from one sort of its pool (``_counts_by_sort``), in m log m
    instead of answers x m compares. The other queries compare each
    answer's distance with their row in one sweep of slices of answers
    (and of entities, for rows longer than the budget), so no compare array
    holds more than ``boxalg.DIST_TILE`` elements however many answers
    there are; each slice counts its surely closer competitors and
    recounts its bands' entries.
    """
    m = dist.shape[1]
    rows, answers = hard.row_of_ids(), hard.ids
    if screen is None:
        eps, exact = np.zeros(len(dist)), lambda r, ids: dist[r, ids]
    else:
        eps, exact = screen
    wide = ~np.isfinite(eps) | ~np.isfinite(dist.sum(axis=1))
    da = exact(rows, answers)
    finite = ~wide[rows]
    lo = np.subtract(da, eps[rows], out=np.full(len(da), -np.inf), where=finite)
    hi = np.add(da, eps[rows], out=np.full(len(da), np.inf), where=finite)
    pool = dist.copy() if known is not None or wide.any() else dist
    if wide.any():
        pool[wide] = np.inf  # inside every band of its row
    if known is not None:
        pool[known.row_of_ids(), known.ids] = np.nan  # NaN is neither closer nor in a band
    ranks = np.ones(len(answers))  # 1 + competitors closer + half those tied, exact in float64
    sizes = np.diff(hard.offsets)
    by_sort = np.flatnonzero(sizes > m.bit_length()).tolist()
    for r in by_sort:
        a, b = hard.offsets[r:r + 2].tolist()
        closer, tied = _counts_by_sort(pool[r], r, *(x[a:b] for x in (answers, da, lo, hi)), exact)
        ranks[a:b] += closer + 0.5 * tied
    compared = np.flatnonzero(sizes[rows] <= m.bit_length())
    width = min(m, boxalg.DIST_TILE)
    step = max(1, boxalg.DIST_TILE // width)
    for a0 in range(0, len(compared), step):
        part = compared[a0:a0 + step]
        low, high = lo[part, None], hi[part, None]
        for c0 in range(0, m, width):
            competitors = pool[rows[part], c0:c0 + width]
            closer = competitors < low
            ranks[part] += np.count_nonzero(closer, axis=1)
            # the band: at most high but not closer (as low <= high), and never NaN
            band = np.flatnonzero((competitors <= high) ^ closer)  # flat: 2-d nonzero is slow
            i, j = np.divmod(band, competitors.shape[1])
            i, j = part[i], j + c0
            other = j != answers[i]  # the answer itself is no competitor
            i, j = i[other], j[other]
            x = exact(rows[i], j)
            np.add.at(ranks, i[x < da[i]], 1.0)
            np.add.at(ranks, i[x == da[i]], 0.5)
    return ranks


def _counts_by_sort(pool_row, r, answers, da, lo, hi, exact):
    """Exact closer and tied counts of the answers of query ``r`` (ids
    ``answers``, exact distances ``da``, bands ``lo`` .. ``hi``) from its
    pool row, in which NaN (a known answer left out of the pool) sorts last
    and so matches none. Where the bands have width, every entry inside
    some band is first made exact with ``exact``, after which every other
    entry compares with each answer's distance as its exact one does; the
    row is then counted from one sort and two ``searchsorted`` calls."""
    row = pool_row
    if (hi > lo).any():
        row = pool_row.copy()
        order = np.argsort(da)
        lows, highs = lo[order], hi[order]  # both ascending: every band has the row's width
        k = np.searchsorted(highs, row)  # the lowest band that reaches up to each entry
        inside = k < len(highs)
        inside[inside] = lows[k[inside]] <= row[inside]
        ids = np.flatnonzero(inside)
        row[ids] = exact(np.full(len(ids), r), ids)
    itself = row[answers] == da  # the answer itself is no competitor
    line = np.sort(row)
    closer = np.searchsorted(line, da, "left")
    tied = np.searchsorted(line, da, "right")
    tied -= closer
    tied -= itself
    return closer, tied


def block_ranks(block: QueryBlock, params, scorer: str = "box", alpha: float = DEFAULT_ALPHA,
                norm: str = DEFAULT_NORM, raw: bool = False,
                timings: dict | None = None,
                screen_counts: dict | None = None) -> np.ndarray:
    """``rank_block`` of each chunk of the block's distances: the filtered
    (or raw) rank of every hard answer of the block, in the order of
    ``block.hard.ids`` (rows in order, each row's answers by id).

    The box scorer's chunks are the float32 screen (``_screened_chunks``),
    whose undecided pairs ``rank_block`` recounts in float64; the path-sum
    scorer's are its rows, exact, and go to ``rank_block`` without a
    screen. Either way every rank is the one ``query_distances`` gives.
    Adds the seconds spent in ``rank_block`` to ``timings["ranks"]`` and,
    for the box scorer, the pairs screened and recounted to
    ``screen_counts["pairs"]`` and ``screen_counts["recomputed"]``, if
    given."""
    if scorer == "box":
        counts = {"pairs": 0, "recomputed": 0} if screen_counts is None else screen_counts
        chunks = _screened_chunks(block, params, alpha, norm, counts)
    elif scorer == "ptranse":
        chunks = ((i, dist[None], None) for i, dist in enumerate(_ptranse_rows(block, params)))
    else:
        raise ValidationError(f"unknown scorer {scorer!r}")
    ranks = []
    timings = {} if timings is None else timings
    for start, dist, check in chunks:
        stop = start + len(dist)
        with timed(timings, "ranks"):
            known = None if raw else block.full.rows(start, stop)
            ranks.append(rank_block(dist, block.hard.rows(start, stop), known, check))
    return np.concatenate(ranks)


def query_distances(
    query: GeneratedQuery,
    params,
    scorer: str = "box",
    alpha: float = DEFAULT_ALPHA,
    norm: str = DEFAULT_NORM,
) -> np.ndarray:
    """Per-entity distance vector under the chosen scorer (lower is better):
    the box scorer's float64 distances from one ``boxalg.pair_distances``
    call over every entity, or the path-sum scorer's row."""
    [block] = query_blocks([query])
    if scorer == "ptranse":
        [dist] = _ptranse_rows(block, params)
        return dist
    if scorer != "box":
        raise ValidationError(f"unknown scorer {scorer!r}")
    boxes = boxalg.execute_ids(block.plan, block.anchors, block.relations, params)
    ids = np.arange(len(params.entity_centers))
    return boxalg.pair_distances(params.entity_centers, boxes, np.zeros_like(ids), ids, alpha, norm)


def ranks_from_distances(
    dist: np.ndarray, hard: frozenset[int], answers_full: frozenset[int], raw: bool = False
) -> dict[int, float]:
    """Rank of each hard answer of one query from its distances (m,):
    ``rank_block`` of a chunk of one query, whose known answers, in
    filtered mode, are ``answers_full``."""
    answers = sorted(hard)
    known = None if raw else Csr.of([sorted(answers_full)])
    return dict(zip(answers, rank_block(dist[None], Csr.of([answers]), known).tolist()))


def rank_answers(
    query: GeneratedQuery,
    params,
    scorer: str = "box",
    alpha: float = DEFAULT_ALPHA,
    norm: str = DEFAULT_NORM,
    raw: bool = False,
) -> dict[int, float]:
    """Filtered (or raw) ranks of the query's hard answers: ``block_ranks``
    of its block of one."""
    [block] = query_blocks([query])
    ranks = block_ranks(block, params, scorer, alpha, norm, raw)
    return dict(zip(block.hard.ids.tolist(), ranks.tolist()))


def hits_at_k(ranks, k: int) -> float:
    ranks = list(ranks)
    if not ranks:
        raise ValidationError("no ranks to aggregate")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def mrr(ranks) -> float:
    ranks = list(ranks)
    if not ranks:
        raise ValidationError("no ranks to aggregate")
    return sum(1.0 / r for r in ranks) / len(ranks)


def rank_report(qtype: str, scorer: str, ranks: list[float], n_queries: int) -> dict:
    """H@1/3/10 and MRR over ranks listed query by query, each query's by
    answer id: the order in which MRR's float sum runs."""
    return {
        "scorer": scorer,
        "query_type": qtype,
        "H@1": hits_at_k(ranks, 1),
        "H@3": hits_at_k(ranks, 3),
        "H@10": hits_at_k(ranks, 10),
        "MRR": mrr(ranks),
        "n_queries": n_queries,
    }


def metrics_report(
    queries: list[GeneratedQuery],
    params,
    scorer: str = "box",
    alpha: float = DEFAULT_ALPHA,
    norm: str = DEFAULT_NORM,
    raw: bool = False,
) -> dict:
    """Aggregate H@1/3/10 and MRR over every hard answer of one query batch:
    ``block_ranks`` of its ``query_blocks``, put back in the list's order."""
    if not queries:
        raise ValidationError("no queries to evaluate")
    qtypes = {q.qtype for q in queries}
    blocks = query_blocks(queries)
    ranks = np.concatenate([block_ranks(b, params, scorer, alpha, norm, raw) for b in blocks])
    positions = np.concatenate([b.positions[b.hard.row_of_ids()] for b in blocks])
    ranks = ranks[np.argsort(positions, kind="stable")].tolist()
    return rank_report(qtypes.pop() if len(qtypes) == 1 else "mixed", scorer, ranks, len(queries))


# ---------------------------------------------------------------------------
# query (de)serialization


def write_queries(blocks: list[QueryBlock], kg: KnowledgeGraph, path: str) -> None:
    """Write the queries of blocks as the file ``read_query_blocks`` reads:
    one JSON record per row, in order of the rows' positions (equal ones in
    block order), with names in place of ids and each answer list sorted by
    name."""
    names, relation_names = kg.entity_ids, kg.relation_ids
    lines = []
    for b in blocks:
        anchor_nodes, edges, nodes, answer = b.shape
        nodes = [[n, kind.value] for n, kind in nodes]
        rows = zip(b.positions.tolist(), b.anchors.tolist(), b.relations.tolist(),
                   b.train.lists(), b.full.lists())
        for pos, ents, rels, train, full in rows:
            rec = {
                "type": b.qtype,
                "dag": {
                    "anchors": [[n, names[e]] for n, e in zip(anchor_nodes, ents)],
                    "edges": [[s, d, relation_names[r], inv] for (s, d, inv), r in zip(edges, rels)],
                    "nodes": nodes,
                    "answer_node": answer,
                },
                "answers_train": sorted([names[e] for e in train]),
                "answers_full": sorted([names[e] for e in full]),
            }
            lines.append((pos, json.dumps(rec) + "\n"))
    lines.sort(key=lambda line: line[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line for _, line in lines)


def _written_shape(rec) -> tuple:
    """A record's type and DAG shape fields as written: the key under which
    the loader keeps a shape it has checked. ``_checked_type`` reads the
    shape from this key, and values that compare equal convert alike, so
    equal keys are records of one checked shape."""
    dag = rec["dag"]
    return (
        rec["type"],
        tuple([n for n, _ in dag["anchors"]]),
        tuple([(s, d, i) for s, d, _, i in dag["edges"]]),
        tuple([(n, k) for n, k in dag["nodes"]]),
        dag["answer_node"],
    )


def _checked_type(rec, pending: dict[str, _Pending]) -> _Pending:
    """The pending block of a record's type, once the record's DAG shape is
    valid and the shape that ``generate_block`` gives its type."""
    try:
        qtype, anchor_nodes, edges, nodes, answer = _written_shape(rec)
        shape = (
            tuple(map(int, anchor_nodes)),
            tuple((int(s), int(d), bool(i)) for s, d, i in edges),
            tuple((int(n), NodeKind(k)) for n, k in nodes),
            int(answer),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad query record: {exc}") from exc
    plan = compile_plan(shape)
    if not isinstance(qtype, str) or qtype not in TYPE_SHAPES:
        raise ParseError(f"unknown query type {qtype!r}")
    if shape != TYPE_SHAPES[qtype]:
        raise ParseError(f"the DAG is not the shape of a {qtype} query")
    if qtype not in pending:
        pending[qtype] = _Pending(qtype, shape, plan)
    return pending[qtype]


def _read_record(rec, position: int, kg: KnowledgeGraph, checked: dict,
                 pending: dict[str, _Pending]) -> None:
    """Check one record and add it to its type's pending block. ``checked``
    maps each ``_written_shape`` already checked to its type's block."""
    try:
        key = _written_shape(rec)
        target = checked.get(key)
    except (KeyError, TypeError, ValueError):
        key = target = None
    if target is None:
        target = _checked_type(rec, pending)
        if key is not None:
            checked[key] = target
    e_idx, r_idx = kg.entity_index, kg.relation_index
    try:
        dag = rec["dag"]
        anchors = [e_idx[e] for _, e in dag["anchors"]]
        relations = [r_idx[r] for _, _, r, _ in dag["edges"]]
        train = {e_idx[e] for e in rec["answers_train"]}
        full = {e_idx[e] for e in rec["answers_full"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad query record: {exc}") from exc
    check_answers(train, full)
    target.add(anchors, relations, train, full, position)


def _read_rows(path: str, kg: KnowledgeGraph) -> list[_Pending]:
    """The rows of ``read_query_blocks``."""
    checked: dict = {}
    pending: dict[str, _Pending] = {}
    position = 0
    with open(path, "rb") as fh:
        # universal newlines, as a file read in text mode has them
        for lineno, line in enumerate(fh.read().splitlines(), start=1):
            try:
                text = line.decode("utf-8")
                if not text.strip():
                    continue
                _read_record(json.loads(text), position, kg, checked, pending)
            except (UnicodeDecodeError, RecursionError, json.JSONDecodeError, ValidationError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            position += 1
    return list(pending.values())


def read_query_blocks(path: str, kg: KnowledgeGraph) -> list[QueryBlock]:
    """The queries of a ``write_queries`` file, one block per type in order
    of first appearance, each row's position its record's place among the
    file's records.

    Records stream into their type's rows. A record's DAG shape is
    validated (``compile_plan``) and matched against its type's
    (``TYPE_SHAPES``) the first time the file shows it; every record's
    names must be the graph's, its full answers nonempty and its train
    answers a subset of them. The first bad line is reported as
    ``path:lineno``.
    """
    return [rows.block() for rows in _read_rows(path, kg)]


def load_queries(path: str, kg: KnowledgeGraph) -> list[GeneratedQuery]:
    """The queries of a ``write_queries`` file, in file order, read as
    ``read_query_blocks`` reads them."""
    pairs = [pq for rows in _read_rows(path, kg) for pq in zip(rows.positions, rows.queries())]
    return [q for _, q in sorted(pairs, key=lambda pq: pq[0])]


# ---------------------------------------------------------------------------
# synthetic grid benchmark


GRID_RELATIONS: tuple[tuple[str, tuple[tuple[int, int], ...]], ...] = (
    ("east", ((1, 0),)),
    ("north", ((0, 1),)),
    ("west", ((-1, 0),)),
    ("south", ((0, -1),)),
    ("east_span", ((1, 0), (2, 0))),
    ("north_span", ((0, 1), (0, 2))),
    ("east_diag", ((1, 1), (1, -1))),
    ("west_mix", ((-1, -1), (-2, 0))),
)


# the train, valid and test shares of the grid's edges
GRID_SPLIT = (0.85, 0.05, 0.10)


def build_grid_kg(width: int = 20, height: int = 10, seed: int = 0) -> KnowledgeGraph:
    """Deterministic translation-structured KG on a width x height grid.

    Every relation moves a cell by one of its displacement vectors (edges
    leaving the grid are dropped), so each relation is representable as a
    translation with a bounded spread, learnable by construction. Edges are
    shuffled with the seed and split by ``GRID_SPLIT``.
    """
    if width < 3 or height < 3:
        raise ValidationError("grid must be at least 3x3")
    entity_ids = [f"c{x:02d}_{y:02d}" for x in range(width) for y in range(height)]
    e_idx = {e: i for i, e in enumerate(entity_ids)}
    relation_ids = sorted(name for name, _ in GRID_RELATIONS)
    r_idx = {r: i for i, r in enumerate(relation_ids)}
    edges = []
    for name, moves in GRID_RELATIONS:
        rid = r_idx[name]
        for x in range(width):
            for y in range(height):
                for dx, dy in moves:
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < width and 0 <= ny < height:
                        edges.append(
                            (e_idx[f"c{x:02d}_{y:02d}"], rid, e_idx[f"c{nx:02d}_{ny:02d}"])
                        )
    edges.sort()
    rng = substream(seed, "kg-split")
    order = rng.permutation(len(edges))
    shuffled = [edges[i] for i in order]
    n_valid = int(GRID_SPLIT[1] * len(edges))
    n_test = int(GRID_SPLIT[2] * len(edges))
    n_train = len(edges) - n_valid - n_test
    parts = (shuffled[:n_train], shuffled[n_train : n_train + n_valid], shuffled[n_train + n_valid :])
    kg = KnowledgeGraph(entity_ids, relation_ids, dict(zip(SPLITS, map(_id_rows, parts))))
    kg.validate()
    return kg
