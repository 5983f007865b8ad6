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
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from srbox import boxalg
from srbox.errors import ParseError, ValidationError
from srbox.rng import substream
from srbox.structures import (
    Edge,
    NodeKind,
    Plan,
    QueryDag,
    chain_dag,
    compile_plan,
    dag_shape,
    intersection_dag,
    merge_dag,
    plan_of,
    query_ids,
)

TRAIN_QUERY_TYPES = ("1p", "2p", "3p", "2i", "3i")
EVAL_QUERY_TYPES = TRAIN_QUERY_TYPES + ("ip", "pi", "2u", "up")
SPLITS = ("train", "valid", "test")


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
            keys = _distinct(_row_keys(self.rows[split], sizes))
            shared = len(train) + len(keys) - len(_distinct(np.concatenate([train, keys])))
            if shared:
                raise ValidationError(f"{split} split shares {shared} triplet(s) with train")


def _id_rows(triplets) -> np.ndarray:
    """An ``(n, 3)`` int64 array of id triplets."""
    return np.asarray(triplets, dtype=np.int64).reshape(-1, 3)


def _triplets(rows: np.ndarray) -> list[tuple[int, int, int]]:
    return list(zip(*rows.T.tolist()))


def _read_fields(path: str) -> list[str]:
    """The fields of a head<TAB>relation<TAB>tail file, three per non-blank
    line, as one flat list."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    # the counts run in C; the Python loop runs only to name a bad line
    tabs = list(map(str.count, lines, repeat("\t")))
    if tabs.count(2) + lines.count("") != len(lines):
        for lineno, (line, n) in enumerate(zip(lines, tabs), start=1):
            if line and n != 2:
                raise ParseError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {n + 1}"
                )
    kept = [line for line in lines if line]
    return "\t".join(kept).split("\t") if kept else []


def load_kg(train_path: str, valid_path: str, test_path: str) -> KnowledgeGraph:
    """Read three head<TAB>relation<TAB>tail files into one dense-id graph.

    Ids follow the sorted names. A triplet repeated within a split is kept
    once, at its first occurrence.
    """
    paths = (train_path, valid_path, test_path)
    fields = {split: _read_fields(path) for split, path in zip(SPLITS, paths)}
    entities = sorted(set().union(*(f[i::3] for f in fields.values() for i in (0, 2))))
    relations = sorted(set().union(*(f[1::3] for f in fields.values())))
    e_idx = {e: i for i, e in enumerate(entities)}
    r_idx = {r: i for i, r in enumerate(relations)}
    rows = {}
    for split, f in fields.items():
        columns = [list(map(ids.__getitem__, f[i::3])) for i, ids in enumerate((e_idx, r_idx, e_idx))]
        split_rows = np.array(columns, dtype=np.int64).T
        keys = _row_keys(split_rows, (len(entities), len(relations), len(entities)))
        if len(_distinct(keys)) < len(keys):
            _, first = np.unique(keys, return_index=True)
            split_rows = split_rows[np.sort(first)]
        rows[split] = np.ascontiguousarray(split_rows)
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


class _Groups(Mapping):
    """One read-only map of an ``EdgeIndex``: a key (the first column, or the
    first two, of distinct edges sorted by their columns) to the sorted
    tuple of what its rows hold after the key. A group is cut from the
    columns by binary search on its first lookup and kept, and an absent
    key is kept as an empty group. The search reads the columns through
    memoryviews, whose items are Python ints."""

    def __init__(self, columns: np.ndarray, width: int, group: Callable) -> None:
        self._columns = columns
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
        ``firsts``, of a two-column map; an absent key adds nothing."""
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

    def __getitem__(self, key):
        found = self.get(key)
        if found is None:
            raise KeyError(key)
        return found

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    @cached_property
    def _starts(self) -> np.ndarray:
        keys = self._columns[: self._width]
        change = np.ones(keys.shape[1], dtype=bool)
        change[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
        return np.flatnonzero(change)

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self):
        keys = self._columns[: self._width, self._starts].tolist()
        return iter(keys[0]) if self._width == 1 else zip(*keys)

    def __eq__(self, other) -> bool:
        if isinstance(other, _Groups) and (other._width, other._group) == (self._width, self._group):
            return np.array_equal(self._columns, other._columns)
        return super().__eq__(other)


class EdgeIndex:
    """Adjacency maps for fast forward/inverse traversal, all sorted:
    ``fwd`` (head, relation) -> tails, ``rev`` (tail, relation) -> heads,
    ``out_adj`` head -> (relation, tail) pairs and ``in_adj`` tail ->
    (head, relation) pairs.

    The distinct edges are held as int arrays, sorted twice: by (head,
    relation, tail) for ``fwd`` and ``out_adj``, and by (tail, relation,
    head) for ``rev`` and ``in_adj``. Each map is a view that builds a key's
    group on its first lookup, so set-up costs the two sorts, not a pass over
    every edge per map, and only the groups looked up are ever built. Ids
    must be >= 0.
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

    def map_forward(self, sources: set[int], rel: int) -> set[int]:
        return self.fwd.image(sources, rel)

    def map_inverse(self, sources: set[int], rel: int) -> set[int]:
        return self.rev.image(sources, rel)

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

    def validate(self) -> None:
        if not self.answers_full:
            raise ValidationError("query has no answers over the full graph")
        if not self.answers_full >= self.answers_train:
            raise ValidationError("train answers are not a subset of full answers")


def _pick(options, rng: np.random.Generator):
    return options[int(rng.integers(len(options)))]


def _pi_dag(h: int, r: int, r2: int, h2: int, r3: int) -> QueryDag:
    """A two-hop chain from h (r then r2) intersected with one hop r3 from h2."""
    return QueryDag(
        anchors=((0, h), (1, h2)),
        edges=(
            Edge(0, 2, r, False),
            Edge(2, 3, r2, False),
            Edge(1, 3, r3, False),
        ),
        nodes=((2, NodeKind.PROJECTION), (3, NodeKind.INTERSECTION)),
        answer_node=3,
    )


def _type_shapes() -> dict[str, tuple]:
    """The ``dag_shape`` that ``_walk_dag`` gives each query type."""
    hop = (0, False)
    branch = (0, 0, False)
    dags = {
        "1p": chain_dag(0, [hop]),
        "2p": chain_dag(0, [hop] * 2),
        "3p": chain_dag(0, [hop] * 3),
        "2i": intersection_dag([branch] * 2),
        "3i": intersection_dag([branch] * 3),
        "ip": merge_dag([branch] * 2, NodeKind.INTERSECTION, [hop]),
        "pi": _pi_dag(0, 0, 0, 0, 0),
        "2u": merge_dag([branch] * 2, NodeKind.UNION),
        "up": merge_dag([branch] * 2, NodeKind.UNION, [hop]),
    }
    return {qtype: dag_shape(dag) for qtype, dag in dags.items()}


TYPE_SHAPES = _type_shapes()


def _walk_dag(
    qtype: str,
    seed_edge: tuple[int, int, int],
    index: EdgeIndex,
    rng: np.random.Generator,
) -> QueryDag | None:
    """Grow one DAG of the requested shape around a seed edge; None = dead end."""
    h, r, t = seed_edge
    if qtype == "1p":
        return chain_dag(h, [(r, False)])
    if qtype in ("2p", "3p"):
        hops = [(r, False)]
        node = t
        for _ in range(1 if qtype == "2p" else 2):
            nxt = index.out_adj.get(node)
            if not nxt:
                return None
            r2, node = _pick(nxt, rng)
            hops.append((r2, False))
        return chain_dag(h, hops)
    if qtype in ("2i", "3i"):
        others = [p for p in index.in_adj.get(t, ()) if p != (h, r)]
        need = 1 if qtype == "2i" else 2
        if len(others) < need:
            return None
        if need == 1:
            extra = [_pick(others, rng)]
        else:
            picks = rng.choice(len(others), size=2, replace=False)
            extra = [others[i] for i in picks]
        branches = [(h, r, False)] + [(h2, r2, False) for h2, r2 in extra]
        return intersection_dag(branches)
    if qtype in ("ip", "up"):
        others = [p for p in index.in_adj.get(t, ()) if p != (h, r)]
        hops = index.out_adj.get(t)
        if not others or not hops:
            return None
        h2, r2 = _pick(others, rng)
        r3, _ = _pick(hops, rng)
        merge = NodeKind.INTERSECTION if qtype == "ip" else NodeKind.UNION
        return merge_dag([(h, r, False), (h2, r2, False)], merge, [(r3, False)])
    if qtype == "pi":
        hops = index.out_adj.get(t)
        if not hops:
            return None
        r2, t2 = _pick(hops, rng)
        others = [p for p in index.in_adj.get(t2, ()) if p != (t, r2)]
        if not others:
            return None
        h2, r3 = _pick(others, rng)
        return _pi_dag(h, r, r2, h2, r3)
    if qtype == "2u":
        others = [p for p in index.in_adj.get(t, ()) if p != (h, r)]
        if not others:
            return None
        h2, r2 = _pick(others, rng)
        return merge_dag([(h, r, False), (h2, r2, False)], NodeKind.UNION)
    raise ValidationError(f"unknown query type {qtype!r}")


def generate_queries(
    kg: KnowledgeGraph,
    qtype: str,
    count: int,
    split: str,
    rng: np.random.Generator,
    retry_budget: int | None = None,
) -> list[GeneratedQuery]:
    """Sample ``count`` queries of one shape seeded from the given split.

    Train-split queries use only the five training shapes and walk training
    edges. Eval-split queries walk the full graph and must have at least one
    hard answer. Runs out of retries -> partial list plus a warning.
    """
    if split not in SPLITS:
        raise ValidationError(f"unknown split {split!r}")
    allowed = TRAIN_QUERY_TYPES if split == "train" else EVAL_QUERY_TYPES
    if qtype not in allowed:
        raise ValidationError(
            f"query type {qtype!r} is not available for the {split} split"
        )
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    seeds = kg.edges(split)
    if not seeds:
        raise ValidationError(f"{split} split has no edges to seed from")
    if count == 0:
        return []
    train_index = kg.train_index
    full_index = kg.full_index
    walk_index = train_index if split == "train" else full_index
    plan = compile_plan(TYPE_SHAPES[qtype])  # the shape ``_walk_dag`` gives every candidate

    budget = retry_budget if retry_budget is not None else max(100, 30 * count)
    out: list[GeneratedQuery] = []
    attempts = 0
    while len(out) < count and attempts < budget:
        attempts += 1
        seed_edge = _pick(seeds, rng)
        dag = _walk_dag(qtype, seed_edge, walk_index, rng)
        if dag is None:
            continue
        ids = query_ids(dag)
        answers_train = frozenset(train_index.plan_answers(plan, *ids))
        answers_full = frozenset(full_index.plan_answers(plan, *ids))
        if not answers_full:
            continue
        if split == "train":
            if not answers_train:
                continue
        elif not (answers_full - answers_train):
            continue
        out.append(GeneratedQuery(qtype, dag, answers_train, answers_full))
    if len(out) < count:
        warnings.warn(
            f"generated {len(out)}/{count} {qtype} queries for split {split} "
            f"within the retry budget of {budget}",
            stacklevel=2,
        )
    return out


# ---------------------------------------------------------------------------
# ranking


def dag_to_path(dag: QueryDag) -> tuple[int, list[tuple[int, bool]]]:
    """Anchor and relation hops of a pure chain: a plan of one anchor, then
    steps of one slot each fed by the node before, the answer node last."""
    plan = plan_of(dag)
    if len(plan.anchors) != 1 or any(len(slots) != 1 for _, _, slots, _ in plan.steps):
        raise ValidationError("unsupported query shape for the path scorer (chains only)")
    (anchor,), relations = query_ids(dag)
    path = []
    node = plan.anchors[0]
    for n, _, (slot,), _ in plan.steps:
        src, _, inverse = plan.edges[slot]
        if src != node:
            raise ValidationError("unsupported query shape for the path scorer (chains only)")
        path.append((relations[slot], inverse))
        node = n
    if node != plan.answer_node:
        raise ValidationError("unsupported query shape for the path scorer (chains only)")
    return anchor, path


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
# arrays; a larger shape group runs in blocks of that size, so memory does
# not grow with it (512-query blocks raised eval's peak RSS by about 7 MB)
FORWARD_TILE = 1 << 12


def box_distances(queries: list[GeneratedQuery], params, alpha: float = 0.02, norm: str = "l1"):
    """Box-scorer distances of a list of queries, scored by shape.

    Queries of one DAG shape run as one stacked ``boxalg.execute_batch``
    call per block of ``FORWARD_TILE // d`` of them; their distances come
    from ``boxalg.min_distance_tiles``. Yields
    (indices into ``queries``, distances (len(indices), n_entities)) one
    chunk at a time, shape by shape in order of first appearance, so memory
    holds one chunk's distances, not the whole list's.
    """
    groups: dict = {}
    for i, q in enumerate(queries):
        groups.setdefault(plan_of(q.dag), []).append(i)
    size = max(1, FORWARD_TILE // params.entity_centers.shape[1])
    blocks = (
        (plan, idxs[i:i + size]) for plan, idxs in groups.items() for i in range(0, len(idxs), size)
    )
    for plan, block in blocks:
        boxes = boxalg.execute_batch(plan, [queries[i].dag for i in block], params)
        for start, dist in boxalg.min_distance_tiles(params.entity_centers, boxes, alpha, norm):
            yield block[start:start + len(dist)], dist


def query_distances(
    query: GeneratedQuery,
    params,
    scorer: str = "box",
    alpha: float = 0.02,
    norm: str = "l1",
) -> np.ndarray:
    """Per-entity distance vector under the chosen scorer (lower is better)."""
    if scorer == "box":
        [(_, dist)] = box_distances([query], params, alpha, norm)
        return dist[0]
    if scorer == "ptranse":
        return ptranse_distances(*dag_to_path(query.dag), params)
    raise ValidationError(f"unknown scorer {scorer!r}")


def ranks_from_distances(
    dist: np.ndarray, hard: frozenset[int], answers_full: frozenset[int], raw: bool = False
) -> dict[int, float]:
    """Rank of each hard answer: 1 + competitors strictly closer + half the
    competitors at the same distance. Filtered mode drops every known answer
    from the competitor pool; raw mode drops only the ranked entity.

    One sort of the pool and two binary searches per answer count the closer
    and the tied competitors; a ranked entity that is itself in the pool is
    taken out of its own tie count. Distances must not be NaN.
    """
    pool = np.ones(dist.shape[0], dtype=bool)
    if not raw:
        pool[list(answers_full)] = False
    competitors = dist[pool]
    competitors.sort()
    answers = np.array(sorted(hard), dtype=np.intp)
    da = dist[answers]
    better = competitors.searchsorted(da, "left")
    tied = competitors.searchsorted(da, "right") - better - pool[answers]
    return dict(zip(answers.tolist(), (1.0 + better + 0.5 * tied).tolist()))


def query_ranks(
    queries: list[GeneratedQuery],
    params,
    scorer: str = "box",
    alpha: float = 0.02,
    norm: str = "l1",
    raw: bool = False,
) -> list[dict[int, float]]:
    """``rank_answers`` of every query, in the list's order; the box scorer
    scores the list by shape through ``box_distances``."""
    if scorer != "box":
        return [rank_answers(q, params, scorer, alpha, norm, raw) for q in queries]
    ranks: list = [None] * len(queries)
    for idxs, dists in box_distances(queries, params, alpha, norm):
        for i, dist in zip(idxs, dists):
            q = queries[i]
            ranks[i] = ranks_from_distances(dist, q.hard_answers, q.answers_full, raw)
    return ranks


def rank_answers(
    query: GeneratedQuery,
    params,
    scorer: str = "box",
    alpha: float = 0.02,
    norm: str = "l1",
    raw: bool = False,
) -> dict[int, float]:
    """Filtered (or raw) ranks of the query's hard answers."""
    dist = query_distances(query, params, scorer, alpha, norm)
    return ranks_from_distances(dist, query.hard_answers, query.answers_full, raw)


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


def metrics_report(
    queries: list[GeneratedQuery],
    params,
    scorer: str = "box",
    alpha: float = 0.02,
    norm: str = "l1",
    raw: bool = False,
) -> dict:
    """Aggregate H@1/3/10 and MRR over every hard answer of one query batch."""
    if not queries:
        raise ValidationError("no queries to evaluate")
    qtypes = {q.qtype for q in queries}
    all_ranks = [
        r for ranks in query_ranks(queries, params, scorer, alpha, norm, raw)
        for r in ranks.values()
    ]
    return {
        "scorer": scorer,
        "query_type": qtypes.pop() if len(qtypes) == 1 else "mixed",
        "H@1": hits_at_k(all_ranks, 1),
        "H@3": hits_at_k(all_ranks, 3),
        "H@10": hits_at_k(all_ranks, 10),
        "MRR": mrr(all_ranks),
        "n_queries": len(queries),
    }


# ---------------------------------------------------------------------------
# query (de)serialization


def query_record(q: GeneratedQuery, kg: KnowledgeGraph) -> dict:
    return {
        "type": q.qtype,
        "dag": {
            "anchors": [[n, kg.entity_ids[e]] for n, e in q.dag.anchors],
            "edges": [
                [e.src, e.dst, kg.relation_ids[e.relation], e.inverse] for e in q.dag.edges
            ],
            "nodes": [[n, kind.value] for n, kind in q.dag.nodes],
            "answer_node": q.dag.answer_node,
        },
        "answers_train": sorted(kg.entity_ids[a] for a in q.answers_train),
        "answers_full": sorted(kg.entity_ids[a] for a in q.answers_full),
    }


def record_to_query(rec: dict, kg: KnowledgeGraph) -> GeneratedQuery:
    """A query from its ``query_record``: the DAG must be valid (checked once
    per shape) and be the shape that ``generate_queries`` gives the
    record's type."""
    try:
        dag = QueryDag(
            anchors=tuple((int(n), kg.entity_index[e]) for n, e in rec["dag"]["anchors"]),
            edges=tuple(
                Edge(int(s), int(d), kg.relation_index[r], bool(i))
                for s, d, r, i in rec["dag"]["edges"]
            ),
            nodes=tuple((int(n), NodeKind(k)) for n, k in rec["dag"]["nodes"]),
            answer_node=int(rec["dag"]["answer_node"]),
        )
        q = GeneratedQuery(
            rec["type"],
            dag,
            frozenset(kg.entity_index[e] for e in rec["answers_train"]),
            frozenset(kg.entity_index[e] for e in rec["answers_full"]),
        )
        shape = dag_shape(dag)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad query record: {exc}") from exc
    compile_plan(shape)
    if not isinstance(q.qtype, str) or q.qtype not in TYPE_SHAPES:
        raise ParseError(f"unknown query type {q.qtype!r}")
    if shape != TYPE_SHAPES[q.qtype]:
        raise ParseError(f"the DAG is not the shape of a {q.qtype} query")
    q.validate()
    return q


def save_queries(queries: list[GeneratedQuery], kg: KnowledgeGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(json.dumps(query_record(q, kg)) + "\n")


def load_queries(path: str, kg: KnowledgeGraph) -> list[GeneratedQuery]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(record_to_query(json.loads(line), kg))
            except (json.JSONDecodeError, ValidationError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return out


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


def build_grid_kg(
    width: int = 20,
    height: int = 10,
    seed: int = 0,
    fractions: tuple[float, float, float] = (0.85, 0.05, 0.10),
) -> KnowledgeGraph:
    """Deterministic translation-structured KG on a width x height grid.

    Every relation moves a cell by one of its displacement vectors (edges
    leaving the grid are dropped), so each relation is representable as a
    translation with a bounded spread, learnable by construction. Edges are
    shuffled with the seed and split by the given fractions.
    """
    if width < 3 or height < 3:
        raise ValidationError("grid must be at least 3x3")
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9 or min(fractions) <= 0:
        raise ValidationError("fractions must be three positive numbers summing to 1")
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
    n_valid = int(fractions[1] * len(edges))
    n_test = int(fractions[2] * len(edges))
    n_train = len(edges) - n_valid - n_test
    parts = (shuffled[:n_train], shuffled[n_train : n_train + n_valid], shuffled[n_train + n_valid :])
    kg = KnowledgeGraph(entity_ids, relation_ids, dict(zip(SPLITS, map(_id_rows, parts))))
    kg.validate()
    return kg
