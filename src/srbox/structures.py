"""The four elementary knowledge structures and their conversion to query DAGs.

From a deduplicated triplet set we mine:

  * SimpleTriplet      -- a single (h, r, t)
  * TwoStepPath        -- (a, r1, b), (b, r2, c) with a != c
  * OutwardIntersect   -- (a, r1, b), (a, r2, c): shared head, distinct tails
  * InwardIntersect    -- (a, r1, c), (b, r2, c): shared tail, distinct heads

Each becomes a rooted query DAG with a designated answer entity: the tail
for a simple triplet, the last tail for a path (the intermediate entity is
removed), and the shared entity for the intersected patterns. The outward
pattern's shared head is only reachable from the tails by walking edges
backwards, so its DAG uses inverse-direction projections.

A QueryDag is a DAG over integer node ids. Anchor nodes hold entities and
have no incoming edges; every other node combines its incoming edges, each
of which applies one relation projection (forward or inverse) to its source
node's value. Node kinds: a projection node has exactly one incoming edge,
intersection and union nodes at least two.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from srbox.corpus import Sequence, Triplet
from srbox.errors import ValidationError


class StructureKind(str, Enum):
    SIMPLE = "simple"
    PATH = "path"
    OUTWARD = "outward"
    INWARD = "inward"


@dataclass(frozen=True)
class KnowledgeStructure:
    kind: StructureKind
    triplets: tuple[Triplet, ...]

    def keys(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(t.key() for t in self.triplets)


class NodeKind(str, Enum):
    PROJECTION = "projection"
    INTERSECTION = "intersection"
    UNION = "union"


@dataclass(frozen=True)
class Edge:
    """One relation projection from ``src``'s value into node ``dst``."""

    src: int
    dst: int
    relation: int
    inverse: bool = False


@dataclass(frozen=True)
class QueryDag:
    anchors: tuple[tuple[int, int], ...]  # (node id, entity id)
    edges: tuple[Edge, ...]
    nodes: tuple[tuple[int, NodeKind], ...]  # non-anchor nodes
    answer_node: int

    def incoming(self) -> dict[int, list[Edge]]:
        by_dst: dict[int, list[Edge]] = defaultdict(list)
        for e in self.edges:
            by_dst[e.dst].append(e)
        return dict(by_dst)


def topological_order(dag: QueryDag) -> list[int]:
    """Node ids in dependency order; raises ValidationError on a cycle."""
    node_ids = [n for n, _ in dag.anchors] + [n for n, _ in dag.nodes]
    indeg = {n: 0 for n in node_ids}
    out: dict[int, list[int]] = defaultdict(list)
    for e in dag.edges:
        if e.src not in indeg or e.dst not in indeg:
            raise ValidationError(f"edge {e.src}->{e.dst} references an undeclared node")
        indeg[e.dst] += 1
        out[e.src].append(e.dst)
    ready = deque(sorted(n for n, d in indeg.items() if d == 0))
    order = []
    while ready:
        n = ready.popleft()
        order.append(n)
        for m in sorted(out[n]):
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    if len(order) != len(node_ids):
        raise ValidationError("query DAG contains a cycle")
    return order


def validate_dag(dag: QueryDag) -> list[int]:
    """Check the structural invariants every query DAG must satisfy; returns
    the node ids in dependency order."""
    anchor_ids = {n for n, _ in dag.anchors}
    kinds = dict(dag.nodes)
    if anchor_ids & kinds.keys():
        raise ValidationError("a node cannot be both anchor and operator")
    if len(anchor_ids) + len(kinds) < len(dag.anchors) + len(dag.nodes):
        ids = [n for n, _ in dag.anchors] + [n for n, _ in dag.nodes]
        repeated = next(n for i, n in enumerate(ids) if n in ids[:i])
        raise ValidationError(f"node {repeated} is declared twice")
    if dag.answer_node not in kinds and dag.answer_node not in anchor_ids:
        raise ValidationError("answer node is not a node of the DAG")
    order = topological_order(dag)  # also rejects cycles
    indeg = Counter(e.dst for e in dag.edges)
    for n, kind in dag.nodes:
        deg = indeg[n]
        if kind is NodeKind.PROJECTION and deg != 1:
            raise ValidationError(f"projection node {n} has in-degree {deg}")
        if kind in (NodeKind.INTERSECTION, NodeKind.UNION) and deg < 2:
            raise ValidationError(f"{kind.value} node {n} has in-degree {deg} < 2")
    for n in anchor_ids:
        if indeg[n]:
            raise ValidationError(f"anchor node {n} has incoming edges")
    # every operator has an input and there is no cycle, so every node is reachable from an anchor
    return order


def dag_shape(dag: QueryDag) -> tuple:
    """The DAG with its anchor entities and relation ids left out: the anchor
    node ids, each edge as (src, dst, inverse) in order, the operator nodes
    with their kinds, and the answer node. Queries of one shape share a
    ``Plan``."""
    return (
        tuple(n for n, _ in dag.anchors),
        tuple((e.src, e.dst, e.inverse) for e in dag.edges),
        tuple(dag.nodes),
        dag.answer_node,
    )


@dataclass(frozen=True, eq=False)
class Plan:
    """One DAG shape, validated and compiled once.

    ``steps`` holds each operator node in dependency order as (node, whether
    it intersects, incoming edge slots, disjunct layout); a slot indexes
    ``edges``. The layout gives each of the node's disjuncts its (edge slot,
    source disjunct) pairs: one disjunct per combination of the inputs'
    disjuncts at an intersection, per input disjunct elsewhere. ``boxalg``'s
    walks read the layouts, ``evalgen``'s answer oracle and chain scorer the
    slots. Plans compare and hash by identity (one per cached shape).
    """

    anchors: tuple[int, ...]  # anchor node ids, in the DAG's anchor order
    edges: tuple[tuple[int, int, bool], ...]  # (src, dst, inverse) per edge slot
    steps: tuple[tuple[int, bool, tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]], ...]
    answer_node: int


@lru_cache(maxsize=256)
def compile_plan(shape: tuple) -> Plan:
    """Validate a ``dag_shape`` and compile it; cached, so each shape is
    validated and laid out once however many queries share it."""
    anchor_nodes, edges, nodes, answer = shape
    skeleton = dag_of(shape, [0] * len(anchor_nodes), [0] * len(edges))
    kinds = dict(nodes)
    width = {n: 1 for n in anchor_nodes}  # disjuncts per node
    steps = []
    for n in validate_dag(skeleton):
        if n in width:
            continue
        slots = tuple(i for i, (_, dst, _) in enumerate(edges) if dst == n)
        ranges = [range(width[edges[i][0]]) for i in slots]
        intersects = kinds[n] is NodeKind.INTERSECTION
        if intersects:
            layout = tuple(tuple(zip(slots, combo)) for combo in itertools.product(*ranges))
        else:
            layout = tuple(((i, j),) for i, js in zip(slots, ranges) for j in js)
        width[n] = len(layout)
        steps.append((n, intersects, slots, layout))
    return Plan(anchor_nodes, edges, tuple(steps), answer)


def plan_of(dag: QueryDag) -> Plan:
    """The compiled plan of a DAG's shape (validates the DAG)."""
    return compile_plan(dag_shape(dag))


def query_ids(dag: QueryDag) -> tuple[list[int], list[int]]:
    """The entity id of each anchor slot and the relation id of each edge
    slot of a DAG's ``Plan``: what the DAG holds beyond its shape."""
    return [e for _, e in dag.anchors], [e.relation for e in dag.edges]


def dag_of(shape: tuple, anchors: list[int], relations: list[int]) -> QueryDag:
    """The DAG of a ``dag_shape`` whose anchor slots hold ``anchors`` and
    whose edge slots hold ``relations``: the inverse of ``dag_shape`` and
    ``query_ids``."""
    anchor_nodes, edges, nodes, answer = shape
    return QueryDag(
        tuple(zip(anchor_nodes, anchors, strict=True)),
        tuple(Edge(s, t, r, inverse) for (s, t, inverse), r in zip(edges, relations, strict=True)),
        nodes,
        answer,
    )


def chain_dag(anchor: int, relations: list[tuple[int, bool]]) -> QueryDag:
    """A 1p/2p/3p-style chain: anchor, then one projection per relation."""
    if not relations:
        raise ValidationError("chain query needs at least one relation")
    edges = []
    nodes = []
    for i, (rel, inv) in enumerate(relations):
        edges.append(Edge(src=i, dst=i + 1, relation=rel, inverse=inv))
        nodes.append((i + 1, NodeKind.PROJECTION))
    return QueryDag(
        anchors=((0, anchor),),
        edges=tuple(edges),
        nodes=tuple(nodes),
        answer_node=len(relations),
    )


def merge_dag(
    branches: list[tuple[int, int, bool]],
    kind: NodeKind = NodeKind.INTERSECTION,
    hops: list[tuple[int, bool]] = (),
) -> QueryDag:
    """Anchored branches (entity, relation, inverse) meeting at one
    intersection or union node, then a chain of projections (relation,
    inverse) from it: 2i/3i, 2u, and ip/up with one hop."""
    if len(branches) < 2:
        raise ValidationError(f"{kind.value} query needs at least two branches")
    n = len(branches)
    anchors = [(i, ent) for i, (ent, _, _) in enumerate(branches)]
    edges = [Edge(i, n, rel, inv) for i, (_, rel, inv) in enumerate(branches)]
    nodes = [(n, kind)]
    for i, (rel, inv) in enumerate(hops, start=n):
        edges.append(Edge(i, i + 1, rel, inv))
        nodes.append((i + 1, NodeKind.PROJECTION))
    return QueryDag(tuple(anchors), tuple(edges), tuple(nodes), answer_node=n + len(hops))


def mine_structures(triplets: list[Triplet] | tuple[Triplet, ...]) -> list[KnowledgeStructure]:
    """Enumerate every elementary structure in a triplet set.

    Input triplets are treated as a set keyed on (head, relation, tail).
    Output is grouped by kind (simple, path, outward, inward) and sorted by
    the constituent triplet keys within each group, so it is deterministic
    regardless of input order. The facts are deduplicated and sorted first,
    so simple triplets, paths (first fact, then the facts leaving its tail)
    and outward pairs (head groups in order, each pair in group order) come
    out sorted; only inward pairs need a sort, on the facts' positions.
    """
    by_key: dict[tuple[int, int, int], Triplet] = {}
    for t in triplets:
        by_key.setdefault(t.key(), t)
    facts = [by_key[k] for k in sorted(by_key)]

    out = [KnowledgeStructure(StructureKind.SIMPLE, (t,)) for t in facts]

    by_head: dict[int, list[Triplet]] = defaultdict(list)
    by_tail: dict[int, list[int]] = defaultdict(list)  # positions in ``facts``
    for i, t in enumerate(facts):
        by_head[t.head].append(t)
        by_tail[t.tail].append(i)

    path = StructureKind.PATH
    for t1 in facts:
        for t2 in by_head.get(t1.tail, ()):
            if t1.head != t2.tail:  # also rules out t2 is t1, which is a self-loop
                out.append(KnowledgeStructure(path, (t1, t2)))

    outward = StructureKind.OUTWARD
    for group in by_head.values():
        for t1, t2 in itertools.combinations(group, 2):
            if t1.tail != t2.tail:
                out.append(KnowledgeStructure(outward, (t1, t2)))

    inward = sorted(
        (i, j)
        for group in by_tail.values()
        for i, j in itertools.combinations(group, 2)
        if facts[i].head != facts[j].head
    )
    out.extend(KnowledgeStructure(StructureKind.INWARD, (facts[i], facts[j])) for i, j in inward)
    return out


def build_query(structure: KnowledgeStructure) -> tuple[QueryDag, int]:
    """Turn a structure into (query DAG, answer entity).

    Simple triplet: anchor head, one forward projection; answer = tail.
    Path: anchor first head, two chained forward projections; the
    intermediate entity does not appear in the DAG; answer = last tail.
    Inward: both heads anchor forward projections into an intersection;
    answer = shared tail. Outward: both tails anchor inverse projections
    into an intersection; answer = shared head.
    """
    kind = structure.kind
    ts = sorted(structure.triplets, key=Triplet.key)
    if kind is StructureKind.SIMPLE:
        (t,) = ts
        return chain_dag(t.head, [(t.relation, False)]), t.tail
    if kind is StructureKind.PATH:
        t1, t2 = structure.triplets  # order is semantic: t1.tail == t2.head
        if t1.tail != t2.head:
            raise ValidationError("path structure triplets do not chain")
        dag = chain_dag(t1.head, [(t1.relation, False), (t2.relation, False)])
        return dag, t2.tail
    if kind is StructureKind.INWARD:
        t1, t2 = ts
        if t1.tail != t2.tail:
            raise ValidationError("inward structure triplets do not share a tail")
        dag = merge_dag([(t1.head, t1.relation, False), (t2.head, t2.relation, False)])
        return dag, t1.tail
    if kind is StructureKind.OUTWARD:
        t1, t2 = ts
        if t1.head != t2.head:
            raise ValidationError("outward structure triplets do not share a head")
        dag = merge_dag([(t1.tail, t1.relation, True), (t2.tail, t2.relation, True)])
        return dag, t1.head
    raise ValidationError(f"unknown structure kind {kind!r}")


def sample_training_pair(
    seq: Sequence, rng: np.random.Generator
) -> tuple[tuple[QueryDag, int], tuple[QueryDag, int] | None] | None:
    """Draw one simple and (when available) one complex query from a sequence.

    The simple structure is uniform over the sequence's simple triplets; the
    complex one is uniform over the union of paths and both intersected
    patterns. Returns None when the sequence has no triplets at all.
    """
    simples, complexes = split_structures(mine_structures(seq.triplets))
    return sample_pair_from_structures(simples, complexes, rng)


def split_structures(
    structures: list[KnowledgeStructure],
) -> tuple[list[KnowledgeStructure], list[KnowledgeStructure]]:
    """The simple and the complex structures, each in their given order."""
    simples = [s for s in structures if s.kind is StructureKind.SIMPLE]
    complexes = [s for s in structures if s.kind is not StructureKind.SIMPLE]
    return simples, complexes


def sample_pair_from_structures(
    simples: list[KnowledgeStructure],
    complexes: list[KnowledgeStructure],
    rng: np.random.Generator,
) -> tuple[tuple[QueryDag, int], tuple[QueryDag, int] | None] | None:
    """sample_training_pair over pre-mined structures, split once by
    ``split_structures`` (lets callers cache mining and the split)."""
    if not simples:
        return None
    simple = simples[int(rng.integers(len(simples)))]
    complex_pick = None
    if complexes:
        complex_pick = complexes[int(rng.integers(len(complexes)))]
    simple_q = build_query(simple)
    complex_q = build_query(complex_pick) if complex_pick is not None else None
    return simple_q, complex_q
