"""The sorted, lazily grouped ``EdgeIndex`` against the dict-of-tuples index
it replaced, kept here verbatim as the reference: every view on present and
absent keys, and the answer oracle on DAGs of all nine query shapes and of
other shapes (unions into intersections, unions of unions, diamonds)."""

import tracemalloc
from functools import cached_property

from hypothesis import given, settings
from hypothesis import strategies as st

from srbox.evalgen import TYPE_SHAPES, EdgeIndex, brute_force_answers, build_grid_kg
from srbox.structures import Edge, NodeKind, QueryDag, chain_dag, dag_of, merge_dag

# ---------------------------------------------------------------------------
# reference: the eager index, one dict of sorted tuples per map


def _grouped(pairs) -> dict:
    """key -> sorted tuple of the distinct values paired with it."""
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, set()).add(value)
    return {k: tuple(sorted(v)) for k, v in groups.items()}


class RefEdgeIndex:
    def __init__(self, edges) -> None:
        self.edges = list(edges)

    @cached_property
    def fwd(self):
        return _grouped(((h, r), t) for h, r, t in self.edges)

    @cached_property
    def rev(self):
        return _grouped(((t, r), h) for h, r, t in self.edges)

    @cached_property
    def out_adj(self):
        return _grouped((h, (r, t)) for h, r, t in self.edges)

    @cached_property
    def in_adj(self):
        return _grouped((t, (h, r)) for h, r, t in self.edges)

    def map_forward(self, sources, rel):
        out = set()
        for e in sources:
            out.update(self.fwd.get((e, rel), ()))
        return out

    def map_inverse(self, sources, rel):
        out = set()
        for e in sources:
            out.update(self.rev.get((e, rel), ()))
        return out

    def answers(self, dag):
        return self._answers_at(
            dag.answer_node, dict(dag.anchors), dict(dag.nodes), dag.incoming()
        )

    def _answers_at(self, n, anchors, kinds, incoming):
        if n in anchors:
            return {anchors[n]}
        pulled = []
        for e in incoming[n]:
            src = self._answers_at(e.src, anchors, kinds, incoming)
            pulled.append(
                self.map_inverse(src, e.relation) if e.inverse
                else self.map_forward(src, e.relation)
            )
        if kinds[n] is NodeKind.PROJECTION:
            return pulled[0]
        if kinds[n] is NodeKind.INTERSECTION:
            return set.intersection(*pulled)
        return set.union(*pulled)


def _probe_keys(n_e, n_r):
    """Every key each view could hold over the id ranges, plus one past
    each range: present and absent keys alike."""
    ents = range(n_e + 1)
    pairs = [(e, r) for e in ents for r in range(n_r + 1)]
    return {"fwd": pairs, "rev": pairs, "out_adj": list(ents), "in_adj": list(ents)}


@st.composite
def edge_lists(draw):
    n_e = draw(st.integers(1, 7))
    n_r = draw(st.sampled_from([1, 1, 2, 3]))
    edge = st.tuples(st.integers(0, n_e - 1), st.integers(0, n_r - 1), st.integers(0, n_e - 1))
    edges = draw(st.lists(edge, max_size=40))
    # repeat some edges (duplicates) and add self-loops
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    loops = draw(st.lists(st.integers(0, n_e - 1), max_size=3))
    edges += [(e, draw(st.integers(0, n_r - 1)), e) for e in loops]
    return draw(st.permutations(edges)), n_e, n_r


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_every_view(self, case):
        edges, n_e, n_r = case
        new, ref = EdgeIndex(edges), RefEdgeIndex(edges)
        reordered = EdgeIndex(list(reversed(edges)))
        for name, keys in _probe_keys(n_e, n_r).items():
            view, expect, other = getattr(new, name), getattr(ref, name), getattr(reordered, name)
            for key in keys:
                assert view.get(key) == expect.get(key) == other.get(key)
                assert view.get(key, "absent") == expect.get(key, "absent")

    def test_empty_edge_list(self):
        index = EdgeIndex([])
        for name, keys in _probe_keys(2, 2).items():
            view = getattr(index, name)
            assert [view.get(key) for key in keys] == [None] * len(keys)
            assert view.get(keys[0], "absent") == "absent"

    def test_views_of_other_indexes_differ(self):
        a = EdgeIndex([(0, 0, 1), (1, 0, 2)])
        assert a.fwd.get((1, 0)) == (2,) and EdgeIndex([(0, 0, 1)]).fwd.get((1, 0)) is None
        assert a.fwd.get((0, 0)) == (1,) and a.rev.get((0, 0)) is None
        assert a.out_adj.get(0) == ((0, 1),) and a.in_adj.get(0) is None
        assert EdgeIndex([(0, 0, 1), (0, 0, 1)]).fwd.get((0, 0)) == (1,)


def _nine_shape_dags(draw, n_e, n_r):
    """One DAG of each of the nine query shapes, with random anchors and
    relations, inverse hops included."""
    ent = st.integers(0, n_e)
    hop = st.tuples(st.integers(0, n_r), st.booleans())
    branch = st.tuples(ent, st.integers(0, n_r), st.booleans())
    return [
        chain_dag(draw(ent), [draw(hop)]),
        chain_dag(draw(ent), [draw(hop) for _ in range(2)]),
        chain_dag(draw(ent), [draw(hop) for _ in range(3)]),
        merge_dag([draw(branch) for _ in range(2)]),
        merge_dag([draw(branch) for _ in range(3)]),
        merge_dag([draw(branch) for _ in range(2)], NodeKind.INTERSECTION, [draw(hop)]),
        dag_of(TYPE_SHAPES["pi"], [draw(ent), draw(ent)], [draw(st.integers(0, n_r)) for _ in range(3)]),
        merge_dag([draw(branch) for _ in range(2)], NodeKind.UNION),
        merge_dag([draw(branch) for _ in range(2)], NodeKind.UNION, [draw(hop)]),
    ]


@st.composite
def graphs_with_queries(draw):
    edges, n_e, n_r = draw(edge_lists())
    return edges, _nine_shape_dags(draw, n_e, n_r)


class TestAnswers:
    @settings(max_examples=200, deadline=None)
    @given(graphs_with_queries())
    def test_answers_match_reference(self, case):
        edges, dags = case
        new, ref = EdgeIndex(edges), RefEdgeIndex(edges)
        for dag in dags:
            expect = ref.answers(dag)
            assert new.answers(dag) == expect
            assert brute_force_answers(dag, edges) == expect
            assert brute_force_answers(dag, new) == expect

    def test_grid_answers_match_reference(self):
        kg = build_grid_kg(8, 6, seed=2)
        edges = kg.all_edges()
        new, ref = EdgeIndex(edges), RefEdgeIndex(edges)
        for h, r, t in edges[:40]:
            for dag in (chain_dag(h, [(r, False), (r, True)]), chain_dag(t, [(r, True), (0, False)])):
                assert new.answers(dag) == ref.answers(dag)


# DAGs outside the nine shapes, as (anchor count, operator nodes in dependency
# order as (kind, source nodes)); anchors take ids 0.., operator j id count + j
U, I, P = NodeKind.UNION, NodeKind.INTERSECTION, NodeKind.PROJECTION
TEMPLATES = {
    "union-into-intersection": (3, [(U, (0, 1)), (I, (3, 2))]),
    "union-of-unions": (3, [(U, (0, 1)), (U, (3, 2)), (P, (4,))]),
    "intersection-of-unions": (4, [(U, (0, 1)), (U, (2, 3)), (I, (4, 5))]),
    "diamond": (1, [(P, (0,)), (P, (1,)), (P, (1,)), (I, (2, 3))]),
    "one-source-twice": (2, [(P, (0,)), (I, (2, 2, 1)), (U, (3, 2))]),
}


def _template_dag(draw, template, n_e, n_r):
    """A template's DAG with random anchors, relations and edge directions,
    its node ids relabelled by a random permutation (so they need not follow
    dependency order) and its edges shuffled."""
    n_anchors, ops = template
    label = draw(st.permutations(range(n_anchors + len(ops))))
    edges = [
        Edge(label[src], label[n_anchors + j], draw(st.integers(0, n_r)), draw(st.booleans()))
        for j, (_, sources) in enumerate(ops) for src in sources
    ]
    return QueryDag(
        tuple((label[i], draw(st.integers(0, n_e))) for i in range(n_anchors)),
        tuple(draw(st.permutations(edges))),
        tuple((label[n_anchors + j], kind) for j, (kind, _) in enumerate(ops)),
        answer_node=label[-1],
    )


def _grown_dag(draw, n_e, n_r):
    """A random DAG grown node by node in a random id order, each operator fed
    by earlier nodes; the answer node is any operator, so some nodes may feed
    nothing."""
    ids = draw(st.permutations(range(8)))
    n_anchors = draw(st.integers(1, 3))
    n_ops = draw(st.integers(1, 5))
    edges, nodes = [], []
    for i in range(n_anchors, n_anchors + n_ops):
        kind = draw(st.sampled_from([P, I, U]))
        for _ in range(1 if kind is P else draw(st.integers(2, 3))):
            src = draw(st.sampled_from(ids[:i]))
            edges.append(Edge(src, ids[i], draw(st.integers(0, n_r)), draw(st.booleans())))
        nodes.append((ids[i], kind))
    return QueryDag(
        tuple((n, draw(st.integers(0, n_e))) for n in ids[:n_anchors]),
        tuple(edges),
        tuple(nodes),
        answer_node=draw(st.sampled_from(nodes))[0],
    )


@st.composite
def graphs_with_other_dags(draw):
    edges, n_e, n_r = draw(edge_lists())
    dags = [_template_dag(draw, t, n_e, n_r) for t in TEMPLATES.values()]
    return edges, dags + [_grown_dag(draw, n_e, n_r) for _ in range(3)]


class TestAnswersBeyondNineShapes:
    @settings(max_examples=300, deadline=None)
    @given(graphs_with_other_dags())
    def test_answers_match_reference(self, case):
        edges, dags = case
        new, ref = EdgeIndex(edges), RefEdgeIndex(edges)
        for dag in dags:
            expect = ref.answers(dag)
            assert new.answers(dag) == expect
            assert brute_force_answers(dag, edges) == expect


class TestMemory:
    # an index of four eager dicts peaked at 23.6 MB for these calls; the
    # sorted, lazily grouped one peaks at 6.6 MB (x86-64, CPython 3.11, numpy
    # 2.4), so the bound is that with 1.5x headroom
    PEAK_BOUND = 9_900_000

    def test_index_and_lookups_stay_under_bound(self):
        edges = build_grid_kg(100, 50).all_edges()
        tracemalloc.start()
        try:
            index = EdgeIndex(edges)
            for i, (h, r, t) in enumerate(edges[:1000]):
                view, key = ((index.fwd, (h, r)), (index.rev, (t, r)),
                             (index.out_adj, h), (index.in_adj, t))[i % 4]
                assert view.get(key)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BOUND, f"peak {peak / 1e6:.1f} MB"
