"""Tests for structure mining, query construction, and pair sampling.

Mining is checked against an independent brute-force enumerator that loops
over all ordered triplet pairs, written from the structure definitions alone,
and its order against a reference that sorts each kind after enumerating it.
"""

import itertools
from collections import defaultdict, deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srbox.corpus import Sequence, Triplet
from srbox.errors import ValidationError
from srbox.evalgen import TYPE_SHAPES, brute_force_answers
from srbox.structures import (
    Edge,
    KnowledgeStructure,
    NodeKind,
    QueryDag,
    StructureKind,
    build_query,
    chain_dag,
    dag_of,
    dag_shape,
    merge_dag,
    mine_structures,
    query_ids,
    sample_training_pair,
    topological_order,
    validate_dag,
)


def brute_force_mine(triplets):
    """Reference enumerator: every pair, no index structures.

    Returns a set of (kind, normalized key tuple). Path keys keep their
    order (the chain direction is semantic); intersection pair keys are
    sorted so unordered pairs compare equal.
    """
    facts = {}
    for t in triplets:
        facts.setdefault(t.key(), t)
    keys = sorted(facts)
    out = set()
    for k in keys:
        out.add((StructureKind.SIMPLE, (k,)))
    for k1 in keys:
        for k2 in keys:
            if k1 == k2:
                continue
            h1, _, t1 = k1
            h2, _, t2 = k2
            if t1 == h2 and h1 != t2:
                out.add((StructureKind.PATH, (k1, k2)))
            if h1 == h2 and t1 != t2:
                out.add((StructureKind.OUTWARD, tuple(sorted((k1, k2)))))
            if t1 == t2 and h1 != h2:
                out.add((StructureKind.INWARD, tuple(sorted((k1, k2)))))
    return out


def normalize(structures):
    out = set()
    for s in structures:
        ks = s.keys()
        if s.kind in (StructureKind.OUTWARD, StructureKind.INWARD):
            ks = tuple(sorted(ks))
        out.add((s.kind, ks))
    return out


def trip(h, r, t, doc=0):
    return Triplet(h, r, t, doc)


def random_triplets(rng, n, n_entities, n_relations):
    out = []
    for _ in range(n):
        h = int(rng.integers(n_entities))
        t = int(rng.integers(n_entities))
        if h == t:
            continue
        out.append(trip(h, int(rng.integers(n_relations)), t))
    return out


FIXTURE = [trip(0, 0, 1), trip(1, 1, 2), trip(0, 2, 2)]  # A->B, B->C, A->C


def sorting_mine(triplets):
    """Reference order: each kind enumerated as mine_structures once did,
    then sorted on its triplets' keys (``KnowledgeStructure.keys``)."""
    by_key = {}
    for t in triplets:
        by_key.setdefault(t.key(), t)
    facts = [by_key[k] for k in sorted(by_key)]
    out = [KnowledgeStructure(StructureKind.SIMPLE, (t,)) for t in facts]
    by_head, by_tail = defaultdict(list), defaultdict(list)
    for t in facts:
        by_head[t.head].append(t)
        by_tail[t.tail].append(t)
    paths = [
        KnowledgeStructure(StructureKind.PATH, (t1, t2))
        for t1 in facts for t2 in by_head.get(t1.tail, ())
        if t2.key() != t1.key() and t1.head != t2.tail
    ]
    outward = [
        KnowledgeStructure(StructureKind.OUTWARD, (t1, t2))
        for group in by_head.values() for t1, t2 in itertools.combinations(group, 2)
        if t1.tail != t2.tail
    ]
    inward = [
        KnowledgeStructure(StructureKind.INWARD, (t1, t2))
        for group in by_tail.values() for t1, t2 in itertools.combinations(group, 2)
        if t1.head != t2.head
    ]
    for kind in (paths, outward, inward):
        out += sorted(kind, key=KnowledgeStructure.keys)
    return out


@st.composite
def triplet_lists(draw):
    """Triplets over a few ids in any order, with repeated keys (from
    different documents) and self-loops, which only a corpus file rules out."""
    n_entities = draw(st.integers(1, 8))
    ent = st.integers(0, n_entities - 1)
    one = st.builds(Triplet, ent, st.integers(0, 2), ent, st.integers(0, 2))
    return draw(st.lists(one, max_size=40))




class TestMineStructures:
    def test_empty(self):
        assert mine_structures([]) == []

    def test_three_triplet_fixture_counts(self):
        kinds = [s.kind for s in mine_structures(FIXTURE)]
        assert kinds.count(StructureKind.SIMPLE) == 3
        assert kinds.count(StructureKind.PATH) == 1
        assert kinds.count(StructureKind.OUTWARD) == 1
        assert kinds.count(StructureKind.INWARD) == 1

    def test_three_triplet_fixture_members(self):
        mined = normalize(mine_structures(FIXTURE))
        assert (StructureKind.PATH, ((0, 0, 1), (1, 1, 2))) in mined
        assert (StructureKind.OUTWARD, ((0, 0, 1), (0, 2, 2))) in mined
        assert (StructureKind.INWARD, ((0, 2, 2), (1, 1, 2))) in mined

    def test_duplicates_collapse(self):
        once = mine_structures([trip(0, 0, 1)])
        twice = mine_structures([trip(0, 0, 1), trip(0, 0, 1)])
        assert normalize(once) == normalize(twice)
        assert len(twice) == 1

    def test_cycle_pair_is_not_a_path(self):
        # A->B and B->A chain positionally but the walk returns to its
        # start, which the path definition excludes.
        mined = [s.kind for s in mine_structures([trip(0, 0, 1), trip(1, 1, 0)])]
        assert StructureKind.PATH not in mined

    def test_same_relation_intersection_kept(self):
        mined = normalize(mine_structures([trip(0, 5, 1), trip(0, 5, 2)]))
        assert (StructureKind.OUTWARD, ((0, 5, 1), (0, 5, 2))) in mined

    def test_parallel_relations_not_intersections(self):
        # Same head AND same tail: neither outward (tails equal) nor
        # inward (heads equal), but both path directions are cycles too.
        mined = [s.kind for s in mine_structures([trip(0, 0, 1), trip(0, 1, 1)])]
        assert mined == [StructureKind.SIMPLE, StructureKind.SIMPLE]

    def test_deterministic_order(self):
        rng = np.random.default_rng(7)
        ts = random_triplets(rng, 60, 12, 4)
        a = mine_structures(ts)
        b = mine_structures(list(reversed(ts)))
        assert [(s.kind, s.keys()) for s in a] == [(s.kind, s.keys()) for s in b]

    @settings(max_examples=300, deadline=None)
    @given(triplet_lists())
    def test_same_kinds_members_and_order_as_the_sorting_reference(self, triplets):
        got, want = mine_structures(triplets), sorting_mine(triplets)
        assert [s.kind for s in got] == [s.kind for s in want]
        assert [s.triplets for s in got] == [s.triplets for s in want]
        # the very triplet objects first given for each key
        assert all(a is b for s, r in zip(got, want) for a, b in zip(s.triplets, r.triplets))

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            ts = random_triplets(rng, int(rng.integers(0, 120)), 15, 5)
            assert normalize(mine_structures(ts)) == brute_force_mine(ts)


class TestBuildQuery:
    def test_simple(self):
        dag, answer = build_query(mine_structures([trip(4, 2, 9)])[0])
        assert answer == 9
        assert dict(dag.anchors) == {0: 4}
        (edge,) = dag.edges
        assert (edge.relation, edge.inverse) == (2, False)
        validate_dag(dag)

    def test_path_removes_intermediate(self):
        structures = mine_structures(FIXTURE)
        (path,) = [s for s in structures if s.kind is StructureKind.PATH]
        dag, answer = build_query(path)
        assert answer == 2
        assert dict(dag.anchors) == {0: 0}
        # Entity B (id 1) appears nowhere in the DAG.
        assert 1 not in dict(dag.anchors).values()
        assert [e.relation for e in sorted(dag.edges, key=lambda e: e.dst)] == [0, 1]

    def test_inward_forward_edges(self):
        structures = mine_structures(FIXTURE)
        (inward,) = [s for s in structures if s.kind is StructureKind.INWARD]
        dag, answer = build_query(inward)
        assert answer == 2
        assert set(dict(dag.anchors).values()) == {0, 1}
        assert all(not e.inverse for e in dag.edges)
        kinds = dict(dag.nodes)
        assert kinds[dag.answer_node] is NodeKind.INTERSECTION

    def test_outward_inverse_edges(self):
        structures = mine_structures(FIXTURE)
        (outward,) = [s for s in structures if s.kind is StructureKind.OUTWARD]
        dag, answer = build_query(outward)
        assert answer == 0
        assert set(dict(dag.anchors).values()) == {1, 2}
        assert all(e.inverse for e in dag.edges)

    def test_pure_function(self):
        s = mine_structures(FIXTURE)[3]
        assert build_query(s) == build_query(s)

    def test_answer_reachable_by_brute_force(self):
        # Executing any built query over its source triplet set must yield
        # an answer set containing the designated answer.
        rng = np.random.default_rng(42)
        for _ in range(25):
            ts = random_triplets(rng, 40, 10, 3)
            edges = [t.key() for t in ts]
            for s in mine_structures(ts):
                dag, answer = build_query(s)
                validate_dag(dag)
                assert answer in brute_force_answers(dag, edges)


def make_seq(triplets):
    ents = sorted({t.head for t in triplets} | {t.tail for t in triplets})
    return Sequence(0, 0, 64, (0,), tuple(triplets), tuple(ents))


class TestSampleTrainingPair:
    def test_no_triplets_skips(self):
        assert sample_training_pair(make_seq([]), np.random.default_rng(0)) is None

    def test_single_triplet_no_complex(self):
        pair = sample_training_pair(make_seq([trip(0, 0, 1)]), np.random.default_rng(0))
        (simple, complex_part) = pair
        assert complex_part is None
        assert simple[1] == 1

    def test_deterministic_under_seed(self):
        seq = make_seq(FIXTURE)
        a = sample_training_pair(seq, np.random.default_rng(9))
        b = sample_training_pair(seq, np.random.default_rng(9))
        assert a == b

    def test_uniform_over_choices(self):
        # The fixture has 3 simples and 3 complex structures; chi-squared
        # goodness of fit against uniform on 10000 draws, df=2, must stay
        # under the 0.01 critical value 9.21.
        seq = make_seq(FIXTURE)
        rng = np.random.default_rng(1234)
        simple_counts = {}
        complex_counts = {}
        n = 10000
        for _ in range(n):
            (simple, complex_part) = sample_training_pair(seq, rng)
            s_dag, s_answer = simple
            s_key = (s_dag.anchors, s_dag.edges[0].relation, s_answer)
            simple_counts[s_key] = simple_counts.get(s_key, 0) + 1
            c_dag, c_answer = complex_part
            key = (c_answer, len(c_dag.anchors), any(e.inverse for e in c_dag.edges))
            complex_counts[key] = complex_counts.get(key, 0) + 1
        assert len(simple_counts) == 3
        assert len(complex_counts) == 3
        for counts in (simple_counts, complex_counts):
            expected = n / len(counts)
            chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
            assert chi2 < 9.21

    def test_complex_drawn_from_union_of_kinds(self):
        # With many draws every complex kind must appear.
        seq = make_seq(FIXTURE)
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(200):
            (_, complex_part) = sample_training_pair(seq, rng)
            dag, answer = complex_part
            n_anchors = len(dag.anchors)
            has_inverse = any(e.inverse for e in dag.edges)
            seen.add((n_anchors, has_inverse))
        assert seen == {(1, False), (2, False), (2, True)}


@st.composite
def small_dags(draw):
    """A DAG over node ids 0..5 grown in a random id order, then mostly given
    one fault: a repeated or shared id, an extra edge (to an undeclared node,
    into an anchor, closing a cycle, or one too many), a missing edge, or an
    answer node outside the DAG."""
    ids = draw(st.permutations(range(6)))
    n_anchors = draw(st.integers(1, 3))
    anchors = [(n, draw(st.integers(0, 3))) for n in ids[:n_anchors]]
    nodes, edges = [], []
    for i in range(n_anchors, draw(st.integers(n_anchors, 6))):
        kind = draw(st.sampled_from(list(NodeKind)))
        for _ in range(1 if kind is NodeKind.PROJECTION else draw(st.integers(2, 3))):
            src = draw(st.sampled_from(ids[:i]))
            edges.append(Edge(src, ids[i], draw(st.integers(0, 2)), draw(st.booleans())))
        nodes.append((ids[i], kind))
    answer = nodes[-1][0] if nodes else anchors[0][0]
    any_id = st.integers(0, 6)
    fault = draw(st.sampled_from(["none", "repeat", "repeat", "edge", "edge", "drop", "answer"]))
    if fault == "repeat":
        n = draw(st.sampled_from(ids[: n_anchors + len(nodes)]))
        if draw(st.booleans()):
            anchors.append((n, draw(st.integers(0, 3))))
        else:
            nodes.append((n, draw(st.sampled_from(list(NodeKind)))))
    elif fault == "edge":
        edges.append(Edge(draw(any_id), draw(any_id), 0, False))
    elif fault == "drop" and edges:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    elif fault == "answer":
        answer = draw(any_id)
    return QueryDag(
        tuple(anchors), tuple(draw(st.permutations(edges))), tuple(draw(st.permutations(nodes))), answer
    )


# the validator as it was before it returned the dependency order, verbatim
# but for names: the reference for ``test_same_verdicts_as_the_previous_validator``


def _prev_topological_order(dag):
    node_ids = [n for n, _ in dag.anchors] + [n for n, _ in dag.nodes]
    indeg = {n: 0 for n in node_ids}
    out = defaultdict(list)
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


def _prev_validate_dag(dag):
    anchor_ids = {n for n, _ in dag.anchors}
    kinds = dict(dag.nodes)
    if anchor_ids & kinds.keys():
        raise ValidationError("a node cannot be both anchor and operator")
    if dag.answer_node not in kinds and dag.answer_node not in anchor_ids:
        raise ValidationError("answer node is not a node of the DAG")
    order = _prev_topological_order(dag)
    incoming = dag.incoming()
    for n, kind in dag.nodes:
        deg = len(incoming.get(n, ()))
        if kind is NodeKind.PROJECTION and deg != 1:
            raise ValidationError(f"projection node {n} has in-degree {deg}")
        if kind in (NodeKind.INTERSECTION, NodeKind.UNION) and deg < 2:
            raise ValidationError(f"{kind.value} node {n} has in-degree {deg} < 2")
    for n in anchor_ids:
        if incoming.get(n):
            raise ValidationError(f"anchor node {n} has incoming edges")
    reachable = set(anchor_ids)
    for n in order:
        if n in reachable:
            continue
        if any(e.src in reachable for e in incoming.get(n, ())):
            reachable.add(n)
    if set(kinds) - reachable:
        raise ValidationError("DAG has nodes unreachable from any anchor")
    return order


class TestDagValidation:
    def test_rejects_intersection_in_degree_one(self):
        from srbox.structures import Edge, QueryDag

        dag = QueryDag(
            anchors=((0, 3),),
            edges=(Edge(0, 1, 0, False),),
            nodes=((1, NodeKind.INTERSECTION),),
            answer_node=1,
        )
        with pytest.raises(ValidationError):
            validate_dag(dag)

    @pytest.mark.parametrize("anchors, nodes, repeated", [
        (((0, 5), (0, 6)), ((1, NodeKind.INTERSECTION),), 0),
        (((0, 5),), ((1, NodeKind.PROJECTION), (1, NodeKind.PROJECTION)), 1),
    ], ids=["anchor", "operator"])
    def test_rejects_repeated_node_id(self, anchors, nodes, repeated):
        dag = QueryDag(anchors, (Edge(0, 1, 0), Edge(0, 1, 1)), nodes, answer_node=1)
        with pytest.raises(ValidationError, match=f"^node {repeated} is declared twice$"):
            validate_dag(dag)

    def test_returns_dependency_order(self):
        dag = QueryDag(
            anchors=((7, 0),),
            edges=(Edge(3, 1, 0), Edge(7, 3, 1)),
            nodes=((1, NodeKind.PROJECTION), (3, NodeKind.PROJECTION)),
            answer_node=1,
        )
        assert validate_dag(dag) == [7, 3, 1] == topological_order(dag)

    @settings(max_examples=400, deadline=None)
    @given(small_dags())
    def test_same_verdicts_as_the_previous_validator(self, dag):
        try:
            expect = ("accept", _prev_validate_dag(dag))
        except ValidationError as exc:
            expect = ("reject", str(exc))
        try:
            got = ("accept", validate_dag(dag))
        except ValidationError as exc:
            got = ("reject", str(exc))
        ids = [n for n, _ in dag.anchors] + [n for n, _ in dag.nodes]
        if len(set(ids)) < len(ids) and not {n for n, _ in dag.anchors} & dict(dag.nodes).keys():
            assert expect[0] == got[0] == "reject"
            assert got[1].endswith("is declared twice")
        else:
            assert got == expect


ENT = st.integers(0, 50)
REL = st.integers(0, 9)
HOP = st.tuples(REL, st.booleans())


@st.composite
def built_dags(draw):
    """A DAG from one of the builders: a chain, a merge of either kind with
    up to two hops, a pi query, or the query of a mined structure."""
    builder = draw(st.sampled_from(["chain", "merge", "pi", "mined"]))
    if builder == "chain":
        return chain_dag(draw(ENT), draw(st.lists(HOP, min_size=1, max_size=4)))
    if builder == "merge":
        branches = draw(st.lists(st.tuples(ENT, REL, st.booleans()), min_size=2, max_size=4))
        kind = draw(st.sampled_from([NodeKind.INTERSECTION, NodeKind.UNION]))
        return merge_dag(branches, kind, draw(st.lists(HOP, max_size=2)))
    if builder == "pi":
        return dag_of(TYPE_SHAPES["pi"], [draw(ENT), draw(ENT)], [draw(REL) for _ in range(3)])
    structures = mine_structures(draw(triplet_lists()))
    assume(structures)
    return build_query(draw(st.sampled_from(structures)))[0]


class TestDagOf:
    @settings(max_examples=300, deadline=None)
    @given(built_dags())
    def test_inverts_dag_shape_and_query_ids(self, dag):
        assert dag_of(dag_shape(dag), *query_ids(dag)) == dag

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(TYPE_SHAPES)), st.data())
    def test_fills_every_query_type_shape(self, qtype, data):
        shape = TYPE_SHAPES[qtype]
        anchors = data.draw(st.lists(ENT, min_size=len(shape[0]), max_size=len(shape[0])))
        relations = data.draw(st.lists(REL, min_size=len(shape[1]), max_size=len(shape[1])))
        dag = dag_of(shape, anchors, relations)
        assert dag_shape(dag) == shape
        assert query_ids(dag) == (anchors, relations)

    def test_ids_must_fill_every_slot(self):
        with pytest.raises(ValueError):
            dag_of(TYPE_SHAPES["2i"], [1], [0, 0])
