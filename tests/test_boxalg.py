"""Tests for box algebra: projection, intersection, distances, DAG execution.

Gradient correctness of the full backward pass is covered by the
finite-difference checker in test_train; here the kernels are checked
against hand-computed values and structural properties.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from srbox import boxalg
from srbox.boxalg import (
    Box,
    IntersectionNet,
    check_arrays,
    distance,
    distance_backward,
    distance_batch,
    distance_with_cache,
    execute_query,
    execute_with_trace,
    intersect,
    net_random,
    project,
    sigmoid,
)
from srbox.errors import ValidationError
from srbox.params import OFFSET_MODES, init_random
from srbox.structures import (
    Edge,
    NodeKind,
    QueryDag,
    chain_dag,
    merge_dag,
    topological_order,
    validate_dag,
)


def random_box(rng, dim, scale=2.0):
    return Box(
        center=rng.uniform(-scale, scale, dim),
        offset=rng.uniform(0.0, 1.5, dim),
    )


def random_point(rng, box):
    """Half the time inside the box, half the time well outside."""
    if rng.random() < 0.5:
        u = rng.uniform(-0.999, 0.999, box.dim)
        return box.center + u * box.offset
    return box.center + rng.uniform(1.5, 4.0, box.dim) * np.where(
        rng.random(box.dim) < 0.5, -1.0, 1.0
    ) * (box.offset + 0.1)


class TestBoxBasics:
    def test_faces(self):
        b = Box(np.array([1.0, -2.0]), np.array([0.5, 1.0]))
        np.testing.assert_array_equal(b.bmax, [1.5, -1.0])
        np.testing.assert_array_equal(b.bmin, [0.5, -3.0])
        assert b.dim == 2

    def test_projection_translates_and_dilates(self):
        b = Box(np.array([1.0, 2.0]), np.array([0.1, 0.2]))
        out = project(b, (np.array([10.0, 20.0]), np.array([1.0, 2.0])))
        np.testing.assert_array_equal(out.center, [11.0, 22.0])
        np.testing.assert_array_equal(out.offset, [1.1, 2.2])

    def test_projection_commutes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            b = random_box(rng, 5)
            r1 = (rng.normal(size=5), rng.uniform(0, 1, 5))
            r2 = (rng.normal(size=5), rng.uniform(0, 1, 5))
            ab = project(project(b, r1), r2)
            ba = project(project(b, r2), r1)
            np.testing.assert_allclose(ab.center, ba.center, atol=1e-12)
            np.testing.assert_allclose(ab.offset, ba.offset, atol=1e-12)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_extreme_arguments_stay_finite(self):
        out = sigmoid(np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(out))
        assert out[0] >= 0.0 and out[1] <= 1.0

    def test_symmetry(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


class TestDistance:
    def test_hand_case_one_dim(self):
        b = Box(np.array([0.0]), np.array([1.0]))
        assert distance(np.array([2.0]), b, alpha=0.02).d == pytest.approx(1.02, abs=1e-15)
        assert distance(np.array([0.5]), b, alpha=0.02).d == pytest.approx(0.01, abs=1e-15)
        assert distance(np.array([-3.0]), b, alpha=0.02).d == pytest.approx(2.02, abs=1e-15)

    def test_hand_case_two_dim(self):
        b = Box(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        e = np.array([3.0, 1.0])
        d1 = distance(e, b, alpha=0.02, norm="l1")
        assert (d1.d_out, d1.d_in) == (2.0, 2.0)
        assert d1.d == pytest.approx(2.04, abs=1e-15)
        d2 = distance(e, b, alpha=0.02, norm="l2")
        assert d2.d_out == pytest.approx(2.0, abs=1e-15)
        assert d2.d_in == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_outer_distance_zero_iff_inside(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            b = random_box(rng, 4)
            e = random_point(rng, b)
            inside = bool(np.all(e >= b.bmin) and np.all(e <= b.bmax))
            assert (distance(e, b).d_out == 0.0) == inside

    def test_distance_zero_iff_center(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            b = random_box(rng, 4)
            assert distance(b.center.copy(), b).d == 0.0
            e = random_point(rng, b)
            if not np.array_equal(e, b.center):
                assert distance(e, b).d > 0.0

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValidationError):
            distance(np.zeros(3), Box(np.zeros(2), np.zeros(2)))

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValidationError):
            distance(np.zeros(2), Box(np.zeros(2), np.ones(2)), norm="linf")

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        b = random_box(rng, 6)
        ents = np.vstack([random_point(rng, b) for _ in range(40)])
        for norm in ("l1", "l2"):
            batch = distance_batch(ents, b, alpha=0.05, norm=norm)
            each = [distance(ents[i], b, alpha=0.05, norm=norm).d for i in range(40)]
            np.testing.assert_allclose(batch, each, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        checked = 0
        for _ in range(50):
            b = random_box(rng, 3)
            e = random_point(rng, b)
            # keep a clear margin from every hinge so the FD probe does not
            # cross a nondifferentiable point
            gaps = np.concatenate([np.abs(e - b.bmax), np.abs(e - b.bmin), np.abs(e - b.center)])
            if gaps.min() < 10 * h:
                continue
            for norm in ("l1", "l2"):
                _, cache = distance_with_cache(e, b, alpha=0.02, norm=norm)
                de, dc, doff = distance_backward(cache, 1.0)
                for arr, grad, make in (
                    (e, de, lambda x: distance(x, b, 0.02, norm).d),
                    (b.center, dc, lambda x: distance(e, Box(x, b.offset), 0.02, norm).d),
                    (b.offset, doff, lambda x: distance(e, Box(b.center, x), 0.02, norm).d),
                ):
                    for i in range(arr.size):
                        up = arr.copy()
                        dn = arr.copy()
                        up[i] += h
                        dn[i] -= h
                        num = (make(up) - make(dn)) / (2 * h)
                        assert grad[i] == pytest.approx(num, abs=5e-9)
                        checked += 1
        assert checked > 500


# Scalar reference: the per-entity distance forward and backward the batched
# kernel replaced, kept verbatim so the kernel can be checked bit for bit.


def _ref_norm_and_grad(v, norm):
    if norm == "l1":
        return float(np.abs(v).sum()), np.sign(v)
    mag = float(np.sqrt((v * v).sum()))
    if mag == 0.0:
        return 0.0, np.zeros_like(v)
    return mag, v / mag


def _ref_distance(e, b, alpha, norm):
    bmax = b.center + b.offset
    bmin = b.center - b.offset
    above = e > bmax
    below = e < bmin
    v_out = np.maximum(e - bmax, 0.0) + np.maximum(bmin - e, 0.0)
    clamped = np.minimum(bmax, np.maximum(bmin, e))
    u_in = b.center - clamped
    d_out, _ = _ref_norm_and_grad(v_out, norm)
    d_in, _ = _ref_norm_and_grad(u_in, norm)
    return (d_out + alpha * d_in, d_out, d_in), (above, below, v_out, u_in)


def _ref_backward(above, below, v_out, u_in, alpha, norm, dd):
    _, g_out = _ref_norm_and_grad(v_out, norm)
    _, g_in = _ref_norm_and_grad(u_in, norm)
    w = dd * g_out
    de = w * (above.astype(np.float64) - below.astype(np.float64))
    dc = -de.copy()
    doff = -w * (above.astype(np.float64) + below.astype(np.float64))
    w_in = dd * alpha * g_in
    inside = ~(above | below)
    de -= w_in * inside
    dc += w_in * inside
    doff -= w_in * above.astype(np.float64)
    doff += w_in * below.astype(np.float64)
    return de, dc, doff


@st.composite
def kernel_cases(draw):
    """A stack of q boxes (q, d) with some offsets 0.0 or -0.0, m entities
    with some coordinates exactly on a face or at the center of one of the
    boxes and some rows exactly at the first box's center, and per-row
    upstream grads."""
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, 40))
    q = draw(st.integers(1, 4))
    coord = st.floats(-4.0, 4.0, width=64)
    offset = st.floats(0.0, 3.0, width=64) | st.sampled_from((0.0, -0.0))
    centers = draw(hnp.arrays(np.float64, (q, d), elements=coord))
    offsets = draw(hnp.arrays(np.float64, (q, d), elements=offset))
    ents = draw(hnp.arrays(np.float64, (m, d), elements=coord))
    snap = draw(hnp.arrays(np.int8, (m, d), elements=st.integers(0, 3)))
    which = draw(hnp.arrays(np.intp, (m, d), elements=st.integers(0, q - 1)))
    center, off = centers[which, np.arange(d)], offsets[which, np.arange(d)]
    ents = np.select([snap == 1, snap == 2, snap == 3], [center + off, center - off, center], ents)
    at_center = draw(hnp.arrays(np.bool_, m))
    ents[at_center] = centers[0]
    dd = draw(hnp.arrays(np.float64, m, elements=st.floats(-3.0, 3.0, width=64)))
    alpha = draw(st.floats(0.0, 1.0, width=64))
    norm = draw(st.sampled_from(("l1", "l2")))
    return Box(centers, offsets), ents, dd, alpha, norm


def _same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


class TestKernelMatchesScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_rows_match_bit_for_bit(self, case):
        boxes, ents, dd, alpha, norm = case
        box = Box(boxes.center[0], boxes.offset[0])
        dist, cache = distance_with_cache(ents, box, alpha, norm)
        grads = distance_backward(cache, dd)
        assert _same_bits(distance_batch(ents, box, alpha, norm), dist.d)
        for i in range(ents.shape[0]):
            ref_dist, ref_cache = _ref_distance(ents[i], box, alpha, norm)
            ref_grads = _ref_backward(*ref_cache, alpha, norm, float(dd[i]))
            one_dist, one_cache = distance_with_cache(ents[i], box, alpha, norm)
            one_grads = distance_backward(one_cache, float(dd[i]))
            for got, one, ref in zip(dist, one_dist, ref_dist):
                assert _same_bits(got[i], ref) and _same_bits(one, ref)
            for got, one, ref in zip(grads, one_grads, ref_grads):
                assert _same_bits(got[i], ref) and _same_bits(one, ref)

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_stacked_boxes_match_bit_for_bit(self, case):
        # as the tiled distance pass calls it: a box of stacked (q, 1, d)
        # arrays and four work buffers, filled with NaN beforehand
        boxes, ents, _, alpha, norm = case
        (q, d), m = boxes.center.shape, len(ents)
        out = [np.full(shape, np.nan) for shape in [(q, m, d)] * 2 + [(q, m)] * 2]
        stacked = Box(boxes.center[:, None], boxes.offset[:, None])
        got = distance_batch(ents, stacked, alpha, norm, out)
        assert got is out[2]
        for k in range(q):
            box = Box(boxes.center[k], boxes.offset[k])
            for i in range(m):
                assert _same_bits(got[k, i], _ref_distance(ents[i], box, alpha, norm)[0][0])


class TestIntersection:
    def setup_method(self):
        self.rng = np.random.default_rng(10)
        self.net = net_random(5, self.rng)

    def test_offset_bounded_by_elementwise_min(self):
        for _ in range(200):
            n = int(self.rng.integers(2, 5))
            boxes = [random_box(self.rng, 5) for _ in range(n)]
            out = intersect(boxes, self.net)
            floor = np.min([b.offset for b in boxes], axis=0)
            assert np.all(out.offset <= floor + 1e-15)
            assert np.all(out.offset >= 0.0)

    def test_center_in_convex_hull(self):
        for _ in range(200):
            boxes = [random_box(self.rng, 5) for _ in range(3)]
            out = intersect(boxes, self.net)
            lo = np.min([b.center for b in boxes], axis=0)
            hi = np.max([b.center for b in boxes], axis=0)
            assert np.all(out.center >= lo - 1e-12)
            assert np.all(out.center <= hi + 1e-12)

    def test_permutation_invariance(self):
        for _ in range(100):
            boxes = [random_box(self.rng, 5) for _ in range(4)]
            perm = self.rng.permutation(4)
            a = intersect(boxes, self.net)
            b = intersect([boxes[i] for i in perm], self.net)
            np.testing.assert_allclose(a.center, b.center, atol=1e-12)
            np.testing.assert_allclose(a.offset, b.offset, atol=1e-12)

    def test_single_box_keeps_center(self):
        for _ in range(20):
            b = random_box(self.rng, 5)
            out = intersect([b], self.net)
            np.testing.assert_allclose(out.center, b.center, atol=1e-12)

    def test_identical_boxes_keep_center(self):
        b = random_box(self.rng, 5)
        out = intersect([b, b, b], self.net)
        np.testing.assert_allclose(out.center, b.center, atol=1e-12)

    def test_net_validate_catches_shape_drift(self):
        bad = init_random(5, 3, 2, seed=0)
        bad.net.att_w1 = bad.net.att_w1[:, :-1]
        with pytest.raises(ValidationError, match="att_w1"):
            bad.validate()

    def test_net_random_fan_in_bounds(self):
        net = net_random(16, np.random.default_rng(0))
        assert np.all(np.abs(net.att_w1) <= 1.0 / np.sqrt(16))
        assert np.all(np.abs(net.inner_w1) <= 1.0 / np.sqrt(32))
        check_arrays(net.arrays(), IntersectionNet.shapes(16))


class TestExecution:
    def setup_method(self):
        self.store = init_random(dim=4, n_entities=6, n_relations=3, seed=7)

    def test_one_hop_projection(self):
        dag = chain_dag(2, [(1, False)])
        boxes = execute_query(dag, self.store)
        assert len(boxes) == 1
        np.testing.assert_array_equal(
            boxes[0].center,
            self.store.entity_centers[2] + self.store.relation_centers[1],
        )
        np.testing.assert_array_equal(boxes[0].offset, self.store.relation_offsets[0])

    def test_inverse_edge_uses_inverse_row(self):
        dag = chain_dag(3, [(1, True)])
        boxes = execute_query(dag, self.store)
        row = self.store.center_row(1, inverse=True)
        np.testing.assert_array_equal(
            boxes[0].center,
            self.store.entity_centers[3] + self.store.relation_centers[row],
        )

    def test_two_hop_chains_projections(self):
        dag = chain_dag(0, [(0, False), (2, False)])
        boxes = execute_query(dag, self.store)
        expect = (
            self.store.entity_centers[0]
            + self.store.relation_centers[0]
            + self.store.relation_centers[2]
        )
        np.testing.assert_allclose(boxes[0].center, expect, atol=1e-12)
        np.testing.assert_allclose(
            boxes[0].offset, 2 * self.store.relation_offsets[0], atol=1e-12
        )

    def test_intersection_matches_direct_kernel(self):
        dag = merge_dag([(0, 0, False), (1, 1, False)])
        boxes = execute_query(dag, self.store)
        b0 = project(
            Box(self.store.entity_centers[0], np.zeros(4)),
            (self.store.relation_centers[0], self.store.relation_offsets[0]),
        )
        b1 = project(
            Box(self.store.entity_centers[1], np.zeros(4)),
            (self.store.relation_centers[1], self.store.relation_offsets[0]),
        )
        direct = intersect([b0, b1], self.store.net)
        assert len(boxes) == 1
        np.testing.assert_allclose(boxes[0].center, direct.center, atol=1e-12)
        np.testing.assert_allclose(boxes[0].offset, direct.offset, atol=1e-12)

    def test_union_produces_disjuncts(self):
        from srbox.structures import Edge, NodeKind, QueryDag

        dag = QueryDag(
            anchors=((0, 0), (1, 4)),
            edges=(Edge(0, 2, 0, False), Edge(1, 2, 2, False)),
            nodes=((2, NodeKind.UNION),),
            answer_node=2,
        )
        boxes = execute_query(dag, self.store)
        assert len(boxes) == 2
        np.testing.assert_array_equal(
            boxes[0].center,
            self.store.entity_centers[0] + self.store.relation_centers[0],
        )
        np.testing.assert_array_equal(
            boxes[1].center,
            self.store.entity_centers[4] + self.store.relation_centers[2],
        )

    @pytest.mark.parametrize("execute", [execute_query, execute_with_trace])
    def test_out_of_range_anchor_rejected(self, execute):
        dag = chain_dag(99, [(0, False)])
        with pytest.raises(ValidationError, match="anchor entity id 99"):
            execute(dag, self.store)

    @pytest.mark.parametrize("execute", [execute_query, execute_with_trace])
    def test_out_of_range_relation_rejected(self, execute):
        dag = chain_dag(0, [(5, False)])
        with pytest.raises(ValidationError, match="relation id 5"):
            execute(dag, self.store)

    @pytest.mark.parametrize("execute", [execute_query, execute_with_trace])
    @pytest.mark.parametrize("anchors, relations, problem", [
        ((5, 0), (2, 0), None),  # the last row of each table is in range
        ((0, 6), (0, 0), "anchor entity id 6"),
        ((-1, 6), (0, 0), "anchor entity id -1"),  # the first bad id is named
        ((0, 1), (3, 0), "relation id 3"),
        ((0, 1), (0, -1), "relation id -1"),
    ])
    def test_id_range_bounds(self, execute, anchors, relations, problem):
        # execute_with_trace checks one query's id lists, execute_query an
        # id array of a batch of one
        dag = merge_dag([(a, r, False) for a, r in zip(anchors, relations)])
        if problem is None:
            execute(dag, self.store)
            return
        with pytest.raises(ValidationError, match=f"^{problem} out of range$"):
            execute(dag, self.store)

    def test_trace_rejects_projection_with_two_edges(self):
        dag = QueryDag(
            anchors=((0, 0), (1, 1)),
            edges=(Edge(0, 2, 0, False), Edge(1, 2, 1, False)),
            nodes=((2, NodeKind.PROJECTION),),
            answer_node=2,
        )
        with pytest.raises(ValidationError, match="projection node 2 has in-degree 2"):
            execute_with_trace(dag, self.store)

    def test_trace_exposes_answer_boxes(self):
        dag = chain_dag(1, [(0, False)])
        trace = execute_with_trace(dag, self.store)
        direct = execute_query(dag, self.store)
        np.testing.assert_array_equal(trace.answer_boxes()[0].center, direct[0].center)
        assert isinstance(trace.signature(), bytes)


# ---------------------------------------------------------------------------
# reference DAG executor: the per-kind records and four-way backward that the
# per-disjunct walk replaced, kept verbatim as the oracle it must match


@dataclasses.dataclass
class _RefNodeTrace:
    node: int
    kind: str  # anchor | projection | intersection | union
    entity: int | None = None
    edges: tuple = ()
    combos: list | None = None
    union_sources: list | None = None
    inter_caches: list | None = None
    boxes: list | None = None


@dataclasses.dataclass
class _RefTrace:
    dag: QueryDag
    order: list
    nodes: dict

    def answer_boxes(self):
        return list(self.nodes[self.dag.answer_node].boxes)

    def signature(self):
        parts = []
        for n in self.order:
            tr = self.nodes[n]
            if tr.inter_caches:
                parts.extend(c.signature() for c in tr.inter_caches)
        return b"".join(parts)


def _ref_execute_with_trace(dag, params):
    order = topological_order(dag)
    anchor_ent = dict(dag.anchors)
    kinds = dict(dag.nodes)
    incoming = dag.incoming()
    traces = {}
    for n in order:
        if n in anchor_ent:
            ent = anchor_ent[n]
            center = params.entity_centers[ent]
            box = Box(center, np.zeros_like(center))
            traces[n] = _RefNodeTrace(n, "anchor", entity=ent, boxes=[box])
            continue
        edges = tuple(incoming.get(n, ()))
        projected = []
        for e in edges:
            rel = params.relation_params(e.relation, e.inverse)
            projected.append([project(b, rel) for b in traces[e.src].boxes])
        kind = kinds[n]
        if kind is NodeKind.PROJECTION:
            traces[n] = _RefNodeTrace(n, "projection", edges=edges, boxes=projected[0])
        elif kind is NodeKind.UNION:
            sources = []
            boxes = []
            for k, branch in enumerate(projected):
                for j, box in enumerate(branch):
                    sources.append((k, j))
                    boxes.append(box)
            traces[n] = _RefNodeTrace(n, "union", edges=edges, union_sources=sources, boxes=boxes)
        else:
            combos = list(itertools.product(*(range(len(br)) for br in projected)))
            boxes = []
            caches = []
            for combo in combos:
                inputs = [projected[k][j] for k, j in enumerate(combo)]
                box, cache = boxalg.intersect_with_cache(inputs, params.net)
                boxes.append(box)
                caches.append(cache)
            traces[n] = _RefNodeTrace(
                n, "intersection", edges=edges, combos=combos, inter_caches=caches, boxes=boxes
            )
    return _RefTrace(dag, order, traces)


def _ref_backward_through_dag(trace, seed_grads, grads):
    acc = {n: [None] * len(tr.boxes) for n, tr in trace.nodes.items()}
    answer = trace.dag.answer_node
    for j, seed in enumerate(seed_grads):
        if seed is not None:
            acc[answer][j] = [
                np.array(seed[0], dtype=np.float64),
                np.array(seed[1], dtype=np.float64),
            ]

    def route_edge(edge, src_disjunct, dcen, doff, params_like):
        grads.add("rel_center", params_like.center_row(edge.relation, edge.inverse), dcen)
        grads.add("rel_offset", params_like.offset_row(edge.relation, edge.inverse), doff)
        slot = acc[edge.src][src_disjunct]
        if slot is None:
            acc[edge.src][src_disjunct] = [dcen.copy(), doff.copy()]
        else:
            slot[0] += dcen
            slot[1] += doff

    params_like = grads.params
    for n in reversed(trace.order):
        tr = trace.nodes[n]
        for j, slot in enumerate(acc[n]):
            if slot is None:
                continue
            dcen, doff = slot
            if tr.kind == "anchor":
                grads.add("entity", tr.entity, dcen)
            elif tr.kind == "projection":
                route_edge(tr.edges[0], j, dcen, doff, params_like)
            elif tr.kind == "union":
                k, src_j = tr.union_sources[j]
                route_edge(tr.edges[k], src_j, dcen, doff, params_like)
            elif tr.kind == "intersection":
                cache = tr.inter_caches[j]
                dcent_in, doff_in, net_grads = boxalg.intersect_backward(cache, dcen, doff)
                for name, g in net_grads.items():
                    grads.add("net", name, g)
                for k, src_j in enumerate(tr.combos[j]):
                    route_edge(tr.edges[k], src_j, dcent_in[k], doff_in[k], params_like)


def _two_unions_then_intersect(ents, rels, hop):
    """Two 2u unions feeding one intersection, then one projection."""
    edges = tuple(Edge(i, 4 + i // 2, r, inv) for i, (r, inv) in enumerate(rels))
    return QueryDag(
        anchors=tuple(enumerate(ents)),
        edges=edges + (Edge(4, 6, 0, False), Edge(5, 6, 1, True), Edge(6, 7, *hop)),
        nodes=(
            (4, NodeKind.UNION),
            (5, NodeKind.UNION),
            (6, NodeKind.INTERSECTION),
            (7, NodeKind.PROJECTION),
        ),
        answer_node=7,
    )


@st.composite
def dag_cases(draw):
    """A random store and a DAG of one of the nine query shapes, of two
    unions feeding an intersection or of a union over a union, with
    per-disjunct answer seeds (some missing)."""
    dim = draw(st.integers(1, 5))
    n_ent = draw(st.integers(1, 6))
    n_rel = draw(st.integers(2, 4))
    mode = draw(st.sampled_from(OFFSET_MODES))
    store = init_random(dim, n_ent, n_rel, draw(st.integers(0, 2**16)), offset_mode=mode)
    ent = st.integers(0, n_ent - 1)
    hop = st.tuples(st.integers(0, n_rel - 1), st.booleans())
    branch = st.tuples(ent, st.integers(0, n_rel - 1), st.booleans())
    shape = draw(st.sampled_from(
        ("1p", "2p", "3p", "2i", "3i", "ip", "pi", "2u", "up", "uip", "uu")
    ))
    if shape.endswith("p") and shape[0].isdigit():
        n = int(shape[0])
        dag = chain_dag(draw(ent), draw(st.lists(hop, min_size=n, max_size=n)))
    elif shape in ("2i", "3i", "2u"):
        kind = NodeKind.UNION if shape == "2u" else NodeKind.INTERSECTION
        n = int(shape[0])
        dag = merge_dag(draw(st.lists(branch, min_size=n, max_size=n)), kind)
    elif shape in ("ip", "up"):
        kind = NodeKind.UNION if shape == "up" else NodeKind.INTERSECTION
        dag = merge_dag(draw(st.lists(branch, min_size=2, max_size=2)), kind, [draw(hop)])
    elif shape == "pi":
        (r0, i0), (r1, i1), (r2, i2) = draw(st.lists(hop, min_size=3, max_size=3))
        dag = QueryDag(
            anchors=((0, draw(ent)), (1, draw(ent))),
            edges=(Edge(0, 2, r0, i0), Edge(2, 3, r1, i1), Edge(1, 3, r2, i2)),
            nodes=((2, NodeKind.PROJECTION), (3, NodeKind.INTERSECTION)),
            answer_node=3,
        )
    elif shape == "uu":  # a union over a union: disjuncts keep their input order
        (r0, i0), (r1, i1), (r2, i2), (r3, i3) = draw(st.lists(hop, min_size=4, max_size=4))
        dag = QueryDag(
            anchors=((0, draw(ent)), (1, draw(ent)), (2, draw(ent))),
            edges=(Edge(0, 3, r0, i0), Edge(1, 3, r1, i1), Edge(3, 4, r2, i2), Edge(2, 4, r3, i3)),
            nodes=((3, NodeKind.UNION), (4, NodeKind.UNION)),
            answer_node=4,
        )
    else:
        dag = _two_unions_then_intersect(
            draw(st.lists(ent, min_size=4, max_size=4)),
            draw(st.lists(hop, min_size=4, max_size=4)),
            draw(hop),
        )
    vec = hnp.arrays(np.float64, dim, elements=st.floats(-3.0, 3.0, width=64))
    seeds = draw(st.lists(st.none() | st.tuples(vec, vec), min_size=4, max_size=4))
    return store, dag, seeds


class TestExecutionMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(dag_cases())
    def test_boxes_signature_and_grads_match_bit_for_bit(self, case):
        store, dag, seeds = case
        trace = execute_with_trace(dag, store)
        ref = _ref_execute_with_trace(dag, store)
        boxes, ref_boxes = trace.answer_boxes(), ref.answer_boxes()
        assert len(boxes) == len(ref_boxes)
        for b, rb in zip(boxes, ref_boxes):
            assert _same_bits(b.center, rb.center) and _same_bits(b.offset, rb.offset)
        assert trace.signature() == ref.signature()
        grads, ref_grads = boxalg.Grads(store), boxalg.Grads(store)
        boxalg.backward_through_dag(trace, seeds[: len(boxes)], grads)
        _ref_backward_through_dag(ref, seeds[: len(boxes)], ref_grads)
        for table, slots in ref_grads.tables().items():
            got = grads.tables()[table]
            assert list(got) == list(slots)
            assert all(_same_bits(got[key], g) for key, g in slots.items())

    def test_two_unions_feeding_an_intersection_give_four_disjuncts(self):
        store = init_random(dim=4, n_entities=6, n_relations=3, seed=7)
        hops = [(0, False), (1, False), (2, True), (0, True)]
        dag = _two_unions_then_intersect([0, 1, 2, 3], hops, (2, False))
        validate_dag(dag)
        boxes = execute_query(dag, store)
        assert len(boxes) == 4
        assert len({b.center.tobytes() for b in boxes}) == 4
        assert len(execute_with_trace(dag, store).signature()) > 0


class TestGrads:
    def test_accumulate(self):
        store = init_random(dim=3, n_entities=4, n_relations=2, seed=0)
        g = boxalg.Grads(store)
        first = np.ones(3)
        g.add("entity", 1, first)
        g.add("entity", 1, np.ones(3))
        g.add("rel_center", 0, np.full(3, 2.0))
        g.add("net", "att_w2", np.ones_like(store.net.att_w2))
        np.testing.assert_array_equal(g.entity[1], 2.0)
        np.testing.assert_array_equal(first, 1.0)  # the first gradient is copied
        np.testing.assert_array_equal(g.rel_center[0], 2.0)
        np.testing.assert_array_equal(g.net["att_w2"], 1.0)
        assert list(g.entity) == [1] and not g.rel_offset
