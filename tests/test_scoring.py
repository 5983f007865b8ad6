"""Tests for shape-batched evaluation scoring.

The reference is the per-query scorer the batched path replaced:
``execute_query``, ``query_distances`` and ``ranks_from_distances`` with
their bodies kept verbatim, plus the unstacked intersection and distance
kernels they called. Distances must match bit for bit and ranks exactly.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from srbox import boxalg, evalgen
from srbox.boxalg import Box, Distance, IntersectCache, _mlp2, sigmoid
from srbox.errors import ValidationError
from srbox.evalgen import TYPE_SHAPES, GeneratedQuery
from srbox.params import OFFSET_MODES, init_random
from srbox.structures import Edge, NodeKind, QueryDag

# ---------------------------------------------------------------------------
# reference: the per-query scorer, verbatim


def _ref_intersect_with_cache(boxes, net):
    if not boxes:
        raise ValidationError("intersect requires at least one box")
    d = boxes[0].dim
    if any(b.dim != d for b in boxes):
        raise ValidationError("intersect requires boxes of equal dimension")
    n = len(boxes)
    centers = np.stack([b.center for b in boxes])  # (n, d)
    offsets = np.stack([b.offset for b in boxes])

    logits, att_cache = _mlp2(centers, net.att_w1, net.att_b1, net.att_w2, net.att_b2)
    logits = logits - logits.max(axis=0, keepdims=True)
    expz = np.exp(logits)
    att = expz / expz.sum(axis=0, keepdims=True)  # softmax across boxes, per dim
    center = (att * centers).sum(axis=0)

    pooled_in = np.concatenate([centers, offsets], axis=1)  # (n, 2d)
    inner, inner_cache = _mlp2(pooled_in, net.inner_w1, net.inner_b1, net.inner_w2, net.inner_b2)
    mean_inner = inner.mean(axis=0, keepdims=True)  # (1, d)
    outer, outer_cache = _mlp2(mean_inner, net.outer_w1, net.outer_b1, net.outer_w2, net.outer_b2)
    gate = sigmoid(outer[0])

    min_idx = offsets.argmin(axis=0)  # first argmin on ties
    min_off = offsets[min_idx, np.arange(d)]
    offset = min_off * gate

    cache = IntersectCache(
        centers, offsets, att, att_cache, inner_cache, outer_cache, gate, min_idx, min_off
    )
    return Box(center, offset), cache


def _ref_norm(v, norm):
    if norm == "l1":
        return np.abs(v).sum(axis=-1)
    if norm == "l2":
        return np.sqrt((v * v).sum(axis=-1))
    raise ValidationError(f"unknown norm {norm!r}")


def _ref_distance_batch(e, b, alpha=0.02, norm="l1"):
    bmax, bmin = b.bmax, b.bmin
    v_out = np.maximum(e - bmax, 0.0) + np.maximum(bmin - e, 0.0)
    u_in = b.center - np.minimum(bmax, np.maximum(bmin, e))
    d_out = _ref_norm(v_out, norm)
    d_in = _ref_norm(u_in, norm)
    return Distance(d_out + alpha * d_in, d_out, d_in).d


def _ref_execute_query(dag, params):
    with mock.patch.object(boxalg, "intersect_with_cache", _ref_intersect_with_cache):
        return boxalg.execute_with_trace(dag, params).answer_boxes()


def _ref_query_distances(query, params, alpha, norm):
    boxes = _ref_execute_query(query.dag, params)
    per_box = np.stack(
        [_ref_distance_batch(params.entity_centers, b, alpha, norm) for b in boxes]
    )
    return per_box.min(axis=0)


def _ref_ranks_from_distances(dist, hard, answers_full, raw=False):
    ranks: dict[int, float] = {}
    n = dist.shape[0]
    if raw:
        mask = np.ones(n, dtype=bool)
    else:
        mask = np.ones(n, dtype=bool)
        mask[sorted(answers_full)] = False
    for a in sorted(hard):
        da = dist[a]
        m = mask.copy()
        m[a] = False
        better = int(np.count_nonzero(dist[m] < da))
        tied = int(np.count_nonzero(dist[m] == da))
        ranks[a] = 1.0 + better + 0.5 * tied
    return ranks


# ---------------------------------------------------------------------------
# cases


def _dag_of_shape(shape, ents, rels, inverse):
    """A DAG of a ``dag_shape`` with the given anchors, relations and edge
    directions filled in."""
    anchor_nodes, edges, nodes, answer = shape
    return QueryDag(
        tuple(zip(anchor_nodes, ents)),
        tuple(Edge(s, t, r, inv) for (s, t, _), r, inv in zip(edges, rels, inverse)),
        nodes,
        answer,
    )


# two unions feeding one intersection, then one projection: four disjuncts
TWO_UNIONS_THEN_INTERSECT = (
    (0, 1, 2, 3),
    ((0, 4, False), (1, 4, False), (2, 5, False), (3, 5, False),
     (4, 6, False), (5, 6, False), (6, 7, False)),
    ((4, NodeKind.UNION), (5, NodeKind.UNION), (6, NodeKind.INTERSECTION),
     (7, NodeKind.PROJECTION)),
    7,
)
SHAPES = {**TYPE_SHAPES, "uip": TWO_UNIONS_THEN_INTERSECT}


@st.composite
def scoring_cases(draw):
    """A random store (some entity rows duplicated to force ties), a mixed
    list of queries of the nine shapes and the two-union DAG, the scoring
    settings, and tile and block sizes small enough that the entity rows
    split into tiles with a partial last one."""
    dim = draw(st.integers(1, 5))
    n_ent = draw(st.integers(1, 40))
    n_rel = draw(st.integers(1, 4))
    store = init_random(
        dim, n_ent, n_rel, draw(st.integers(0, 2**16)),
        offset_mode=draw(st.sampled_from(OFFSET_MODES)),
    )
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n_ent - 1),
                                            st.integers(0, n_ent - 1)), max_size=8)):
        store.entity_centers[dst] = store.entity_centers[src]
    ent = st.integers(0, n_ent - 1)
    queries = []
    for name in draw(st.lists(st.sampled_from(sorted(SHAPES)), min_size=1, max_size=10)):
        shape = SHAPES[name]
        n_edges = len(shape[1])
        dag = _dag_of_shape(
            shape,
            draw(st.lists(ent, min_size=len(shape[0]), max_size=len(shape[0]))),
            draw(st.lists(st.integers(0, n_rel - 1), min_size=n_edges, max_size=n_edges)),
            draw(st.lists(st.booleans(), min_size=n_edges, max_size=n_edges)),
        )
        full = draw(st.frozensets(ent, min_size=1))
        train = draw(st.frozensets(st.sampled_from(sorted(full)), max_size=len(full) - 1))
        queries.append(GeneratedQuery(name, dag, train, full))
    settings_ = {
        "alpha": draw(st.sampled_from((0.0, 0.02, 0.5))),
        "norm": draw(st.sampled_from(("l1", "l2"))),
        "raw": draw(st.booleans()),
    }
    tile = draw(st.integers(1, 4 * n_ent * dim))
    block = draw(st.integers(1, 4))
    return store, queries, settings_, tile, block


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedScoringMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(scoring_cases())
    def test_distances_bits_and_ranks_exact(self, case):
        store, queries, cfg, tile, block = case
        alpha, norm, raw = cfg["alpha"], cfg["norm"], cfg["raw"]
        ref_dists = [_ref_query_distances(q, store, alpha, norm) for q in queries]
        ref_ranks = [
            _ref_ranks_from_distances(d, q.hard_answers, q.answers_full, raw)
            for q, d in zip(queries, ref_dists)
        ]
        with mock.patch.object(boxalg, "DIST_TILE", tile), \
                mock.patch.object(evalgen, "FORWARD_TILE", block * store.dim):
            seen = []
            for idxs, dists in evalgen.box_distances(queries, store, alpha, norm):
                assert len(idxs) == len(dists)
                for i, dist in zip(idxs, dists):
                    assert _same_bits(dist, ref_dists[i])
                    seen.append(i)
            ranks = evalgen.query_ranks(queries, store, "box", alpha, norm, raw)
            report = evalgen.metrics_report(queries, store, "box", alpha, norm, raw)
        assert sorted(seen) == list(range(len(queries)))
        assert ranks == ref_ranks
        flat = [r for rk in ref_ranks for r in rk.values()]
        assert report["MRR"] == evalgen.mrr(flat)
        assert [report[f"H@{k}"] for k in (1, 3, 10)] == [evalgen.hits_at_k(flat, k) for k in (1, 3, 10)]
        for q, ref in zip(queries, ref_dists):
            assert _same_bits(evalgen.query_distances(q, store, "box", alpha, norm), ref)
            boxes, ref_boxes = boxalg.execute_query(q.dag, store), _ref_execute_query(q.dag, store)
            assert len(boxes) == len(ref_boxes)
            for b, rb in zip(boxes, ref_boxes):
                assert _same_bits(b.center, rb.center) and _same_bits(b.offset, rb.offset)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=30), st.data())
    def test_sorted_ranks_match_counting_on_heavy_ties(self, values, data):
        dist = np.array(values, dtype=np.float64) / 4.0
        n = len(values)
        full = data.draw(st.frozensets(st.integers(0, n - 1), min_size=1))
        hard = data.draw(st.frozensets(st.integers(0, n - 1), min_size=1))
        for raw in (False, True):
            assert evalgen.ranks_from_distances(dist, hard, full, raw) == \
                _ref_ranks_from_distances(dist, hard, full, raw)


class TestScoringMemory:
    def _queries(self, n_entities, count, rng):
        """A mix of 1p, 2i and 2u queries over random ids."""
        shapes = [TYPE_SHAPES[t] for t in ("1p", "2i", "2u")]
        out = []
        for i in range(count):
            shape = shapes[i % 3]
            n_edges = len(shape[1])
            dag = _dag_of_shape(
                shape,
                rng.integers(n_entities, size=len(shape[0])).tolist(),
                rng.integers(3, size=n_edges).tolist(),
                [False] * n_edges,
            )
            full = frozenset(rng.integers(n_entities, size=5).tolist())
            out.append(GeneratedQuery("mixed", dag, frozenset(), full))
        return out

    def _peak(self, store, queries) -> int:
        """Peak traced bytes while every query is scored and ranked, each
        chunk's results dropped once ranked."""
        tracemalloc.start()
        try:
            for idxs, dists in evalgen.box_distances(queries, store):
                for i, dist in zip(idxs, dists):
                    q = queries[i]
                    evalgen.ranks_from_distances(dist, q.hard_answers, q.answers_full)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_bounded_and_flat_in_the_query_count(self):
        # the per-query scorer made several (E, d) temporaries of 3.2 MB each
        # here; the tiled pass holds one query chunk's (q, E) distances, two
        # DIST_TILE gap buffers and one forward block, here of 32 queries
        n_entities, dim, block = 50_000, 8, 32
        store = init_random(dim, n_entities, 3, seed=0)
        rng = np.random.default_rng(0)
        with mock.patch.object(evalgen, "FORWARD_TILE", block * dim):
            few = self._peak(store, self._queries(n_entities, 6, rng))
            many = self._peak(store, self._queries(n_entities, 3 * block + 5, rng))
        bound = 2_500_000
        assert few < bound and many < bound
        assert many - few < 50_000
