"""Tests for shape-batched evaluation scoring.

The reference is the per-query scorer the batched path replaced:
``execute_query``, ``query_distances`` and ``ranks_from_distances`` with
their bodies kept verbatim, plus the unstacked intersection and distance
kernels they called. Distances must match bit for bit and ranks exactly.
"""

import json
import random
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srbox import boxalg, cli, evalgen
from srbox import params as params_mod
from srbox.boxalg import Box, Distance, IntersectCache, _mlp2, sigmoid
from srbox.errors import ValidationError
from srbox.evalgen import EVAL_QUERY_TYPES, TYPE_SHAPES, Csr, GeneratedQuery
from srbox.params import OFFSET_MODES, init_random
from srbox.rng import substream
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
            ranks = {}
            for block in evalgen.query_blocks(queries):
                flat = iter(evalgen.block_ranks(block, store, "box", alpha, norm, raw).tolist())
                for i, hard in zip(block.positions.tolist(), block.hard.lists()):
                    ranks[i] = dict(zip(hard, flat))
                assert next(flat, None) is None
            report = evalgen.metrics_report(queries, store, "box", alpha, norm, raw)
            dists = [evalgen.query_distances(q, store, "box", alpha, norm) for q in queries]
        assert sorted(ranks) == list(range(len(queries)))
        assert [ranks[i] for i in range(len(queries))] == ref_ranks
        flat = [r for rk in ref_ranks for r in rk.values()]
        assert report["MRR"] == evalgen.mrr(flat)
        assert [report[f"H@{k}"] for k in (1, 3, 10)] == [evalgen.hits_at_k(flat, k) for k in (1, 3, 10)]
        for q, dist, ref in zip(queries, dists, ref_dists):
            assert _same_bits(dist, ref)
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


@st.composite
def rank_chunks(draw):
    """A chunk of c queries' integer-valued distances to m entities, so
    ties are common, some of them infinite, so that their rows take the
    wide path; each query's hard answers (maybe none) and known
    answers (at times every entity but one); raw or filtered ranking; and a
    slice budget small enough that one query's answers, and a row of
    entities, span several slices."""
    c = draw(st.integers(1, 5))
    m = draw(st.integers(1, 30))
    rows = st.lists(st.integers(0, 5) | st.just(np.inf), min_size=m, max_size=m)
    dist = np.array(draw(st.lists(rows, min_size=c, max_size=c)), dtype=np.float64)
    ent = st.integers(0, m - 1)
    hard, known = [], []
    for _ in range(c):
        h = draw(st.frozensets(ent))
        kind = draw(st.sampled_from(("any", "with the hard ones", "all but one")))
        if kind == "all but one":
            k = frozenset(range(m)) - {draw(ent)}
        else:
            k = draw(st.frozensets(ent)) | (h if kind == "with the hard ones" else frozenset())
        hard.append(h)
        known.append(k)
    return dist, hard, known, draw(st.booleans()), draw(st.integers(1, 3 * m))


def _csr(sets) -> Csr:
    return Csr.of([sorted(s) for s in sets])


class TestBlockRanker:
    @settings(max_examples=400, deadline=None)
    @given(rank_chunks())
    def test_matches_the_reference_bit_for_bit(self, case):
        dist, hard, known, raw, budget = case
        ref = [
            r for row, h, k in zip(dist, hard, known)
            for r in _ref_ranks_from_distances(row, h, k, raw).values()
        ]
        with mock.patch.object(boxalg, "DIST_TILE", budget):
            got = evalgen.rank_block(dist, _csr(hard), None if raw else _csr(known))
        assert _same_bits(got, np.array(ref, dtype=np.float64))

    def test_a_repeated_answer_name_counts_once(self, tmp_path):
        kg = evalgen.build_grid_kg(width=6, height=5, seed=1)
        queries = evalgen.generate_queries(kg, "2u", 4, "test", substream(3, "queries"))
        path = tmp_path / "q.jsonl"
        evalgen.write_queries(evalgen.query_blocks(queries), kg, str(path))
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in recs:
            rec["answers_full"] = rec["answers_full"] * 2
            rec["answers_train"] = rec["answers_train"][:1] * 3
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        [block] = evalgen.read_query_blocks(str(path), kg)
        loaded = evalgen.load_queries(str(path), kg)
        assert block.full.lists() == [sorted(q.answers_full) for q in loaded]
        assert block.train.lists() == [sorted(q.answers_train) for q in loaded]
        assert block.hard.lists() == [sorted(q.hard_answers) for q in loaded]
        store = init_random(6, kg.n_entities, kg.n_relations, seed=2)
        ref = [
            r for q in loaded for r in _ref_ranks_from_distances(
                _ref_query_distances(q, store, 0.02, "l1"), q.hard_answers, q.answers_full
            ).values()
        ]
        assert evalgen.block_ranks(block, store).tolist() == ref

    def test_half_the_entities_as_hard_answers_stay_in_bounds(self):
        # one query with 25 000 hard answers ranks from a sort of its row and
        # compares no array; queries at the cut-over (as many answers as the
        # entity count's bit length) compare in slices of at most DIST_TILE
        n = 50_000
        rng = np.random.default_rng(0)
        dist = rng.integers(0, 1000, size=(1, n)).astype(np.float64)
        answers = np.sort(rng.choice(n, n // 2, replace=False))
        hard = Csr(np.array([0, len(answers)]), answers)
        largest = [0]
        count_nonzero = np.count_nonzero

        def recorded(a, axis=None):
            largest[0] = max(largest[0], a.size)
            return count_nonzero(a, axis=axis)

        tracemalloc.start()
        try:
            with mock.patch.object(evalgen.np, "count_nonzero", recorded):
                ranks = evalgen.rank_block(dist, hard, hard)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a compare of every answer against the row would hold 1.25e9 elements
        assert largest[0] == 0
        assert peak < 2_500_000
        pool = np.delete(dist[0], answers)
        for i in rng.choice(len(answers), 20, replace=False):
            d = dist[0, answers[i]]
            assert ranks[i] == 1.0 + np.count_nonzero(pool < d) + 0.5 * np.count_nonzero(pool == d)

        dist = rng.integers(0, 1000, size=(4, n)).astype(np.float64)
        few = [frozenset(rng.choice(n, n.bit_length(), replace=False).tolist()) for _ in range(4)]
        with mock.patch.object(evalgen.np, "count_nonzero", recorded):
            ranks = evalgen.rank_block(dist, _csr(few), _csr(few))
        assert 0 < largest[0] <= boxalg.DIST_TILE
        ref = [r for row, h in zip(dist, few) for r in _ref_ranks_from_distances(row, h, h).values()]
        assert ranks.tolist() == ref

    def test_a_thousand_hard_answers_among_15000_entities_take_the_sorted_route(self):
        n, c = 15_000, 3
        rng = np.random.default_rng(1)
        dist = rng.integers(0, 200, size=(c, n)).astype(np.float64)
        hard = [frozenset(rng.choice(n, k, replace=False).tolist()) for k in (1000, 3, 14)]
        known = [h | frozenset(rng.choice(n, 50).tolist()) for h in hard]
        for raw in (False, True):
            sorted_rows, compared = [], [0]
            by_sort, count_nonzero = evalgen._counts_by_sort, np.count_nonzero

            def spied_sort(row, r, answers, *rest):
                sorted_rows.append(len(answers))
                return by_sort(row, r, answers, *rest)

            def spied_compare(a, axis=None):
                compared[0] += a.size
                return count_nonzero(a, axis=axis)

            with mock.patch.object(evalgen, "_counts_by_sort", spied_sort), \
                    mock.patch.object(evalgen.np, "count_nonzero", spied_compare):
                got = evalgen.rank_block(dist, _csr(hard), None if raw else _csr(known))
            # 14 hard answers is 15 000's bit length, the last count that compares
            assert sorted_rows == [1000]
            assert compared[0] == (3 + 14) * n
            ref = [
                r for row, h, k in zip(dist, hard, known)
                for r in _ref_ranks_from_distances(row, h, k, raw).values()
            ]
            assert got.tolist() == ref

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sorted_route_matches_the_reference_bit_for_bit(self, data):
        m = data.draw(st.integers(1, 40))
        c = data.draw(st.integers(1, 4))
        # ties, signed zeros, and infinities that send their row down the wide path
        values = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 1e300, np.inf])
        dist = np.array(data.draw(st.lists(
            st.lists(values, min_size=m, max_size=m), min_size=c, max_size=c
        )), dtype=np.float64)
        ent = st.integers(0, m - 1)
        hard = [data.draw(st.frozensets(ent, min_size=min(m, m.bit_length() + 1))) for _ in range(c)]
        known = [h | data.draw(st.frozensets(ent)) for h in hard]
        raw = data.draw(st.booleans())
        calls = []
        by_sort = evalgen._counts_by_sort
        with mock.patch.object(evalgen, "_counts_by_sort", lambda *a: calls.append(1) or by_sort(*a)):
            got = evalgen.rank_block(dist, _csr(hard), None if raw else _csr(known))
        assert len(calls) == sum(len(h) > m.bit_length() for h in hard)
        ref = [
            r for row, h, k in zip(dist, hard, known)
            for r in _ref_ranks_from_distances(row, h, k, raw).values()
        ]
        assert _same_bits(got, np.array(ref, dtype=np.float64))


class TestEvalMatchesThePerQueryReference:
    @pytest.mark.parametrize("norm, raw", [("l1", False), ("l2", False), ("l1", True)])
    def test_metrics_file(self, tmp_path, norm, raw):
        kg = evalgen.build_grid_kg(width=8, height=6, seed=2)
        kg_dir = tmp_path / "kg"
        evalgen.save_kg(kg, str(kg_dir))
        rng = substream(5, "queries")
        queries = [q for t in EVAL_QUERY_TYPES for q in evalgen.generate_queries(kg, t, 6, "test", rng)]
        random.Random(1).shuffle(queries)  # the nine types interleaved
        path = tmp_path / "mixed.jsonl"
        evalgen.write_queries(evalgen.query_blocks(queries), kg, str(path))
        ckpt = tmp_path / "params.ckpt"
        params_mod.save(init_random(8, kg.n_entities, kg.n_relations, 3, entity_ids=kg.entity_ids,
                                    relation_ids=kg.relation_ids), str(ckpt))
        config = tmp_path / "eval.ini"
        config.write_text(f"[train]\nnorm = {norm}\n")
        out = tmp_path / "o"
        assert cli.main([
            "eval", "--config", str(config), "--kg", str(kg_dir), "--checkpoint", str(ckpt),
            "--queries", str(path), "--out", str(out), *(["--raw"] if raw else []),
        ]) == 0

        store = params_mod.load(str(ckpt))
        by_type: dict = {}
        for q in evalgen.load_queries(str(path), kg):
            by_type.setdefault(q.qtype, []).append(q)
        lines = []
        for qtype, qs in sorted(by_type.items()):
            ranks = [
                r for q in qs for r in _ref_ranks_from_distances(
                    _ref_query_distances(q, store, 0.02, norm), q.hard_answers, q.answers_full, raw
                ).values()
            ]
            hits = {f"H@{k}": sum(1 for r in ranks if r <= k) / len(ranks) for k in (1, 3, 10)}
            mrr = sum(1.0 / r for r in ranks) / len(ranks)
            lines.append(json.dumps({"scorer": "box", "query_type": qtype, **hits, "MRR": mrr,
                                     "n_queries": len(qs)}) + "\n")
        assert len(lines) == 9
        assert (out / "metrics.jsonl").read_text() == "".join(lines)


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
        """Peak traced bytes while every block of the queries is scored and
        ranked by ``block_ranks``, the path eval runs, each block's ranks
        dropped once made."""
        blocks = evalgen.query_blocks(queries)
        tracemalloc.start()
        try:
            for block in blocks:
                evalgen.block_ranks(block, store)
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


# ---------------------------------------------------------------------------
# exact distances, and the float32 tiled distance pass


@st.composite
def split_cases(draw):
    """A store whose entity rows do not fill the last tile, a list of 1p, 2i
    and two-disjunct 2u/up queries, and tile and block sizes. Tiles of one
    query by fewer rows than the store has must leave a partial last tile;
    larger tiles hold several queries by every row."""
    dim = draw(st.integers(1, 8))
    n_ent = draw(st.integers(2, 300))
    store = init_random(
        dim, n_ent, 3, draw(st.integers(0, 2**16)),
        offset_mode=draw(st.sampled_from(OFFSET_MODES)),
    )
    ent = st.integers(0, n_ent - 1)
    queries = []
    for name in draw(st.lists(st.sampled_from(("1p", "2i", "2u", "up")), min_size=1, max_size=12)):
        shape = TYPE_SHAPES[name]
        n_edges = len(shape[1])
        dag = _dag_of_shape(
            shape,
            draw(st.lists(ent, min_size=len(shape[0]), max_size=len(shape[0]))),
            draw(st.lists(st.integers(0, 2), min_size=n_edges, max_size=n_edges)),
            draw(st.lists(st.booleans(), min_size=n_edges, max_size=n_edges)),
        )
        queries.append(GeneratedQuery(name, dag, frozenset(), frozenset({0})))
    tile = draw(st.integers(dim, 6 * n_ent * dim))
    rows = tile // dim
    assume(rows >= n_ent or n_ent % rows)
    block = draw(st.integers(1, 6))
    norm = draw(st.sampled_from(("l1", "l2")))
    return store, queries, draw(st.sampled_from((0.0, 0.02, 0.5))), norm, tile, block


class TestExactDistances:
    @settings(max_examples=120, deadline=None)
    @given(split_cases())
    def test_query_distances_give_the_reference_bits_at_every_slice_size(self, case):
        # a tile below n_entities x d gathers the entity rows in several slices
        store, queries, alpha, norm, tile, _ = case
        with mock.patch.object(boxalg, "DIST_TILE", tile):
            for q in queries:
                got = evalgen.query_distances(q, store, "box", alpha, norm)
                assert _same_bits(got, _ref_query_distances(q, store, alpha, norm))

    @settings(max_examples=150, deadline=None)
    @given(split_cases(), st.data())
    def test_a_gathered_recount_has_the_reference_bits(self, case, data):
        store, queries, alpha, norm, tile, block = case
        n_ent = store.n_entities
        ref = np.array([_ref_query_distances(q, store, alpha, norm) for q in queries])
        with mock.patch.object(boxalg, "DIST_TILE", tile), \
                mock.patch.object(evalgen, "FORWARD_TILE", block * store.dim):
            for qblock in evalgen.query_blocks(queries):
                boxes = boxalg.execute_ids(qblock.plan, qblock.anchors, qblock.relations, store)
                pairs = data.draw(st.lists(st.tuples(st.integers(0, len(qblock) - 1),
                                                     st.integers(0, n_ent - 1)), min_size=1))
                rows, ids = (np.array(column) for column in zip(*pairs))
                got = boxalg.pair_distances(store.entity_centers, boxes, rows, ids, alpha, norm)
                assert _same_bits(got, ref[qblock.positions[rows], ids])


class TestDistanceTiles:
    def _entities_and_boxes(self, n_entities, n_queries, dim=4):
        """A store's entity rows and two disjuncts of ``n_queries`` stacked
        boxes each."""
        store = init_random(dim, n_entities, 3, seed=5)
        rng = np.random.default_rng(5)
        boxes = [
            Box(rng.normal(size=(n_queries, dim)), rng.uniform(0.0, 0.5, size=(n_queries, dim)))
            for _ in range(2)
        ]
        return store.entity_centers, boxes

    def _reference(self, entities, boxes):
        return np.array([
            np.min([_ref_distance_batch(entities, Box(b.center[i], b.offset[i])) for b in boxes],
                   axis=0)
            for i in range(boxes[0].center.shape[0])
        ])

    def test_an_error_ends_the_pass_at_its_tile(self):
        # tiles of one query by 10 of the 100 rows; the third call gets a
        # tile one column short, so ``_gaps`` raises there and no later
        # tile runs
        entities, boxes = self._entities_and_boxes(100, 6)
        calls = []
        real = boxalg.distance_batch

        def patched(tile, bounds, *args):
            calls.append(tile.shape)
            if len(calls) == 3:
                return real(tile[:, :-1], bounds, *args)
            return real(tile, bounds, *args)

        with mock.patch.object(boxalg, "DIST_TILE", 40), \
                mock.patch.object(boxalg, "distance_batch", patched):
            with pytest.raises(ValidationError) as exc:
                list(boxalg.min_distance_tiles(entities, boxes, 0.02, "l1"))
        assert str(exc.value) == "entity shape (10, 3) does not match box dim 4"
        assert calls == [(10, 4)] * 3

    @pytest.mark.parametrize("tile", [boxalg.DIST_TILE, 40], ids=["one-tile", "many-tiles"])
    def test_every_tile_runs_in_the_calling_thread(self, tile):
        entities, boxes = self._entities_and_boxes(100, 6)
        caller = threading.get_ident()
        threads = []
        real = boxalg.distance_batch

        def patched(*args):
            threads.append(threading.get_ident())
            return real(*args)

        before = threading.active_count()
        with mock.patch.object(boxalg, "DIST_TILE", tile), \
                mock.patch.object(boxalg, "distance_batch", patched):
            got = np.concatenate([d for _, d in boxalg.min_distance_tiles(entities, boxes, 0.02,
                                                                          "l1")])
        assert threading.active_count() == before
        assert threads and set(threads) == {caller}
        # two disjuncts per tile: one tile of all six queries, or 6 x 10 tiles
        assert len(threads) == (2 if tile == boxalg.DIST_TILE else 120)
        eps = boxalg.screen_error(entities, boxes, 0.02)
        assert np.all(np.abs(got - self._reference(entities, boxes)) <= eps[:, None])

    def test_one_set_of_buffers_serves_the_whole_call(self):
        # six chunks of one query, each its own tile pass (a tile takes no
        # second query, as 2 DIST_TILE distances hold fewer than the 100
        # rows), all on the same float32 gap, result and cast buffers
        entities, boxes = self._entities_and_boxes(100, 6)
        passes = []
        real = boxalg._tile_pass

        def recorded(tiles, gaps, sums, cast, *args):
            passes.append((gaps, sums, cast))
            real(tiles, gaps, sums, cast, *args)

        with mock.patch.object(boxalg, "DIST_TILE", 40), \
                mock.patch.object(boxalg, "_tile_pass", recorded):
            got = np.concatenate([d for _, d in boxalg.min_distance_tiles(entities, boxes, 0.02,
                                                                          "l1")])
        assert len(passes) == 6
        gaps, sums, cast = passes[0]
        assert all(p[0] is gaps and p[1] is sums and p[2] is cast for p in passes)
        assert gaps.dtype == sums.dtype == cast.dtype == np.float32
        assert np.allclose(got, self._reference(entities, boxes), rtol=1e-5)

    @pytest.mark.parametrize("n_entities, chunk", [(5000, 6), (200, 160), (50_000, 1)])
    def test_the_chunks_of_each_workload_size(self, n_entities, chunk):
        # the benchmark's entity counts (kg-1p-5000, and the 200-entity grid
        # of kg-mixed-200 and text-ctx) and TestScoringMemory's 50 000, at the
        # benchmark's box dimension 32, under the chunk rule q * (DIST_TILE //
        # (m * q))
        n_queries = 2 * chunk + 1
        entities, boxes = self._entities_and_boxes(n_entities, n_queries, dim=32)
        sizes = [len(d) for _, d in boxalg.min_distance_tiles(entities, boxes, 0.02, "l1")]
        assert sizes == [chunk, chunk, 1]

    @pytest.mark.parametrize("first", [0, 1])
    def test_a_disjunct_that_overflows_is_not_hidden_by_the_minimum(self, first):
        # the overflowing disjunct's center 3.45e38 is past float32's largest
        # value, so its screened distance is not finite, though its float64
        # one, 0.02 * 5e36, is the smaller; the entity's screened distance
        # must not be the other disjunct's finite 3.4e38
        entities = np.array([[3.4e38]])
        boxes = [Box(np.array([[3.45e38]]), np.array([[1e37]])), Box(np.zeros((1, 1)), np.ones((1, 1)))]
        boxes = boxes[first:] + boxes[:first]
        (_, screen), = boxalg.min_distance_tiles(entities, boxes, 0.02, "l1")
        assert not np.isfinite(screen).any()
        exact = boxalg.pair_distances(entities, boxes, np.array([0]), np.array([0]), 0.02, "l1")
        assert np.allclose(exact, 1e35)


class TestTilePassAllocations:
    def test_the_tile_pass_allocates_no_array(self):
        # every gap, result and entity array of a tile is a view of one of
        # the pass's buffers, and each chunk's box corners are made before its
        # tiles, so a tile pass allocates only the views; at d = 1024 one
        # query's corner alone would take 4 KB. numpy's ufunc buffers, 8192
        # elements for each call with a broadcast operand, are set small for
        # the count. A tile of 128 elements makes chunks of two queries, so
        # the six queries take three tile passes, each measured on its own.
        store = init_random(1024, 64, 3, seed=1)
        boxes = [Box(store.entity_centers[:6] + k, np.full((6, 1024), 0.1)) for k in range(2)]
        peaks = []
        real = boxalg._tile_pass

        def measured(*args):
            tracemalloc.start()
            try:
                real(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        def chunks():
            return boxalg.min_distance_tiles(store.entity_centers, boxes, 0.02, "l2")

        with mock.patch.object(boxalg, "DIST_TILE", 128):
            list(chunks())  # numpy sets up its loops on their first calls
            size = np.setbufsize(16)
            try:
                with mock.patch.object(boxalg, "_tile_pass", measured):
                    got = np.concatenate([d for _, d in chunks()])
            finally:
                np.setbufsize(size)
        assert len(peaks) == 3 and max(peaks) < 4096
        ref = [
            np.min([_ref_distance_batch(store.entity_centers, Box(b.center[i], b.offset[i]), 0.02,
                                        "l2") for b in boxes], axis=0)
            for i in range(6)
        ]
        assert np.allclose(got, ref, rtol=1e-5)


# ---------------------------------------------------------------------------
# ranks from the float32 screen


def _min_distance(x, boxes, alpha, norm):
    return min(_ref_distance_batch(x, b, alpha, norm) for b in boxes)


def _planted(boxes, alpha, norm, start, end, target):
    """A point on the segment start .. end whose reference distance to the
    disjuncts ``boxes`` lies just past ``target`` on the side of ``end``,
    found by bisection: the ends' distances lie on either side of it."""
    above = _min_distance(end, boxes, alpha, norm) > target
    a, b = 0.0, 1.0
    for _ in range(80):
        mid = (a + b) / 2
        if (_min_distance(start + mid * (end - start), boxes, alpha, norm) > target) == above:
            b = mid
        else:
            a = mid
    return start + b * (end - start)


SCREEN_SHAPES = ("1p", "2i", "2u", "up")
SPECIALS = st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e-40, -1e-45])


@st.composite
def screen_cases(draw):
    """A store, queries of the 1p, 2i, 2u and up shapes, and the scoring
    settings, with the float32 screen's hard cases drawn in: duplicated
    entity rows (exact ties), signed zeros and subnormals among the
    coordinates, subnormal relation offsets, competitors planted just
    inside and just outside the screen's bound of a hard answer, and at
    times one query with more hard answers than the entity count's bit
    length, which takes the sorted route."""
    dim = draw(st.integers(1, 6))
    n_ent = draw(st.integers(4, 60))
    store = init_random(
        dim, n_ent, 3, draw(st.integers(0, 2**16)), offset_mode=draw(st.sampled_from(OFFSET_MODES))
    )
    ent = st.integers(0, n_ent - 1)
    for src, dst in draw(st.lists(st.tuples(ent, ent), max_size=8)):
        store.entity_centers[dst] = store.entity_centers[src]
    coordinates = st.tuples(ent, st.integers(0, dim - 1), SPECIALS)
    for i, j, value in draw(st.lists(coordinates, max_size=8)):
        store.entity_centers[i, j] = value
    offsets = store.relation_offsets
    for i, j, value in draw(st.lists(st.tuples(st.integers(0, len(offsets) - 1),
                                               st.integers(0, dim - 1),
                                               st.sampled_from([0.0, 5e-324, 1e-310, 1e-40])),
                                     max_size=6)):
        offsets[i, j] = value
    alpha = draw(st.sampled_from((0.0, 0.02, 0.5)))
    norm = draw(st.sampled_from(("l1", "l2")))
    queries = []
    for name in draw(st.lists(st.sampled_from(SCREEN_SHAPES), min_size=1, max_size=6)):
        shape = TYPE_SHAPES[name]
        n_edges = len(shape[1])
        dag = _dag_of_shape(
            shape,
            draw(st.lists(ent, min_size=len(shape[0]), max_size=len(shape[0]))),
            draw(st.lists(st.integers(0, 2), min_size=n_edges, max_size=n_edges)),
            draw(st.lists(st.booleans(), min_size=n_edges, max_size=n_edges)),
        )
        full = draw(st.frozensets(ent, min_size=1))
        train = draw(st.frozensets(st.sampled_from(sorted(full)), max_size=len(full) - 1))
        queries.append(GeneratedQuery(name, dag, train, full))
    if draw(st.booleans()):  # one query ranks its answers from a sort
        q = queries[0]
        many = frozenset(draw(st.lists(ent, min_size=n_ent.bit_length() + 1, unique=True)))
        queries[0] = GeneratedQuery(q.qtype, q.dag, frozenset(), many)
    anchors = {e for q in queries for _, e in q.dag.anchors}
    free = [e for e in range(n_ent) if e not in anchors]
    for _ in range(draw(st.integers(0, 3)) if free else 0):
        q = draw(st.sampled_from(queries))
        answer = draw(st.sampled_from(sorted(q.hard_answers)))
        boxes = _ref_execute_query(q.dag, store)
        stacked = [Box(b.center[None], b.offset[None]) for b in boxes]
        eps = boxalg.screen_error(store.entity_centers, stacked, alpha)[0]
        e = store.entity_centers[answer].copy()
        da = _min_distance(e, boxes, alpha, norm)
        side = draw(st.sampled_from((-1.0, 1.0)))
        target = da + side * eps * draw(st.sampled_from((0.5, 1 - 2**-8, 1 + 2**-8, 2.0)))
        if side > 0:
            far = e + np.ones(dim) * (1.0 + abs(target))
            while _min_distance(far, boxes, alpha, norm) <= target:
                far = e + 2 * (far - e)
            end = far
        elif target > 0:
            end = boxes[0].center  # at distance 0
        else:
            continue
        store.entity_centers[draw(st.sampled_from(free))] = _planted(
            boxes, alpha, norm, e, end, target
        )
    return store, queries, alpha, norm, draw(st.booleans())


def _reference_ranks(queries, store, alpha, norm, raw):
    return [
        _ref_ranks_from_distances(
            _ref_query_distances(q, store, alpha, norm), q.hard_answers, q.answers_full, raw
        )
        for q in queries
    ]


def _block_ranks(queries, store, alpha, norm, raw, counts=None):
    ranks = {}
    for block in evalgen.query_blocks(queries):
        got = evalgen.block_ranks(block, store, "box", alpha, norm, raw, screen_counts=counts)
        flat = iter(got.tolist())
        for i, hard in zip(block.positions.tolist(), block.hard.lists()):
            ranks[i] = dict(zip(hard, flat))
    return [ranks[i] for i in range(len(queries))]


class TestScreenedRanks:
    @settings(max_examples=300, deadline=None)
    @given(screen_cases(), st.integers(1, 120))
    def test_ranks_are_the_float64_ranks(self, case, tile):
        # a tile below the entity count splits each row, and one below twice
        # it splits a query's answers, so the bands span several slices
        store, queries, alpha, norm, raw = case
        counts = {"pairs": 0, "recomputed": 0}
        with mock.patch.object(boxalg, "DIST_TILE", tile):
            got = _block_ranks(queries, store, alpha, norm, raw, counts)
        assert got == _reference_ranks(queries, store, alpha, norm, raw)
        assert sum(len(q.hard_answers) for q in queries) <= counts["recomputed"] <= counts["pairs"]
        assert counts["pairs"] == len(queries) * store.n_entities

    @settings(max_examples=60, deadline=None)
    @given(screen_cases(), st.integers(0, 2**16))
    def test_magnitudes_beyond_float32_are_recounted(self, case, seed):
        # coordinates near 1e38 cast to float32, but their gaps and sums
        # overflow it; under L2 every square does, so every row's screen is
        # non-finite and every competitor is recounted
        store, queries, alpha, norm, raw = case
        rng = np.random.default_rng(seed)
        for table in (store.entity_centers, store.relation_centers):
            table[...] = rng.choice((-1.0, 1.0), table.shape) * rng.uniform(1e38, 3e38, table.shape)
        store.relation_offsets[...] = 1e36
        counts = {"pairs": 0, "recomputed": 0}
        assert _block_ranks(queries, store, alpha, norm, raw, counts) == \
            _reference_ranks(queries, store, alpha, norm, raw)
        if norm == "l2":  # each answer's pair, and each pair of its query's pool
            n = store.n_entities
            assert counts["recomputed"] == sum(
                n if raw else n - len(q.answers_full) + len(q.hard_answers) for q in queries
            )

    def test_a_competitor_is_recounted_only_inside_the_bound(self):
        store = init_random(8, 40, 3, seed=4)
        shape = TYPE_SHAPES["1p"]
        query = GeneratedQuery("1p", _dag_of_shape(shape, [0], [1], [False]),
                               frozenset(), frozenset({5}))
        [box] = _ref_execute_query(query.dag, store)
        stacked = [Box(box.center[None], box.offset[None])]
        e = store.entity_centers[5].copy()
        da = _min_distance(e, [box], 0.02, "l1")
        far = e + 10.0
        for times, recounted in ((0.5, 1), (2.0, 0)):
            eps = boxalg.screen_error(store.entity_centers, stacked, 0.02)[0]
            store.entity_centers[7] = _planted([box], 0.02, "l1", e, far, da + times * eps)
            counts = {"pairs": 0, "recomputed": 0}
            assert _block_ranks([query], store, 0.02, "l1", False, counts) == \
                _reference_ranks([query], store, 0.02, "l1", False)
            assert counts == {"pairs": 40, "recomputed": 1 + recounted}

    @settings(max_examples=150, deadline=None)
    @given(screen_cases(), st.sampled_from((1.0, 1e18, 1e19, 1e20, 1e37, 1e38, 1e39)),
           st.integers(1, 120))
    def test_a_finite_screened_distance_lies_within_its_bound(self, case, scale, tile):
        # scaled stores push the screen's squares, sums and operands past
        # float32's range, where its entries turn non-finite
        store, queries, alpha, norm, _ = case
        for table in (store.entity_centers, store.relation_centers, store.relation_offsets):
            table *= scale
        entities = store.entity_centers
        with mock.patch.object(boxalg, "DIST_TILE", tile):
            for block in evalgen.query_blocks(queries):
                boxes = boxalg.execute_ids(block.plan, block.anchors, block.relations, store)
                eps = boxalg.screen_error(entities, boxes, alpha)
                screen = np.concatenate(
                    [d for _, d in boxalg.min_distance_tiles(entities, boxes, alpha, norm)]
                )
                for i, pos in enumerate(block.positions.tolist()):
                    exact = evalgen.query_distances(queries[pos], store, "box", alpha, norm)
                    finite = np.isfinite(screen[i])
                    assert np.all(np.abs(screen[i, finite] - exact[finite]) <= eps[i])
                    disjuncts = [Box(b.center[i], b.offset[i]) for b in boxes]
                    assert not (~finite & ~_float32_overflows(entities, disjuncts, alpha, norm)).any()


def _float32_overflows(entities, boxes, alpha, norm):
    """Whether some float32 value of each entity's screened distance to the
    disjuncts ``boxes`` may overflow: the float64 value of an operand, a
    gap, a norm's sum of terms or a part of d_out + alpha * d_in comes
    within a margin for rounding of float32's largest magnitude."""
    big = float(np.finfo(np.float32).max) * (1 - 2.0 ** -10)
    over = np.abs(entities).max(axis=1) >= big
    for b in boxes:
        lo, hi = b.center - b.offset, b.center + b.offset
        over |= max(np.abs(a).max() for a in (b.center, lo, hi)) >= big
        p = np.minimum(hi, np.maximum(lo, entities))
        d_out, d_in = (_ref_norm(v, norm) for v in (entities - p, b.center - p))
        for v in (entities - p, b.center - p):
            terms = np.abs(v) if norm == "l1" else v * v
            over |= (np.abs(v).max(axis=1) >= big) | (terms.sum(axis=1) >= big)
        over |= (alpha * d_in >= big) | (d_out + alpha * d_in >= big)
    return over
