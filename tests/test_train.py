"""Tests for losses, analytic gradients, the optimizer, and the train loop."""

import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from srbox import boxalg, cli, evalgen, train
from srbox.boxalg import Box
from srbox.corpus import load_corpus
from srbox.evalgen import build_grid_kg, generate_queries
from srbox.errors import ValidationError
from srbox.params import OFFSET_MODES, init_random
from srbox.rng import STREAM_NEGATIVES, STREAM_QUERY_GEN, substream
from srbox.structures import NodeKind, chain_dag, merge_dag
from srbox.train import (
    AdamState,
    KgSource,
    TextSource,
    TrainConfig,
    TrainExample,
    adam_step,
    grad_check,
    lr_at,
    ptranse_score,
    qa_loss,
    sample_negatives,
    sr_loss,
)

TWO_LN2 = 2.0 * math.log(2.0)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        TrainConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("gamma", 0.0),
            ("gamma", -1.0),
            ("k_negatives", 0),
            ("lr", -0.1),
            ("batch_size", 0),
            ("steps", -1),
            ("negative_pool", "nearby"),
            ("norm", "linf"),
            ("offset_mode", "blended"),
            ("trace_every", 0),
        ],
    )
    def test_invalid_fields(self, field, value):
        cfg = TrainConfig(**{field: value})
        with pytest.raises(ValidationError):
            cfg.validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["gamma", "alpha", "lambda1", "lambda2", "lr", "beta1",
                                       "beta2", "eps"])
    def test_a_non_finite_float_is_named(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be finite, got"):
            TrainConfig(**{field: value}).validate()


class TestTrainExample:
    def test_answer_among_negatives(self):
        ex = TrainExample(chain_dag(0, [(0, False)]), 1, (1, 2))
        with pytest.raises(ValidationError):
            ex.validate()

    def test_duplicate_negatives(self):
        ex = TrainExample(chain_dag(0, [(0, False)]), 1, (2, 2))
        with pytest.raises(ValidationError):
            ex.validate()
        TrainExample(chain_dag(0, [(0, False)]), 1, (2, 2), with_replacement=True).validate()

    def test_empty_negatives(self):
        with pytest.raises(ValidationError):
            TrainExample(chain_dag(0, [(0, False)]), 1, ()).validate()


def entity_seq(entities):
    """A bare Sequence carrying only an entity pool."""
    from srbox.corpus import Sequence

    return Sequence(0, 0, 8, (0,), (), tuple(entities))


class TestSampleNegatives:
    def test_forced_single_choice(self):
        rng = np.random.default_rng(0)
        got = sample_negatives(entity_seq([0, 1]), 0, 1, rng)
        assert got.ids == (1,)
        assert got.with_replacement is False

    def test_excludes_answer_and_distinct(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            got = sample_negatives(list(range(10)), 4, 3, rng)
            assert 4 not in got.ids
            assert len(set(got.ids)) == 3
            assert got.with_replacement is False

    def test_deterministic_under_seed(self):
        a = sample_negatives(list(range(10)), 0, 3, substream(7, STREAM_NEGATIVES))
        b = sample_negatives(list(range(10)), 0, 3, substream(7, STREAM_NEGATIVES))
        assert a == b

    def test_small_pool_flags_replacement(self):
        rng = np.random.default_rng(2)
        got = sample_negatives(list(range(3)), 0, 5, rng)
        assert got.with_replacement is True
        assert len(got.ids) == 5
        assert all(x in (1, 2) for x in got.ids)

    def test_empty_pool_skips(self):
        rng = np.random.default_rng(3)
        assert sample_negatives([7], 7, 2, rng) is None
        assert sample_negatives(entity_seq([]), 0, 2, rng) is None

    def test_bad_k(self):
        with pytest.raises(ValidationError):
            sample_negatives(list(range(4)), 0, 0, np.random.default_rng(0))

    def test_uniform_coverage(self):
        rng = np.random.default_rng(4)
        counts = {i: 0 for i in range(1, 6)}
        for _ in range(4000):
            for e in sample_negatives(list(range(6)), 0, 2, rng).ids:
                counts[e] += 1
        expected = 4000 * 2 / 5
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 13.28  # df=4 critical value at 0.01


@st.composite
def range_draws(draw):
    """A range pool, an answer, known ids in and around it, k and a seed."""
    start = draw(st.integers(0, 50))
    pool = range(start, start + draw(st.integers(1, 300)))
    near = st.integers(start - 5, pool.stop + 5)
    answer = draw(near)
    known = draw(st.lists(near, max_size=draw(st.sampled_from([3, 40, 400]))))
    return pool, answer, tuple(known), draw(st.integers(1, 40)), draw(st.integers(0, 2**32))


class TestRejectionSampler:
    @settings(max_examples=300, deadline=None)
    @given(range_draws())
    def test_range_pool_properties(self, case):
        pool, answer, known, k, seed = case
        free = set(pool) - {answer} - set(known)
        got = sample_negatives(pool, answer, k, np.random.default_rng(seed), known)
        again = sample_negatives(pool, answer, k, np.random.default_rng(seed), known)
        assert got == again
        if not free:
            assert got is None
            return
        assert len(got.ids) == k
        assert set(got.ids) <= free
        assert got.with_replacement == (len(free) < k)
        if not got.with_replacement:
            assert len(set(got.ids)) == k

    def test_known_filling_the_pool_skips(self):
        rng = np.random.default_rng(0)
        assert sample_negatives(range(4), 0, 2, rng, known=(1, 2, 3)) is None
        got = sample_negatives(range(4), 0, 2, rng, known=(1, 2))
        assert got == ((3, 3), True)

    def test_draw_memory_is_o_k(self):
        rng = np.random.default_rng(0)
        sample_negatives(range(10**7), 0, 16, rng)  # warm up lazy allocations
        tracemalloc.start()
        try:
            sample_negatives(range(10**7), 0, 16, rng, known=range(100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # listing 10**7 ids would take hundreds of MB

    def test_uniform_over_free_ids(self):
        rng = np.random.default_rng(5)
        counts = dict.fromkeys(range(2, 40), 0)
        for _ in range(2000):
            for e in sample_negatives(range(40), 0, 4, rng, known=(1,)).ids:
                counts[e] += 1
        expected = 2000 * 4 / 38
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 66.6  # df=37 critical value at 0.01


class TestQaLoss:
    def setup_method(self):
        # alpha=0 makes D equal the exactly representable outer distance.
        self.cfg = TrainConfig(gamma=24.0, alpha=0.0, k_negatives=2)
        self.boxes = [Box(np.zeros(2), np.zeros(2))]

    def test_symmetric_point_constant(self):
        ans = np.array([24.0, 0.0])
        negs = [np.array([0.0, 24.0]), np.array([-24.0, 0.0])]
        got = qa_loss(self.boxes, ans, negs, self.cfg)
        assert got == pytest.approx(TWO_LN2, abs=1e-12)

    def test_ideal_separation_is_tiny(self):
        ans = np.array([0.0, 0.0])
        negs = [np.array([48.0, 0.0])]
        got = qa_loss(self.boxes, ans, negs, self.cfg)
        # both terms are softplus(-24); each about 3.78e-11
        assert got == pytest.approx(2 * math.log1p(math.exp(-24.0)), rel=1e-9)
        assert got < 1e-10

    def test_monotone_in_answer_distance(self):
        negs = [np.array([30.0, 0.0])]
        losses = [
            qa_loss(self.boxes, np.array([d, 0.0]), negs, self.cfg)
            for d in (2.0, 10.0, 20.0, 26.0)
        ]
        assert losses == sorted(losses)

    def test_negative_permutation_invariance(self):
        rng = np.random.default_rng(0)
        negs = [rng.normal(size=2) * 20 for _ in range(6)]
        ans = np.array([3.0, 4.0])
        a = qa_loss(self.boxes, ans, negs, self.cfg)
        b = qa_loss(self.boxes, ans, list(reversed(negs)), self.cfg)
        assert a == pytest.approx(b, abs=1e-12)

    def test_min_over_disjuncts(self):
        far = Box(np.array([100.0, 0.0]), np.zeros(2))
        near = Box(np.array([24.0, 0.0]), np.zeros(2))
        ans = np.array([24.0, 0.0])
        negs = [np.array([0.0, 24.0])]
        got = qa_loss([far, near], ans, negs, self.cfg)
        # the near disjunct gives D(ans) = 0; the negative is at 24 from
        # far's... no: D(neg) = min(|neg-far|, |neg-near|) and both are >= 24
        assert got == qa_loss([near, far], ans, negs, self.cfg)
        assert got < TWO_LN2

    def test_no_negatives_rejected(self):
        with pytest.raises(ValidationError):
            qa_loss(self.boxes, np.zeros(2), [], self.cfg)


def symmetric_store():
    """dim=1 store rigged so every query/answer distance is exactly gamma."""
    store = init_random(1, 4, 1, seed=0)
    store.entity_centers[:] = np.array([[0.0], [24.0], [-24.0], [24.0]])
    store.relation_centers[:] = 0.0
    store.relation_offsets[:] = 0.0
    return store


class TestSrLoss:
    def setup_method(self):
        self.cfg = TrainConfig(gamma=24.0, alpha=0.0, lambda1=1.0, lambda2=0.1)
        self.store = symmetric_store()
        dag = chain_dag(0, [(0, False)])
        self.simple = TrainExample(dag, 1, (2,))
        self.complex = TrainExample(dag, 3, (2,))

    def test_simple_only(self):
        got = sr_loss(self.simple, None, self.store, self.cfg)
        assert got == pytest.approx(TWO_LN2, abs=1e-12)

    def test_weighted_pair_constant(self):
        got = sr_loss(self.simple, self.complex, self.store, self.cfg)
        assert got == pytest.approx(1.1 * TWO_LN2, abs=1e-12)

    def test_lambda2_zero_matches_simple(self):
        cfg = TrainConfig(gamma=24.0, alpha=0.0, lambda1=1.0, lambda2=0.0)
        a = sr_loss(self.simple, self.complex, self.store, cfg)
        b = sr_loss(self.simple, None, self.store, cfg)
        assert a == b

    def test_common_scale(self):
        cfg2 = TrainConfig(gamma=24.0, alpha=0.0, lambda1=3.0, lambda2=0.3)
        a = sr_loss(self.simple, self.complex, self.store, self.cfg)
        b = sr_loss(self.simple, self.complex, self.store, cfg2)
        assert b == pytest.approx(3.0 * a, rel=1e-12)


class TestBackward:
    def test_gradients_sparse(self):
        store = init_random(4, 10, 3, seed=1)
        ex = TrainExample(chain_dag(2, [(1, False)]), 5, (7, 8))
        grads = boxalg.Grads(store)
        train._loss_and_grads(ex, store, TrainConfig(k_negatives=2), 1.0, grads)
        assert set(grads.entity) <= {2, 5, 7, 8}
        assert set(grads.rel_center) == {1}
        assert set(grads.rel_offset) == {0}
        assert grads.net == {}

    def test_intersection_touches_net(self):
        store = init_random(4, 10, 3, seed=1)
        dag = merge_dag([(0, 0, False), (1, 1, False)])
        ex = TrainExample(dag, 5, (7,))
        grads = boxalg.Grads(store)
        train._loss_and_grads(ex, store, TrainConfig(k_negatives=1), 1.0, grads)
        assert set(grads.net) == set(boxalg.NET_FIELDS)

    def test_weight_scales_gradients(self):
        store = init_random(4, 10, 3, seed=1)
        ex = TrainExample(chain_dag(2, [(1, False)]), 5, (7, 8))
        cfg = TrainConfig(k_negatives=2)
        g1, g2 = boxalg.Grads(store), boxalg.Grads(store)
        train._loss_and_grads(ex, store, cfg, 1.0, g1)
        train._loss_and_grads(ex, store, cfg, 2.5, g2)
        for ent, g in g1.entity.items():
            np.testing.assert_allclose(g2.entity[ent], 2.5 * g, rtol=1e-12)


class TestGradCheck:
    def test_small_suite_passes(self):
        store = init_random(5, 12, 4, seed=3)
        err = grad_check(store, n_trials=40, seed=11)
        assert err <= 1e-4

    def test_zero_trials(self):
        store = init_random(4, 8, 3, seed=0)
        assert grad_check(store, n_trials=0, seed=0) == 0.0

    def test_negative_control_sign_bug(self, monkeypatch):
        # Flip the sign of the entity gradient in the distance backward and
        # the checker must blow past 1e-1.
        store = init_random(5, 12, 4, seed=3)
        original = boxalg.distance_backward

        def flipped(cache, dd):
            de, dc, doff = original(cache, dd)
            return -de, dc, doff

        monkeypatch.setattr(boxalg, "distance_backward", flipped)
        err = grad_check(store, n_trials=10, seed=11)
        assert err > 1e-1


class TestAdam:
    def test_offsets_clamped(self):
        store = init_random(3, 4, 2, seed=0)
        grads = boxalg.Grads(store)
        grads.add("rel_offset", 0, np.full(3, 100.0))  # strong push downward
        adam_step(store, grads, AdamState(), TrainConfig(), lr=10.0)
        assert np.all(store.relation_offsets >= 0.0)

    def test_untouched_rows_unchanged(self):
        store = init_random(3, 4, 2, seed=0)
        before = store.copy()
        grads = boxalg.Grads(store)
        grads.add("entity", 1, np.ones(3))
        adam_step(store, grads, AdamState(), TrainConfig(), lr=0.1)
        np.testing.assert_array_equal(store.entity_centers[0], before.entity_centers[0])
        assert not np.array_equal(store.entity_centers[1], before.entity_centers[1])
        np.testing.assert_array_equal(store.relation_centers, before.relation_centers)

    def test_first_step_magnitude(self):
        # With bias correction the first update is lr * g / (|g| + eps).
        store = init_random(2, 2, 1, seed=0)
        before = store.entity_centers[0].copy()
        grads = boxalg.Grads(store)
        grads.add("entity", 0, np.array([3.0, -0.5]))
        adam_step(store, grads, AdamState(), TrainConfig(eps=0.0), lr=0.01)
        delta = store.entity_centers[0] - before
        np.testing.assert_allclose(delta, [-0.01, 0.01], rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_update_raises_before_any_write(self, bad):
        # 1e200 squares past the float range inside the second moment
        store = init_random(2, 3, 1, seed=0)
        before = store.copy()
        grads = boxalg.Grads(store)
        grads.add("entity", 0, np.ones(2))
        grads.add("rel_center", 0, np.array([bad, 0.0]))
        with pytest.raises(ValidationError, match="table rel_center at step 1"):
            adam_step(store, grads, AdamState(), TrainConfig(), lr=0.1)
        assert store.equals(before)

    def test_non_finite_update_leaves_state_unchanged(self):
        store = init_random(2, 3, 1, seed=0)
        state = AdamState()
        first = boxalg.Grads(store)
        first.add("entity", 1, np.ones(2))
        first.add("rel_center", 0, np.ones(2))
        adam_step(store, first, state, TrainConfig(), lr=0.1)
        before = store.copy()
        moments = {key: (state.m[key].copy(), state.v[key].copy()) for key in state.m}
        grads = boxalg.Grads(store)
        grads.add("entity", 0, np.ones(2))  # a finite table ahead of the bad one
        grads.add("rel_center", 1, np.array([np.nan, 0.0]))
        with pytest.raises(ValidationError, match="table rel_center at step 2"):
            adam_step(store, grads, state, TrainConfig(), lr=0.1)
        assert store.equals(before)
        assert state.step == 1
        assert list(state.m) == list(moments) and list(state.v) == list(moments)
        for key, (m, v) in moments.items():
            assert _same_bits(state.m[key], m) and _same_bits(state.v[key], v)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# The per-row optimizer and per-row loss code that adam_step, _margin_loss,
# _loss_and_grads and min_distance_with_cache replaced, kept as oracles.


class _RefAdamState:
    def __init__(self):
        self.step = 0
        self.m = {}
        self.v = {}


def _ref_adam_row(state, key, grad, lr, cfg, bc1, bc2):
    m = state.m[key] = cfg.beta1 * state.m.get(key, 0.0) + (1.0 - cfg.beta1) * grad
    v = state.v[key] = cfg.beta2 * state.v.get(key, 0.0) + (1.0 - cfg.beta2) * grad * grad
    return lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


def _ref_adam_step(params, grads, state, cfg, lr):
    state.step += 1
    bc1 = 1.0 - cfg.beta1 ** state.step
    bc2 = 1.0 - cfg.beta2 ** state.step
    updates = {
        table: [(key, _ref_adam_row(state, (table, key), slots[key], lr, cfg, bc1, bc2))
                for key in sorted(slots)]
        for table, slots in grads.tables().items()
    }
    targets = params.grad_targets()
    for table, rows in updates.items():
        for key, update in rows:
            targets[table][key] -= update
    np.maximum(params.relation_offsets, 0.0, out=params.relation_offsets)


def _ref_min_distance_with_cache(entities, boxes, alpha, norm):
    per_box = [boxalg.distance_with_cache(entities, b, alpha, norm) for b in boxes]
    all_d = np.stack([dist.d for dist, _ in per_box])
    argmins = np.argmin(all_d, axis=0)
    rows = np.arange(all_d.shape[1])
    picked = [np.stack(part)[argmins, rows] for part in zip(*(c[:2] for _, c in per_box))]
    return all_d[argmins, rows], argmins, boxalg.DistanceCache(*picked, alpha, norm)


def _ref_margin_loss(d, gamma):
    k = len(d) - 1
    loss = float(np.logaddexp(0.0, float(d[0]) - gamma))
    for d_neg in d[1:]:
        loss += float(np.logaddexp(0.0, gamma - float(d_neg))) / k
    return loss


def _ref_loss_and_grads(example, params, cfg, weight, grads):
    trace = boxalg.execute_with_trace(example.query, params)
    boxes = trace.answer_boxes()
    k = len(example.negatives)
    ents = (example.answer, *example.negatives)
    d_min, argmins, cache = _ref_min_distance_with_cache(
        params.entity_centers[list(ents)], boxes, cfg.alpha, cfg.norm
    )
    loss = _ref_margin_loss(d_min, cfg.gamma) * weight
    coef = [weight * train._sigmoid(float(d_min[0]) - cfg.gamma)]
    coef += [-weight * train._sigmoid(cfg.gamma - float(d)) / k for d in d_min[1:]]
    de, dc, doff = boxalg.distance_backward(cache, coef)
    for ent, g in zip(ents, de):
        grads.add("entity", ent, g)
    seeds = [None] * len(boxes)
    for i, j in enumerate(argmins):
        if seeds[j] is None:
            seeds[j] = [dc[i], doff[i]]
        else:
            seeds[j][0] += dc[i]
            seeds[j][1] += doff[i]
    boxalg.backward_through_dag(trace, seeds, grads)
    signature = b"".join(
        (trace.signature(), argmins.astype("<u4").tobytes(), cache.signature())
    )
    return loss, signature


def _assert_same_grads(got, ref):
    for table, slots in ref.tables().items():
        mine = got.tables()[table]
        assert list(mine) == list(slots), table
        assert all(_same_bits(mine[key], g) for key, g in slots.items()), table


@st.composite
def adam_runs(draw):
    """A random store and a few steps of random gradients, each touching a
    random subset of the rows of every table and of the net's fields."""
    dim = draw(st.integers(1, 4))
    n_ent = draw(st.integers(1, 6))
    n_rel = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(OFFSET_MODES))
    store = init_random(dim, n_ent, n_rel, draw(st.integers(0, 2**16)), offset_mode=mode)
    shapes = {table: arr.shape[1:] for table, arr in store.grad_targets().items() if table != "net"}
    rows = {"entity": n_ent, "rel_center": 2 * n_rel, "rel_offset": len(store.relation_offsets)}
    value = st.floats(-4.0, 4.0, width=64) | st.sampled_from([0.0, -0.0, 1e-300])
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        step = []
        for table, n in rows.items():
            for key in draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)):
                step.append((table, key, draw(hnp.arrays(np.float64, shapes[table], elements=value))))
        for name in draw(st.lists(st.sampled_from(boxalg.NET_FIELDS), unique=True)):
            shape = store.net.arrays()[name].shape
            step.append(("net", name, draw(hnp.arrays(np.float64, shape, elements=value))))
        steps.append((step, draw(st.floats(0.0, 1.0))))
    return store, steps


class TestLazyAdamMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(adam_runs())
    def test_params_and_moments_match_bit_for_bit(self, case):
        store, steps = case
        ref_store = store.copy()
        cfg = TrainConfig()
        state, ref_state = AdamState(), _RefAdamState()
        for step, lr in steps:
            grads, ref_grads = boxalg.Grads(store), boxalg.Grads(ref_store)
            for table, key, g in step:
                grads.add(table, key, g)
                ref_grads.add(table, key, g)
            params_before = store.copy()
            moments_before = {key: (state.m[key].copy(), state.v[key].copy()) for key in state.m}
            adam_step(store, grads, state, cfg, lr)
            _ref_adam_step(ref_store, ref_grads, ref_state, cfg, lr)
            assert state.step == ref_state.step
            for name, arr in store.arrays().items():
                assert _same_bits(arr, ref_store.arrays()[name]), name
            for (table, key), ref_m in ref_state.m.items():
                name = key if table == "net" else table
                index = ... if table == "net" else key
                assert _same_bits(state.m[name][index], ref_m)
                assert _same_bits(state.v[name][index], ref_state.v[(table, key)])
            # a row no gradient of this step touches keeps its moments and its
            # parameters (offsets start nonnegative, so the clamp leaves them)
            touched = {(table, key) for table, key, _ in step}
            targets, old_targets = store.grad_targets(), params_before.grad_targets()
            for table in ("entity", "rel_center", "rel_offset"):
                for row in range(len(targets[table])):
                    if (table, row) in touched:
                        continue
                    assert _same_bits(targets[table][row], old_targets[table][row])
                    if table in moments_before:
                        m, v = moments_before[table]
                        assert _same_bits(state.m[table][row], m[row])
                        assert _same_bits(state.v[table][row], v[row])
            for name in boxalg.NET_FIELDS:
                if ("net", name) not in touched:
                    assert _same_bits(targets["net"][name], old_targets["net"][name])
                    if name in moments_before:
                        assert _same_bits(state.m[name], moments_before[name][0])

    @settings(max_examples=100, deadline=None)
    @given(adam_runs(), st.sampled_from([1, 3, 7, 64]))
    def test_scale_matches_scaling_the_grads_first(self, case, batch):
        store, steps = case
        scaled_store = store.copy()
        cfg = TrainConfig()
        state, scaled_state = AdamState(), AdamState()
        for step, lr in steps:
            grads, scaled = boxalg.Grads(store), boxalg.Grads(scaled_store)
            for table, key, g in step:
                grads.add(table, key, g)
                scaled.add(table, key, g)
            adam_step(store, grads, state, cfg, lr, scale=1.0 / batch)
            for slots in scaled.tables().values():
                for g in slots.values():
                    g *= 1.0 / batch
            adam_step(scaled_store, scaled, scaled_state, cfg, lr)
            for name, arr in store.arrays().items():
                assert _same_bits(arr, scaled_store.arrays()[name]), name
            for key in scaled_state.m:
                assert _same_bits(state.m[key], scaled_state.m[key])
                assert _same_bits(state.v[key], scaled_state.v[key])


LOSS_SHAPES = ("1p", "2p", "3p", "2i", "3i", "2i_inverse", "2u", "up")


@st.composite
def loss_cases(draw):
    """An example of one of the trainable or union shapes on a random store,
    some with repeated negatives, an answer that is also an anchor, or every
    center and offset collapsed onto zero (all hinges at once)."""
    dim = draw(st.integers(1, 5))
    n_ent = draw(st.integers(2, 16))
    n_rel = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(OFFSET_MODES))
    store = init_random(dim, n_ent, n_rel, draw(st.integers(0, 2**16)), offset_mode=mode)
    if draw(st.booleans()) and draw(st.booleans()):
        for arr in (store.entity_centers, store.relation_centers, store.relation_offsets):
            arr[...] = 0.0
    ent = st.integers(0, n_ent - 1)
    hop = st.tuples(st.integers(0, n_rel - 1), st.booleans())
    branch = lambda inverse: st.tuples(ent, st.integers(0, n_rel - 1), inverse)
    shape = draw(st.sampled_from(LOSS_SHAPES))
    if shape in ("1p", "2p", "3p"):
        n = int(shape[0])
        dag = chain_dag(draw(ent), draw(st.lists(hop, min_size=n, max_size=n)))
    elif shape == "up":
        dag = merge_dag(draw(st.lists(branch(st.booleans()), min_size=2, max_size=2)),
                        NodeKind.UNION, [draw(hop)])
    else:
        n = int(shape[0])
        kind = NodeKind.UNION if shape == "2u" else NodeKind.INTERSECTION
        inverse = st.just(True) if shape == "2i_inverse" else st.booleans()
        dag = merge_dag(draw(st.lists(branch(inverse), min_size=n, max_size=n)), kind)
    anchors = [e for _, e in dag.anchors]
    answer = draw(st.sampled_from(anchors) | ent)
    others = [e for e in range(n_ent) if e != answer]
    replace = draw(st.booleans())
    if replace:
        negatives = draw(st.lists(st.sampled_from(others), min_size=1, max_size=12))
    else:
        negatives = draw(st.lists(st.sampled_from(others), min_size=1, max_size=12, unique=True))
    example = TrainExample(dag, answer, tuple(negatives), with_replacement=replace)
    cfg = TrainConfig(norm=draw(st.sampled_from(("l1", "l2"))), k_negatives=len(negatives),
                      gamma=draw(st.sampled_from((2.0, 24.0))))
    return store, example, cfg, draw(st.sampled_from((1.0, 0.1, 2.5, 0.0)))


class TestLossFastPathMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(loss_cases())
    def test_loss_signature_and_grads_match_bit_for_bit(self, case):
        store, example, cfg, weight = case
        grads, ref_grads = boxalg.Grads(store), boxalg.Grads(store)
        loss, sig = train._loss_and_grads(example, store, cfg, weight, grads, want_signature=True)
        ref_loss, ref_sig = _ref_loss_and_grads(example, store, cfg, weight, ref_grads)
        assert _same_bits(loss, ref_loss)
        assert sig == ref_sig
        _assert_same_grads(grads, ref_grads)

    @settings(max_examples=200, deadline=None)
    @given(loss_cases())
    def test_min_distance_matches_bit_for_bit(self, case):
        store, example, cfg, _ = case
        boxes = boxalg.execute_with_trace(example.query, store).answer_boxes()
        ents = store.entity_centers[[example.answer, *example.negatives]]
        got = boxalg.min_distance_with_cache(ents, boxes, cfg.alpha, cfg.norm)
        ref = _ref_min_distance_with_cache(ents, boxes, cfg.alpha, cfg.norm)
        assert _same_bits(got[0], ref[0]) and _same_bits(got[1], ref[1])
        assert got[2].alpha == ref[2].alpha and got[2].norm == ref[2].norm
        assert all(_same_bits(a, b) for a, b in zip(got[2][:4], ref[2][:4]))


class TestLrSchedule:
    def test_warmup_and_decay(self):
        cfg = TrainConfig(lr=1.0, steps=100, warmup=True)
        values = [lr_at(cfg, s) for s in range(100)]
        assert values[0] == pytest.approx(0.1)
        assert max(values) == pytest.approx(1.0)
        assert values[9] == pytest.approx(1.0)
        assert values[99] == pytest.approx(1.0 / 90.0)
        assert all(a <= b + 1e-12 for a, b in zip(values[:9], values[1:10]))
        assert all(a >= b - 1e-12 for a, b in zip(values[10:], values[11:]))

    def test_constant_when_disabled(self):
        cfg = TrainConfig(lr=0.5, steps=100, warmup=False)
        assert {lr_at(cfg, s) for s in (0, 50, 99)} == {0.5}


def toy_corpus(tmp_path):
    recs = [
        {
            "id": "d0",
            "tokens": [f"t{i}" for i in range(12)],
            "mentions": [
                {"entity": "A", "start": 0, "end": 0},
                {"entity": "B", "start": 2, "end": 2},
                {"entity": "C", "start": 4, "end": 4},
                {"entity": "D", "start": 6, "end": 6},
            ],
            "triplets": [
                {"head": "A", "relation": "r1", "tail": "B"},
                {"head": "B", "relation": "r2", "tail": "C"},
                {"head": "A", "relation": "r3", "tail": "C"},
            ],
        }
    ]
    path = tmp_path / "toy.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for r in recs:
            fh.write(json.dumps(r) + "\n")
    return load_corpus(path)


class TestTrainLoop:
    def test_zero_steps_unchanged(self, tmp_path):
        corpus = toy_corpus(tmp_path)
        store = init_random(4, corpus.n_entities, corpus.n_relations, seed=0)
        before = store.copy()
        after, trace = train.train(TextSource(corpus, 12), store, TrainConfig(steps=0))
        assert after.equals(before)
        assert trace == []

    def test_zero_lr_unchanged(self, tmp_path):
        corpus = toy_corpus(tmp_path)
        store = init_random(4, corpus.n_entities, corpus.n_relations, seed=0)
        before = store.copy()
        cfg = TrainConfig(steps=5, lr=0.0, k_negatives=2, batch_size=2, seed=0)
        after, _ = train.train(TextSource(corpus, 12), store, cfg)
        assert after.equals(before)

    def test_deterministic_batch_one(self, tmp_path):
        corpus = toy_corpus(tmp_path)
        cfg = TrainConfig(steps=25, lr=0.05, k_negatives=2, batch_size=1, seed=9)
        runs = []
        for _ in range(2):
            store = init_random(4, corpus.n_entities, corpus.n_relations, seed=3)
            after, trace = train.train(TextSource(corpus, 12), store, cfg)
            runs.append((after, trace))
        assert runs[0][0].equals(runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_loss_decreases_on_toy_corpus(self, tmp_path):
        corpus = toy_corpus(tmp_path)
        wins = 0
        for seed in range(10):
            store = init_random(8, corpus.n_entities, corpus.n_relations, seed=seed)
            cfg = TrainConfig(
                steps=10, lr=0.05, k_negatives=2, batch_size=4, seed=seed,
                gamma=2.0, trace_every=1, warmup=False,
            )
            _, trace = train.train(TextSource(corpus, 12), store, cfg)
            by_step = {rec["step"]: rec["loss"] for rec in trace}
            if by_step[9] < by_step[3]:
                wins += 1
        assert wins >= 8

    def test_trace_cadence_and_callback(self, tmp_path):
        corpus = toy_corpus(tmp_path)
        store = init_random(4, corpus.n_entities, corpus.n_relations, seed=0)
        seen = []
        cfg = TrainConfig(steps=7, lr=0.01, k_negatives=2, batch_size=1, seed=0, trace_every=3)
        _, trace = train.train(TextSource(corpus, 12), store, cfg, callback=seen.append)
        assert [r["step"] for r in trace] == [0, 3, 6]
        assert seen == trace
        assert all({"step", "loss", "loss_simple", "loss_complex", "lr"} <= set(r) for r in trace)

    def test_aborts_on_non_finite(self, tmp_path):
        corpus = toy_corpus(tmp_path)
        store = init_random(4, corpus.n_entities, corpus.n_relations, seed=0)
        cfg = TrainConfig(steps=5, lr=1e200, k_negatives=2, batch_size=1, seed=0, warmup=False)
        with pytest.raises(ValidationError, match="step"):
            train.train(TextSource(corpus, 12), store, cfg)

    def test_offsets_nonnegative_throughout(self, tmp_path):
        corpus = toy_corpus(tmp_path)
        store = init_random(4, corpus.n_entities, corpus.n_relations, seed=1)
        cfg = TrainConfig(steps=30, lr=0.2, k_negatives=2, batch_size=2, seed=1, gamma=1.0)
        after, _ = train.train(TextSource(corpus, 12), store, cfg)
        assert np.all(after.relation_offsets >= 0.0)

    def test_kg_source_runs_and_filters(self):
        triplets = [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 4), (0, 1, 2)]
        src = KgSource(
            triplets, [], 5, answer_sets=KgSource.build_answer_sets(triplets)
        )
        store = init_random(4, 5, 2, seed=0)
        cfg = TrainConfig(steps=10, lr=0.05, k_negatives=2, batch_size=2, seed=0)
        after, trace = train.train(src, store, cfg)
        assert trace[-1]["step"] == 9
        assert np.isfinite(trace[-1]["loss"])

    def test_steps_that_form_no_example_still_write_their_records(self):
        # one entity with a self-loop: its query's only entity is its answer,
        # so no negative is ever free and every draw is skipped (a text
        # corpus cannot say this: its loader rejects self-loops)
        src = KgSource([(0, 0, 0)], [], 1)
        store = init_random(4, 1, 1, seed=0)
        before = store.copy()
        seen = []
        cfg = TrainConfig(steps=5, k_negatives=2, batch_size=3, seed=0, trace_every=3)
        after, trace = train.train(src, store, cfg, callback=seen.append)
        assert after.equals(before)
        assert seen == trace
        assert [r["step"] for r in trace] == [0, 3, 4]
        for r in trace:
            assert r["loss"] is None and r["loss_simple"] is None and r["loss_complex"] is None
            assert r["with_replacement_frac"] is None
            assert r["lr"] == lr_at(cfg, r["step"])
        # draws since the previous record: step 0, steps 1-3, step 4
        assert [r["skipped_draws"] for r in trace] == [3, 9, 3]
        assert [r["examples"] for r in trace] == [0, 0, 0]

    def test_empty_kg_source_rejected(self):
        store = init_random(4, 5, 2, seed=0)
        with pytest.raises(ValidationError):
            train.train(KgSource([], [], 5), store, TrainConfig(steps=1))


def record_examples(monkeypatch):
    """Every example train() forms, with the text window its pick was drawn
    from (None in kg mode). A step draws all its picks before it fits any,
    so each example finds its window by the identity of its pick's DAG."""
    seen = []
    windows = {}  # id of a drawn pick's query -> the window it came from
    draw, loss_and_grads = train._text_draw, train._loss_and_grads

    def drawn(*args):
        out = draw(*args)
        windows.update((id(dag), out[0]) for dag, _, _ in out[1])
        return out

    def recorded(example, *args, **kwargs):
        seen.append((example, windows.get(id(example.query))))
        return loss_and_grads(example, *args, **kwargs)

    monkeypatch.setattr(train, "_text_draw", drawn)
    monkeypatch.setattr(train, "_loss_and_grads", recorded)
    return seen


def multi_answer_corpus(tmp_path):
    """Windows where heads have several tails per relation and tails several
    heads, so most queries have co-answers besides the sampled one."""
    names = [f"E{i}" for i in range(10)]
    recs = []
    for d in range(6):
        ents = [names[(d + j) % 10] for j in range(5)]
        trips = [(ents[0], "r1", ents[1]), (ents[0], "r1", ents[2]), (ents[0], "r1", ents[3]),
                 (ents[4], "r1", ents[2]), (ents[1], "r2", ents[4]), (ents[2], "r2", ents[4]),
                 (ents[3], "r2", ents[0])]
        recs.append({
            "id": f"d{d}",
            "tokens": [f"t{i}" for i in range(10)],
            "mentions": [{"entity": e, "start": 2 * j, "end": 2 * j} for j, e in enumerate(ents)],
            "triplets": [{"head": h, "relation": r, "tail": t} for h, r, t in trips],
        })
    path = tmp_path / "multi.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    return load_corpus(path)


class TestNoKnownAnswerAmongNegatives:
    def test_kg_mode(self, monkeypatch):
        kg = build_grid_kg(width=6, height=5, seed=1)
        rng = substream(0, STREAM_QUERY_GEN)
        pool = [
            (q.dag, tuple(sorted(q.answers_train)))
            for qtype in ("2p", "2i", "3i")
            for q in generate_queries(kg, qtype, 10, "train", rng)
        ]
        answer_sets = kg.train_index.fwd
        complex_answers = {dag: answers for dag, answers in pool}
        seen = record_examples(monkeypatch)
        src = KgSource(kg.train, pool, kg.n_entities, answer_sets=answer_sets)
        store = init_random(4, kg.n_entities, kg.n_relations, seed=0)
        train.train(src, store, TrainConfig(steps=20, batch_size=8, k_negatives=12, seed=2))
        co_answers = 0
        for ex, _ in seen:
            if ex.query in complex_answers:
                known = complex_answers[ex.query]
            else:
                (_, h), = ex.query.anchors
                known = answer_sets.get((h, ex.query.edges[0].relation))
            assert ex.answer in known
            assert not set(ex.negatives) & set(known)
            co_answers += len(known) > 1
        assert len(seen) == 320 and co_answers > 50

    def test_kg_source_builds_answer_sets_when_not_given(self, monkeypatch):
        kg = build_grid_kg(width=6, height=5, seed=1)
        seen = record_examples(monkeypatch)
        src = KgSource(kg.train, [], kg.n_entities)
        store = init_random(4, kg.n_entities, kg.n_relations, seed=0)
        train.train(src, store, TrainConfig(steps=20, batch_size=8, k_negatives=12, seed=2))
        co_answers = 0
        for ex, _ in seen:
            (_, h), = ex.query.anchors
            known = kg.train_index.fwd.get((h, ex.query.edges[0].relation))
            assert not set(ex.negatives) & set(known)
            co_answers += len(known) > 1
        assert len(seen) == 160 and co_answers > 20

    @pytest.mark.parametrize("negative_pool", ["same_sequence", "global"])
    def test_text_mode_window_answers(self, tmp_path, monkeypatch, negative_pool):
        corpus = multi_answer_corpus(tmp_path)
        seen = record_examples(monkeypatch)
        store = init_random(4, corpus.n_entities, corpus.n_relations, seed=0)
        cfg = TrainConfig(steps=20, batch_size=8, k_negatives=3, seed=4,
                          negative_pool=negative_pool)
        train.train(TextSource(corpus, 20), store, cfg)
        co_answers = 0
        for ex, seq in seen:
            edges = [(t.head, t.relation, t.tail) for t in seq.triplets]
            known = evalgen.brute_force_answers(ex.query, edges)
            assert ex.answer in known
            assert not set(ex.negatives) & known
            co_answers += len(known) > 1
        assert len(seen) > 100 and co_answers > 30


class TestStepPhases:
    """Each step draws all of its picks' negatives before it fits any
    example, and updates last: the fit phase reads only what the draw phase
    formed."""

    @pytest.mark.parametrize("mode", ["kg", "text"])
    def test_every_step_samples_before_it_fits(self, tmp_path, monkeypatch, mode):
        events = []
        for name in ("sample_negatives", "_loss_and_grads", "adam_step"):
            def logged(*args, _name=name, _call=getattr(train, name), **kwargs):
                events.append(_name)
                return _call(*args, **kwargs)

            monkeypatch.setattr(train, name, logged)
        if mode == "kg":
            kg = build_grid_kg(width=6, height=5, seed=1)
            pool = [(q.dag, tuple(sorted(q.answers_train)))
                    for q in generate_queries(kg, "2i", 5, "train", substream(0, STREAM_QUERY_GEN))]
            source = KgSource(kg.train, pool, kg.n_entities)
            store = init_random(4, kg.n_entities, kg.n_relations, seed=0)
        else:
            corpus = multi_answer_corpus(tmp_path)
            source = TextSource(corpus, 20)
            store = init_random(4, corpus.n_entities, corpus.n_relations, seed=0)
        cfg = TrainConfig(steps=6, batch_size=4, k_negatives=2, seed=3, trace_every=1)
        train.train(source, store, cfg, callback=lambda record: events.append("end"))
        steps = "".join({"sample_negatives": "s", "_loss_and_grads": "f",
                         "adam_step": "a", "end": "|"}[e] for e in events).split("|")[:-1]
        assert len(steps) == cfg.steps
        for step in steps:
            assert re.fullmatch("s+f+a", step), step


class TestTraceSamplingCounters:
    """Each record counts the negative draws made since the previous one,
    and the examples they formed (the formed-example count that can stand in
    for counting calls of the per-example loss)."""

    def run_counted(self, monkeypatch, source, store, cfg):
        draws = []  # per negative draw: its with-replacement flag, None when skipped
        sample = train.sample_negatives

        def counted(*args, **kwargs):
            got = sample(*args, **kwargs)
            draws.append(None if got is None else got.with_replacement)
            return got

        monkeypatch.setattr(train, "sample_negatives", counted)
        marks = []
        train.train(source, store, cfg, callback=lambda rec: marks.append((rec, len(draws))))
        start = 0
        for rec, end in marks:
            covered = draws[start:end]
            formed = [flag for flag in covered if flag is not None]
            assert rec["examples"] == len(formed)
            assert rec["skipped_draws"] == len(covered) - len(formed)
            assert rec["with_replacement_frac"] == sum(formed) / len(formed)
            start = end
        return [rec["step"] for rec, _ in marks], draws

    def test_text_mode(self, tmp_path, monkeypatch):
        corpus = multi_answer_corpus(tmp_path)
        store = init_random(4, corpus.n_entities, corpus.n_relations, seed=0)
        cfg = TrainConfig(steps=7, k_negatives=3, batch_size=4, seed=0, trace_every=3)
        steps, draws = self.run_counted(monkeypatch, TextSource(corpus, 10), store, cfg)
        assert steps == [0, 3, 6]
        assert 0 < sum(flag is True for flag in draws) < len(draws)

    def test_kg_mode_skips_queries_without_free_negatives(self, monkeypatch):
        # (0, 0) has every entity as an answer; (1, 1) leaves two free ids
        triplets = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 1, 2)]
        src = KgSource(triplets, [], 3, answer_sets=KgSource.build_answer_sets(triplets))
        cfg = TrainConfig(steps=9, k_negatives=3, batch_size=4, seed=0, trace_every=4)
        steps, draws = self.run_counted(monkeypatch, src, init_random(4, 3, 2, seed=0), cfg)
        assert steps[-1] == 8
        assert None in draws and True in draws


class TestExampleStream:
    """Which examples training forms, in order, pinned by digest. Each record
    holds an example's query (anchors, edges, nodes, answer node), answer,
    negatives, with-replacement flag and weight: no float math enters it, so
    the pins rest on the seeded RNG streams and the data alone (digests
    taken under numpy 2.4.6), and a change to what a draw picks or to the
    order of the draws fails."""

    PINNED = {
        "text same_sequence": (320, "75a861d9cae95edfa4283f98a0508ce31071e9ea3dc32ff39d898e8c82cc3dc5"),
        "text global": (320, "4b0b3a25cedc35ccd3e9d3709ccdfc7f5dd79897dbfeb2dc301b770d8e7ee85d"),
        "kg mixed pool": (320, "447b3b6c735e02474ac4eabfa3cea43d068b3ceb123684eac585862ba9ed09a3"),
    }

    def stream(self, monkeypatch, argv):
        records = []
        loss_and_grads = train._loss_and_grads

        def recorded(example, params, cfg, weight, grads, want_signature=False):
            q = example.query
            records.append([
                [list(a) for a in q.anchors],
                [[e.src, e.dst, e.relation, e.inverse] for e in q.edges],
                [[n, kind.value] for n, kind in q.nodes],
                q.answer_node, example.answer, list(example.negatives),
                example.with_replacement, weight,
            ])
            return loss_and_grads(example, params, cfg, weight, grads, want_signature)

        monkeypatch.setattr(train, "_loss_and_grads", recorded)
        assert cli.main(["train", *map(str, argv), "--dim", "4", "--seed", "5"]) == 0
        # json.dumps rejects a numpy integer: every id must be a Python int
        return len(records), hashlib.sha256(json.dumps(records).encode()).hexdigest()

    @pytest.mark.parametrize("negative_pool", ["same_sequence", "global"])
    def test_text_mode(self, tmp_path, monkeypatch, negative_pool):
        multi_answer_corpus(tmp_path)
        got = self.stream(monkeypatch, [
            "--mode", "text", "--corpus", tmp_path / "multi.jsonl", "--seq-len", 20,
            "--steps", 20, "--batch-size", 8, "--k-negatives", 3,
            "--negative-pool", negative_pool, "--out", tmp_path / "out",
        ])
        assert got == self.PINNED[f"text {negative_pool}"]

    def test_kg_mode_with_a_complex_pool(self, tmp_path, monkeypatch):
        kg = build_grid_kg(width=6, height=5, seed=1)
        (tmp_path / "kg").mkdir()
        evalgen.save_kg(kg, str(tmp_path / "kg"))
        got = self.stream(monkeypatch, [
            "--mode", "kg", "--kg", tmp_path / "kg", "--complex-pool", 4,
            "--steps", 20, "--batch-size", 8, "--k-negatives", 12, "--out", tmp_path / "out",
        ])
        assert got == self.PINNED["kg mixed pool"]


class TestPtranse:
    def test_hand_case(self):
        store = init_random(1, 4, 2, seed=0)
        store.entity_centers[:] = np.array([[0.0], [3.0], [1.0], [9.0]])
        store.relation_centers[:] = 0.0
        store.relation_centers[0] = 2.0
        assert ptranse_score(0, [(0, False)], 1, store) == -1.0

    def test_exact_match_is_max(self):
        store = init_random(1, 3, 1, seed=0)
        store.entity_centers[:] = np.array([[0.0], [2.0], [5.0]])
        store.relation_centers[:] = 0.0
        store.relation_centers[0] = 2.0
        scores = [ptranse_score(0, [(0, False)], e, store) for e in range(3)]
        assert scores[1] == 0.0
        assert scores[1] == max(scores)

    def test_inverse_negates(self):
        store = init_random(1, 2, 1, seed=0)
        store.entity_centers[:] = np.array([[5.0], [3.0]])
        store.relation_centers[:] = 0.0
        store.relation_centers[0] = 2.0
        assert ptranse_score(0, [(0, True)], 1, store) == 0.0

    def test_two_hop_composition(self):
        store = init_random(1, 2, 2, seed=0)
        store.entity_centers[:] = np.array([[0.0], [7.0]])
        store.relation_centers[:] = 0.0
        store.relation_centers[0] = 2.0
        store.relation_centers[1] = 4.0
        assert ptranse_score(0, [(0, False), (1, False)], 1, store) == -1.0

    def test_empty_path_rejected(self):
        store = init_random(2, 2, 1, seed=0)
        with pytest.raises(ValidationError):
            ptranse_score(0, [], 1, store)
