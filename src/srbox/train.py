"""Training loop: negative sampling, margin loss, analytic gradients, Adam.

The per-query loss scores the answer entity and K sampled negatives against
the executed query box(es):

    L = -log sigmoid(gamma - D(a)) - (1/K) * sum_k log sigmoid(D(a'_k) - gamma)

where D(e) is the minimum distance over the query's disjunct boxes. The full
objective weights a simple (single-triplet) query and an optional complex
query per draw: lambda1 * L_simple + lambda2 * L_complex.

Gradients are hand-derived end to end (distance, min over disjuncts,
intersection attention and DeepSets pooling, projection chains) and applied
with a lazy Adam: first/second moments are dense tables shaped like the
parameters, but a step updates only the rows its gradients touch, so a row's
moments and parameters stay as they are in every step that does not reach
it. Relation offsets are clamped to >= 0 after every step. A
finite-difference checker validates the whole chain on small dimensions,
skipping coordinates whose probe points straddle a hinge (different
max/min/ReLU branches on the two sides).

Examples come from text windows (queries built from structures mined per
window) or a knowledge graph (train triplets and a pre-generated query
pool), both through one draw, sample and fit loop (see ``train``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, NamedTuple

import numpy as np

from srbox import boxalg, evalgen
from srbox.boxalg import DEFAULT_ALPHA, DEFAULT_NORM, Box, Grads, execute_with_trace
from srbox.corpus import Corpus, Sequence, chunk_sequences
from srbox.errors import ValidationError
from srbox.params import OFFSET_MODES, ParamStore
from srbox.rng import STREAM_NEGATIVES, STREAM_QUERY_GEN, STREAM_TRAIN, substream
from srbox.structures import (
    NodeKind,
    QueryDag,
    chain_dag,
    merge_dag,
    mine_structures,
    sample_pair_from_structures,
    split_structures,
)
from srbox.timing import timed

NEGATIVE_POOLS = ("same_sequence", "global")


@dataclass
class TrainConfig:
    gamma: float = 24.0
    alpha: float = DEFAULT_ALPHA
    lambda1: float = 1.0
    lambda2: float = 0.1
    k_negatives: int = 16
    lr: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    steps: int = 1000
    batch_size: int = 64
    seed: int = 0
    offset_mode: str = "shared"
    negative_pool: str = "same_sequence"
    norm: str = DEFAULT_NORM
    warmup: bool = True  # 10% linear warmup, then linear decay to zero
    trace_every: int = 100

    def validate(self) -> None:
        for name in ("gamma", "alpha", "lambda1", "lambda2", "lr", "beta1", "beta2", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gamma <= 0:
            raise ValidationError(f"gamma must be > 0, got {self.gamma}")
        if self.alpha < 0:
            raise ValidationError(f"alpha must be >= 0, got {self.alpha}")
        if self.k_negatives < 1:
            raise ValidationError(f"k_negatives must be >= 1, got {self.k_negatives}")
        if self.lr < 0:
            raise ValidationError(f"lr must be >= 0, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValidationError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if self.eps <= 0:
            raise ValidationError("adam eps must be > 0")
        if self.steps < 0:
            raise ValidationError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        for name, choices in (
            ("negative_pool", NEGATIVE_POOLS), ("offset_mode", OFFSET_MODES), ("norm", ("l1", "l2"))
        ):
            if getattr(self, name) not in choices:
                raise ValidationError(
                    f"{name} must be one of {', '.join(choices)}, got {getattr(self, name)!r}"
                )
        if self.trace_every < 1:
            raise ValidationError("trace_every must be >= 1")


@dataclass(frozen=True)
class TrainExample:
    query: QueryDag
    answer: int
    negatives: tuple[int, ...]
    with_replacement: bool = False

    def validate(self) -> None:
        if self.answer in self.negatives:
            raise ValidationError("answer appears among its own negatives")
        if not self.with_replacement and len(set(self.negatives)) != len(self.negatives):
            raise ValidationError("negatives must be distinct")
        if not self.negatives:
            raise ValidationError("example needs at least one negative")


class NegativeSample(NamedTuple):
    ids: tuple[int, ...]
    with_replacement: bool


def sample_negatives(
    pool: Sequence | list[int] | range,
    answer: int,
    k: int,
    rng: np.random.Generator,
    known: Iterable[int] = (),
) -> NegativeSample | None:
    """K negatives, uniform without replacement when the pool allows it.

    ``pool`` is a text sequence (its entity set is used), a ``range`` of ids
    or an explicit id collection. ``answer`` and every id in ``known`` are
    excluded. A ``range`` pool with many free ids (at least 2K, and at least
    half the pool) is sampled by rejection: uniform ids, skipping excluded
    ones and ones already picked, until K are distinct, which costs
    O(K + |known|) memory and expected time whatever the pool's size.
    Otherwise the free ids are listed: fewer than K fall back to
    with-replacement draws and set the flag, and none at all returns None as
    the skip signal.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    excluded = {int(answer), *map(int, known)}
    if isinstance(pool, Sequence):
        ids = [e for e in pool.entities if e not in excluded]  # sorted and distinct
    else:
        if isinstance(pool, range):
            free = len(pool) - sum(1 for e in excluded if e in pool)
            if free >= 2 * k and 2 * free >= len(pool):
                return NegativeSample(_reject(pool, excluded, k, rng), False)
        ids = sorted(set(map(int, pool)) - excluded)
    if not ids:
        return None
    if len(ids) >= k:
        picks = rng.choice(len(ids), size=k, replace=False)
        flag = False
    else:
        picks = rng.choice(len(ids), size=k, replace=True)
        flag = True
    return NegativeSample(tuple(ids[i] for i in picks), flag)


def _reject(
    pool: range, excluded: set[int], k: int, rng: np.random.Generator
) -> tuple[int, ...]:
    """K distinct ids of ``pool`` outside ``excluded``, by uniform draws that
    skip excluded and repeated ids; each round draws only the ids missing."""
    taken = set(excluded)
    picked: list[int] = []
    while len(picked) < k:
        for i in rng.integers(len(pool), size=k - len(picked)).tolist():
            e = pool[i]
            if e not in taken:
                taken.add(e)
                picked.append(e)
    return tuple(picked)


# ---------------------------------------------------------------------------
# loss


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)


def _margin_loss(d: np.ndarray, gamma: float) -> float:
    """-log sigmoid(gamma - D(a)) - (1/K) sum_k log sigmoid(D(a'_k) - gamma),
    from D of the answer (row 0) and of its K negatives (the rest). Each
    term is a softplus, log(1 + exp(x)) = -log sigmoid(-x), taken without
    overflow as logaddexp(0, x)."""
    k = len(d) - 1
    terms = np.logaddexp(0.0, np.concatenate(([d[0] - gamma], gamma - d[1:])))
    loss = float(terms[0])
    for term in (terms[1:] / k).tolist():  # one by one, in row order, unlike sum()
        loss += term
    return loss


def qa_loss(
    query_boxes: list[Box],
    answer: np.ndarray,
    negatives: list[np.ndarray],
    cfg: TrainConfig,
) -> float:
    """Margin loss of one query against its answer vector and negatives."""
    if not negatives:
        raise ValidationError("qa_loss needs at least one negative")
    vecs = np.vstack([answer, *negatives])
    d_min, _, _ = boxalg.min_distance_with_cache(vecs, query_boxes, cfg.alpha, cfg.norm)
    return _margin_loss(d_min, cfg.gamma)


def sr_loss(
    simple: TrainExample,
    complex_example: TrainExample | None,
    params: ParamStore,
    cfg: TrainConfig,
) -> float:
    """Weighted objective: lambda1 * simple + lambda2 * complex."""
    total = _loss_and_grads(simple, params, cfg, cfg.lambda1, None)[0]
    if complex_example is not None:
        total += _loss_and_grads(complex_example, params, cfg, cfg.lambda2, None)[0]
    return total


def _loss_and_grads(
    example: TrainExample,
    params: ParamStore,
    cfg: TrainConfig,
    weight: float,
    grads: Grads | None,
    want_signature: bool = False,
) -> tuple[float, bytes]:
    """One example's weighted loss; gradients accumulate into ``grads``.

    The signature concatenates every branch indicator met along the way
    (intersection masks/argmins, disjunct argmins, distance hinge sides) so
    a caller can tell whether two nearby parameter points share all branches.
    """
    trace = execute_with_trace(example.query, params)
    boxes = trace.answer_boxes()
    k = len(example.negatives)
    ents = (example.answer, *example.negatives)
    d_min, argmins, cache = boxalg.min_distance_with_cache(
        params.entity_centers[list(ents)], boxes, cfg.alpha, cfg.norm
    )
    loss = _margin_loss(d_min, cfg.gamma) * weight

    if grads is not None:
        coef = [weight * _sigmoid(float(d_min[0]) - cfg.gamma)]
        coef += [-weight * _sigmoid(cfg.gamma - float(d)) / k for d in d_min[1:]]
        de, dc, doff = boxalg.distance_backward(cache, coef)
        slots = grads.entity  # de is this call's own array: its rows need no copy
        for ent, g in zip(ents, de):
            slot = slots.get(ent)
            if slot is None:
                slots[ent] = g
            else:
                slot += g
        # each disjunct's seed sums, in row order, the rows it is the argmin
        # of; a running sum adds them one by one (sum(axis=0) pairs them up
        # when d = 1)
        if len(boxes) == 1:
            seeds = [[np.add.accumulate(dc)[-1], np.add.accumulate(doff)[-1]]]
        else:
            seeds = [None] * len(boxes)
            for i, j in enumerate(argmins):
                if seeds[j] is None:
                    seeds[j] = [dc[i], doff[i]]
                else:
                    seeds[j][0] += dc[i]
                    seeds[j][1] += doff[i]
        boxalg.backward_through_dag(trace, seeds, grads)

    if not want_signature:
        return loss, b""
    return loss, b"".join(
        (trace.signature(), argmins.astype("<u4").tobytes(), cache.signature())
    )


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Lazy Adam moments. ``m`` and ``v`` map each row table of ``Grads``
    (entity, rel_center, rel_offset) to a dense array shaped like its
    parameter array, and each intersection-net field name to an array
    shaped like that field. An entry is made, zero, on the first step that
    touches its table or field; a row never touched keeps zero moments."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def _adam_groups(params: ParamStore, table: str, slots: dict, scale: float):
    """(moment key, parameter array, index, stacked gradient times ``scale``)
    for one Grads table: a row table is one group over its touched rows in
    sorted order, the net one group per field."""
    targets = params.grad_targets()[table]
    if table == "net":
        return [(name, targets[name], ..., slots[name] * scale) for name in sorted(slots)]
    rows = sorted(slots)
    return [(table, targets, np.array(rows), np.stack([slots[r] for r in rows]) * scale)]


def adam_step(
    params: ParamStore,
    grads: Grads,
    state: AdamState,
    cfg: TrainConfig,
    lr: float,
    scale: float = 1.0,
) -> None:
    """Lazy Adam update on every touched row, then clamp offsets to >= 0.

    Each table's touched rows are gathered in sorted key order, with their
    moments, and updated as one array; rows no gradient touches keep their
    parameters and moments. The gradients are multiplied by ``scale`` first,
    the same product as scaling each gradient in place, without touching
    ``grads``. Bias correction uses the global step count.
    Every update is computed, with overflow and invalid operations trapped,
    before anything is written: a non-finite gradient or update raises
    ValidationError naming its table and the step (this optimizer's count
    of updates, from 1), leaving the parameters and ``state`` unchanged.
    """
    step = state.step + 1
    bc1 = 1.0 - cfg.beta1 ** step
    bc2 = 1.0 - cfg.beta2 ** step
    pending = []
    with np.errstate(over="raise", invalid="raise"):
        for table, slots in grads.tables().items():
            if not slots:
                continue
            try:
                groups = _adam_groups(params, table, slots, scale)
                moved = []
                for key, _, index, grad in groups:
                    seen = key in state.m
                    m_old = state.m[key][index] if seen else 0.0
                    v_old = state.v[key][index] if seen else 0.0
                    m = cfg.beta1 * m_old + (1.0 - cfg.beta1) * grad
                    v = cfg.beta2 * v_old + (1.0 - cfg.beta2) * grad * grad
                    moved.append((m, v, lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)))
                # a NaN gradient passes through the arithmetic without a trap
                finite = all(np.isfinite(update).all() for _, _, update in moved)
            except FloatingPointError:
                finite = False
            if not finite:
                raise ValidationError(f"non-finite Adam update in table {table} at step {step}")
            pending += zip(groups, moved)
    for (key, target, index, _), (m, v, update) in pending:
        if key not in state.m:
            state.m[key] = np.zeros_like(target)
            state.v[key] = np.zeros_like(target)
        state.m[key][index] = m
        state.v[key][index] = v
        target[index] -= update
    state.step = step
    np.maximum(params.relation_offsets, 0.0, out=params.relation_offsets)


def lr_at(cfg: TrainConfig, step: int) -> float:
    """Step-indexed learning rate: linear warmup over the first 10% of steps,
    then linear decay to zero; constant when the schedule is off."""
    if not cfg.warmup or cfg.steps <= 0:
        return cfg.lr
    warm = max(1, int(0.1 * cfg.steps))
    if step < warm:
        return cfg.lr * (step + 1) / warm
    if cfg.steps == warm:
        return cfg.lr
    return cfg.lr * (cfg.steps - step) / (cfg.steps - warm)


# ---------------------------------------------------------------------------
# training sources


@dataclass
class TextSource:
    corpus: Corpus
    seq_len: int = 512


@dataclass
class KgSource:
    """Pre-assembled KG training material.

    ``triplets`` are the dense-id (head, relation, tail) train edges, kept
    as an ``(n, 3)`` int64 array, each a simple (1p) example;
    ``complex_queries`` are pre-generated (dag, train-answer tuple) pairs of
    any mix of shapes. ``answer_sets.get((head, relation), default)`` gives
    a key's known tails, sorted, or ``default`` for a key with none; that is
    the only call made on it, so an ``EdgeIndex``'s ``fwd`` lookup serves,
    and so does a dict. When not given it is the ``fwd`` lookup of an
    ``EdgeIndex`` of ``triplets``. Every known answer of a query is kept
    out of its negatives, which are drawn by rejection from the entity
    range at O(K) cost, so co-answers of multi-answer queries are not
    pushed away as false negatives.
    """

    triplets: np.ndarray
    complex_queries: list[tuple[QueryDag, tuple[int, ...]]]
    n_entities: int
    answer_sets: evalgen._Groups | dict | None = None

    def __post_init__(self) -> None:
        self.triplets = np.asarray(self.triplets, dtype=np.int64).reshape(-1, 3)
        if self.answer_sets is None:
            self.answer_sets = self.build_answer_sets(self.triplets)

    @staticmethod
    def build_answer_sets(triplets: list[tuple[int, int, int]] | np.ndarray) -> evalgen._Groups:
        """(head, relation) -> sorted tails, the ``fwd`` lookup of an ``EdgeIndex``."""
        return evalgen.EdgeIndex(triplets).fwd


def _kg_draw(source: KgSource, rng: np.random.Generator) -> tuple[range, list[tuple]]:
    """The entity range as the negative pool, and the picks (query, answer,
    known answers) of one draw: a random train triplet's 1p query with its
    (head, relation) tails, then a random pooled query, if any, with a
    random one of its train answers."""
    h, r, t = source.triplets[int(rng.integers(len(source.triplets)))].tolist()
    picks = [(chain_dag(h, [(r, False)]), t, source.answer_sets.get((h, r), (t,)))]
    if source.complex_queries:
        dag, answers = source.complex_queries[int(rng.integers(len(source.complex_queries)))]
        picks.append((dag, int(answers[int(rng.integers(len(answers)))]), answers))
    return range(source.n_entities), picks


def _text_draw(state, rng: np.random.Generator) -> tuple[Sequence, list[tuple]]:
    """A random eligible sequence and the picks (query, answer, known
    answers) of one (simple, complex) pair sampled from its mined
    structures, known answers taken over the window's own triplets; no
    picks when the window has no query."""
    seqs, cache = state
    idx = int(rng.integers(len(seqs)))
    seq = seqs[idx]
    mined = cache.get(idx)
    if mined is None:
        edges = [(t.head, t.relation, t.tail) for t in seq.triplets]
        mined = (*split_structures(mine_structures(seq.triplets)), evalgen.EdgeIndex(edges))
        cache[idx] = mined
    simples, complexes, window = mined
    pair = sample_pair_from_structures(simples, complexes, rng) or ()
    return seq, [(dag, ans, window.answers(dag)) for dag, ans in filter(None, pair)]


def train(
    source: TextSource | KgSource,
    params: ParamStore,
    cfg: TrainConfig,
    callback: Callable[[dict], None] | None = None,
    timings: dict | None = None,
) -> tuple[ParamStore, list[dict]]:
    """Run the optimization loop; returns the trained store and loss trace.

    Each step runs three phases. Draw: ``batch_size`` draws (``_kg_draw``,
    ``_text_draw``), each giving a negative pool and its picks in weight
    order, a simple query (lambda1) and a complex one, if any (lambda2);
    each pick draws K negatives from the pool outside its query's known
    answers (kg: the (head, relation) tails or the pooled query's train
    answers; text: its answers over the window's own triplets) and forms
    one ``TrainExample``. Fit: every example's weighted gradients add, in
    draw order, to the step's. Update: one Adam step on their average over
    the batch, none if the step formed no example. Drawing reads no
    parameter and fitting draws no random number, so the random streams do
    not depend on how the fit phase computes.
    The trace records {step, loss, loss_simple, loss_complex, lr} every
    ``trace_every`` steps and at the last (null losses when no example
    formed), with counters over the steps since the previous record:
    ``examples`` formed, ``skipped_draws`` (a window with no query, or a
    pick with no free negative) and ``with_replacement_frac`` (the share of
    examples whose negatives were drawn with replacement, null if none).
    Deterministic for a fixed seed; aborts on a non-finite loss. With
    ``timings``, adds each phase's seconds to ``sample`` (draw), ``fit``
    and ``adam`` (update), each present, from 0.0, before the first step.
    """
    cfg.validate()
    params.validate()
    rng_train = substream(cfg.seed, STREAM_TRAIN)
    rng_neg = substream(cfg.seed, STREAM_NEGATIVES)

    if isinstance(source, TextSource):
        seqs = [s for s in chunk_sequences(source.corpus, source.seq_len) if s.triplets]
        if not seqs and cfg.steps > 0:
            raise ValidationError("no sequence carries any triplet; nothing to train on")
        text_state = (seqs, {})
        global_pool = range(source.corpus.n_entities)

        def draw():
            seq, picks = _text_draw(text_state, rng_train)
            return (seq if cfg.negative_pool == "same_sequence" else global_pool), picks
    else:
        if len(source.triplets) == 0 and cfg.steps > 0:
            raise ValidationError("KG source has no train triplets")
        draw = partial(_kg_draw, source, rng_train)
    weights = (cfg.lambda1, cfg.lambda2)
    n_skipped = n_replaced = n_examples = 0  # sampling counters since the last trace record
    timings = {} if timings is None else timings
    for phase in ("sample", "fit", "adam"):
        timings.setdefault(phase, 0.0)
    state = AdamState()
    trace: list[dict] = []
    for step in range(cfg.steps):
        batch = []  # (pick slot, example) in draw order
        with timed(timings, "sample"):
            for _ in range(cfg.batch_size):
                pool, picks = draw()
                n_skipped += not picks  # a window with no query
                for slot, (dag, answer, known) in enumerate(picks):
                    neg = sample_negatives(pool, answer, cfg.k_negatives, rng_neg, known)
                    if neg is None:
                        n_skipped += 1
                        continue
                    batch.append((slot, TrainExample(dag, answer, neg.ids, neg.with_replacement)))
                    n_replaced += neg.with_replacement
        losses = [0.0, 0.0]  # weighted loss sums and example counts of the two picks
        formed = [0, 0]
        with timed(timings, "fit"):
            grads = Grads(params)
            for slot, example in batch:
                losses[slot] += _loss_and_grads(example, params, cfg, weights[slot], grads)[0]
                formed[slot] += 1
        n_examples += len(batch)
        lr = lr_at(cfg, step)
        loss = None
        if batch:
            loss = (losses[0] + losses[1]) / cfg.batch_size
            if not math.isfinite(loss):
                raise ValidationError(f"non-finite loss at step {step}")
            with timed(timings, "adam"):
                adam_step(params, grads, state, cfg, lr, scale=1.0 / cfg.batch_size)
        if step % cfg.trace_every == 0 or step == cfg.steps - 1:
            record = {
                "step": step,
                "loss": loss,
                "loss_simple": losses[0] / formed[0] if formed[0] else None,
                "loss_complex": losses[1] / formed[1] if formed[1] else None,
                "lr": lr,
                "examples": n_examples,
                "skipped_draws": n_skipped,
                "with_replacement_frac": n_replaced / n_examples if n_examples else None,
            }
            n_skipped = n_replaced = n_examples = 0
            trace.append(record)
            if callback is not None:
                callback(record)
    return params, trace


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def _touched_coordinates(example: TrainExample, params: ParamStore):
    """Every (Grads table, key) whose parameters the example can reach."""
    dag = example.query
    ents = sorted(
        {e for _, e in dag.anchors} | {example.answer} | set(example.negatives)
    )
    keys: list[tuple[str, int | str]] = [("entity", e) for e in ents]
    crows = sorted({params.center_row(e.relation, e.inverse) for e in dag.edges})
    orows = sorted({params.offset_row(e.relation, e.inverse) for e in dag.edges})
    keys += [("rel_center", r) for r in crows] + [("rel_offset", r) for r in orows]
    if any(kind is NodeKind.INTERSECTION for _, kind in dag.nodes):
        keys += [("net", name) for name in boxalg.NET_FIELDS]
    return keys


def _random_example(
    shape: str, params: ParamStore, rng: np.random.Generator, k: int
) -> TrainExample:
    n_ent = params.n_entities
    n_rel = params.n_relations
    ent = lambda: int(rng.integers(n_ent))
    rel = lambda: int(rng.integers(n_rel))
    if shape == "1p":
        dag = chain_dag(ent(), [(rel(), False)])
    elif shape == "2p":
        dag = chain_dag(ent(), [(rel(), False), (rel(), False)])
    elif shape == "2i":
        dag = merge_dag([(ent(), rel(), False), (ent(), rel(), False)])
    elif shape == "2i_inverse":
        dag = merge_dag([(ent(), rel(), True), (ent(), rel(), True)])
    elif shape == "2u":
        # both entities before both relations: the draw order fixes every later trial
        (e0, e1), (r0, r1) = (ent(), ent()), (rel(), rel())
        dag = merge_dag([(e0, r0, False), (e1, r1, False)], NodeKind.UNION)
    else:
        raise ValidationError(f"unknown query shape {shape!r}")
    answer = ent()
    pool = [e for e in range(n_ent) if e != answer]
    picks = rng.choice(len(pool), size=min(k, len(pool)), replace=False)
    negatives = tuple(pool[i] for i in picks)
    return TrainExample(dag, answer, negatives)


GRAD_CHECK_SHAPES = ("1p", "2p", "2i", "2i_inverse", "2u")
# the coarse finite-difference step; the fine one is half of it
GRAD_CHECK_STEP = 1e-3


def grad_check_config(alpha: float = DEFAULT_ALPHA, norm: str = DEFAULT_NORM) -> TrainConfig:
    """The config ``grad_check`` runs under: the given distance settings, two
    negatives and a small margin (see ``grad_check``)."""
    return replace(TrainConfig(), k_negatives=2, alpha=alpha, gamma=2.0, norm=norm)


def grad_check(
    params: ParamStore,
    n_trials: int,
    seed: int,
    cfg: TrainConfig | None = None,
) -> float:
    """Compare analytic gradients against Richardson-extrapolated central
    finite differences.

    Cycles through the five query shapes, perturbing every touched
    coordinate by +/- h and +/- h/2, h = ``GRAD_CHECK_STEP``. Coordinates
    where any of the four probe points falls on another branch than the
    unperturbed point (any hinge, argmin, or ReLU flip in between) are
    skipped; the rest must agree with (4 D(h/2) - D(h)) / 3, whose
    truncation error is O(h^4) where a central difference D leaves O(h^2),
    which the L2 norm's curvature makes visible at h = 1e-3. Returns the
    max relative error
    |g_a - g_n| / max(1e-8, |g_a| + |g_n|).

    The default check config (``grad_check_config()``) uses a small margin:
    central differences of a loss sitting at the scale of gamma carry
    cancellation noise of about |loss| * eps / h, which at gamma = 24
    already rivals the tolerance on flat coordinates. The gradient
    expressions do not depend on gamma's magnitude, so checking at a small
    margin loses nothing.
    """
    if cfg is None:
        cfg = grad_check_config()
    rng = substream(seed, STREAM_QUERY_GEN)
    worst = 0.0
    for trial in range(n_trials):
        shape = GRAD_CHECK_SHAPES[trial % len(GRAD_CHECK_SHAPES)]
        example = _random_example(shape, params, rng, cfg.k_negatives)
        grads = Grads(params)
        _, sig0 = _loss_and_grads(example, params, cfg, 1.0, grads, want_signature=True)

        def central(arr: np.ndarray, idx: tuple[int, ...], step: float) -> float | None:
            """The central difference at ``step``, or None when a probe
            leaves the unperturbed branch."""
            orig = arr[idx]
            arr[idx] = orig + step
            up, sig_up = _loss_and_grads(example, params, cfg, 1.0, None, want_signature=True)
            arr[idx] = orig - step
            dn, sig_dn = _loss_and_grads(example, params, cfg, 1.0, None, want_signature=True)
            arr[idx] = orig
            if sig_up != sig0 or sig_dn != sig0:
                return None  # a probe crosses a hinge; derivative is not defined here
            return (up - dn) / (2.0 * step)

        def check(arr: np.ndarray, idx: tuple[int, ...], analytic: float) -> None:
            nonlocal worst
            coarse = central(arr, idx, GRAD_CHECK_STEP)
            fine = None if coarse is None else central(arr, idx, GRAD_CHECK_STEP / 2)
            if fine is None:
                return
            numeric = (4.0 * fine - coarse) / 3.0
            err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, err)

        targets = params.grad_targets()
        tables = grads.tables()
        for table, key in _touched_coordinates(example, params):
            arr = targets[table][key]
            g = tables[table].get(key)
            for idx in np.ndindex(arr.shape):
                analytic = 0.0 if g is None else float(g[idx])
                check(arr, idx, analytic)
    return worst


# ---------------------------------------------------------------------------
# path-translation baseline


def ptranse_score(
    anchor: int, path: list[tuple[int, bool]], answer: int, params: ParamStore
) -> float:
    """Translation-composition score for chain queries: the answer's negated
    ``evalgen.ptranse_distances`` distance."""
    if not path:
        raise ValidationError("path must contain at least one relation")
    return -float(evalgen.ptranse_distances(anchor, path, params)[answer])
