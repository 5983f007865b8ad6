"""Box-embedding kernel: representation, operators, distance, DAG execution.

A box is an axis-aligned hyper-rectangle given by a center vector and a
nonnegative offset vector; it covers { e : center - offset <= e <= center +
offset } elementwise. Entities are zero-offset boxes. Relation projection
translates and dilates: project(b, r) = (Cen(b) + Cen(r), Off(b) + Off(r)).

Intersection combines n boxes with a dimension-wise attention over centers
and a shrunken offset:

    center = sum_i a_i * Cen(b_i),  a_i = softmax_i(attMLP(Cen(b_i)))
    offset = min_i(Off(b_i)) * sigmoid(outerMLP(mean_i innerMLP([Cen;Off])))

where all three MLPs are two-layer ReLU networks of hidden width d and the
softmax is taken per dimension across the n boxes.

The entity-to-box distance clamps the entity into the box, p = min(bmax,
max(bmin, e)), and combines an outer part (the L1 norm of e - p, zero
inside the box) and an inner part (the L1 norm of center - p) as d_out +
alpha * d_in; the defaults for alpha and the norm, which may be L2, are
``DEFAULT_ALPHA`` and ``DEFAULT_NORM``. One kernel computes it for a single
entity (d,) or for every row of a batch (m, d) against one box:
``distance`` and ``distance_batch`` keep only the distances,
``distance_with_cache`` also keeps the two gaps, and ``distance_backward``
turns them into gradients for all rows at once, reading each coordinate's
hinge side from the sign of e - p. Evaluation ranks stacked query boxes
against every entity through ``min_distance_tiles``, eval's float32 screen,
which runs ``distance_batch`` on cache-sized float32 tiles in the calling
thread, each writing its own slice of the result; ``screen_error`` bounds
each query's float32 error. Every exact float64 distance of a stacked query
comes from ``pair_distances``, which gathers entity rows and runs
``distance_batch`` on each against its own query's box.

Every operation here has a matching hand-written backward; forward variants
with ``_with_cache`` record exactly what the backward needs, plus the branch
indicators (ReLU masks, hinge sides, argmins) that let a gradient checker
recognize when a finite-difference probe crosses a non-smooth point.

Query DAGs run as one walk over their shape's compiled ``Plan``, for one
query or for a stacked batch of queries of one shape: each node holds one
or more disjunct boxes, and scoring takes the minimum distance over the
answer node's. An anchor has one disjunct. A projection or union node has
one disjunct per disjunct of its inputs, each projected along its edge; an
intersection node has one per combination of its inputs' disjuncts (the
cartesian product), so union-free DAGs yield exactly one box. Training keeps
each intersection's cache, and the backward pass walks the plan's disjunct
layouts in reverse; evaluation drops the caches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from srbox.errors import ValidationError
from srbox.structures import Plan, QueryDag, plan_of, query_ids


@dataclass(frozen=True)
class Box:
    center: np.ndarray
    offset: np.ndarray

    @property
    def bmax(self) -> np.ndarray:
        return self.center + self.offset

    @property
    def bmin(self) -> np.ndarray:
        return self.center - self.offset

    @property
    def dim(self) -> int:
        return self.center.shape[-1]


class Bounds(NamedTuple):
    """A box as what ``_gaps`` reads of it, its center and its two corners,
    each made once: a ``Box`` computes its corners on every read."""

    center: np.ndarray
    bmin: np.ndarray
    bmax: np.ndarray

    @property
    def dim(self) -> int:
        return self.center.shape[-1]

    @classmethod
    def of(cls, center: np.ndarray, offset: np.ndarray) -> Bounds:
        """The float32 bounds of the box (center, offset), corners computed in
        float64 and then, like the center, rounded."""
        return cls(*(np.asarray(a, np.float32) for a in (center, center - offset, center + offset)))


def _weight(fan_in: int = 1):
    return field(metadata={"units": (1, fan_in)})


def _bias():
    return field(metadata={"units": (1,)})


@dataclass
class IntersectionNet:
    """Weights of the attention MLP and the two DeepSets MLPs (inner 2d->d->d,
    outer d->d->d, attention d->d->d). Each field's ``units`` metadata is its
    shape in multiples of the embedding dim d."""

    att_w1: np.ndarray = _weight()
    att_b1: np.ndarray = _bias()
    att_w2: np.ndarray = _weight()
    att_b2: np.ndarray = _bias()
    inner_w1: np.ndarray = _weight(2)
    inner_b1: np.ndarray = _bias()
    inner_w2: np.ndarray = _weight()
    inner_b2: np.ndarray = _bias()
    outer_w1: np.ndarray = _weight()
    outer_b1: np.ndarray = _bias()
    outer_w2: np.ndarray = _weight()
    outer_b2: np.ndarray = _bias()

    @staticmethod
    def shapes(dim: int) -> dict[str, tuple[int, ...]]:
        return {
            f.name: tuple(u * dim for u in f.metadata["units"]) for f in fields(IntersectionNet)
        }

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in NET_FIELDS}


def check_arrays(arrays: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]) -> None:
    """Every named array has its expected shape and only finite entries."""
    for name, arr in arrays.items():
        if arr.shape != shapes[name]:
            raise ValidationError(f"{name} has shape {arr.shape}, expected {shapes[name]}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} contains non-finite entries")


NET_FIELDS = tuple(f.name for f in fields(IntersectionNet))


def net_random(dim: int, rng: np.random.Generator) -> IntersectionNet:
    """Fan-in-scaled uniform init for all three MLPs, drawn in field order;
    a bias takes the bound of the weight declared before it."""
    arrays = {}
    for name, shape in IntersectionNet.shapes(dim).items():
        if len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[1])
        arrays[name] = rng.uniform(-bound, bound, size=shape)
    return IntersectionNet(**arrays)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# elementary operators


def project(b: Box, rel: tuple[np.ndarray, np.ndarray]) -> Box:
    """Translate the center and dilate the offset by the relation's parameters
    (rows that broadcast against a box of stacked (B, d) arrays)."""
    r_center, r_offset = rel
    if r_center.shape[-1:] != b.center.shape[-1:] or r_offset.shape[-1:] != b.offset.shape[-1:]:
        raise ValidationError(
            f"relation shape {r_center.shape}/{r_offset.shape} does not match box dim {b.dim}"
        )
    return Box(b.center + r_center, b.offset + r_offset)


class _MlpCache(NamedTuple):
    x: np.ndarray
    mask: np.ndarray
    h: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


def _mlp2(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray):
    h_pre = x @ w1.T + b1
    mask = h_pre > 0
    h = np.where(mask, h_pre, 0.0)
    y = h @ w2.T + b2
    return y, _MlpCache(x, mask, h, w1, w2)


def _mlp2_backward(cache: _MlpCache, dy: np.ndarray):
    dw2 = dy.T @ cache.h
    db2 = dy.sum(axis=0)
    dh = dy @ cache.w2
    dh_pre = np.where(cache.mask, dh, 0.0)
    dw1 = dh_pre.T @ cache.x
    db1 = dh_pre.sum(axis=0)
    dx = dh_pre @ cache.w1
    return dx, (dw1, db1, dw2, db2)


class IntersectCache(NamedTuple):
    """Shapes are those of one intersection; a stacked forward over B queries
    adds a leading (B,) axis to every field."""

    centers: np.ndarray  # (n, d) input centers
    offsets: np.ndarray  # (n, d) input offsets
    att: np.ndarray  # (n, d) softmax weights
    att_cache: _MlpCache
    inner_cache: _MlpCache
    outer_cache: _MlpCache
    gate: np.ndarray  # (d,)
    min_idx: np.ndarray  # (d,) argmin box per dimension
    min_off: np.ndarray  # (d,)

    def signature(self) -> bytes:
        return b"".join(
            (
                self.att_cache.mask.tobytes(),
                self.inner_cache.mask.tobytes(),
                self.outer_cache.mask.tobytes(),
                self.min_idx.tobytes(),
            )
        )


def intersect_with_cache(boxes: list[Box], net: IntersectionNet) -> tuple[Box, IntersectCache]:
    """Intersect n boxes of (d,) arrays, or n boxes of stacked (B, d) arrays
    as B intersections at once: the inputs stack on axis -2, every reduction
    runs over it, and each MLP is one ``np.matmul`` over the stack, which
    computes every query's products as the unstacked call does."""
    if not boxes:
        raise ValidationError("intersect requires at least one box")
    d = boxes[0].dim
    if any(b.dim != d for b in boxes):
        raise ValidationError("intersect requires boxes of equal dimension")
    centers = np.stack([b.center for b in boxes], axis=-2)  # (n, d) or (B, n, d)
    offsets = np.stack([b.offset for b in boxes], axis=-2)

    logits, att_cache = _mlp2(centers, net.att_w1, net.att_b1, net.att_w2, net.att_b2)
    logits = logits - logits.max(axis=-2, keepdims=True)
    expz = np.exp(logits)
    att = expz / expz.sum(axis=-2, keepdims=True)  # softmax across boxes, per dim
    center = (att * centers).sum(axis=-2)

    pooled_in = np.concatenate([centers, offsets], axis=-1)  # (n, 2d)
    inner, inner_cache = _mlp2(pooled_in, net.inner_w1, net.inner_b1, net.inner_w2, net.inner_b2)
    mean_inner = inner.mean(axis=-2, keepdims=True)  # (1, d)
    outer, outer_cache = _mlp2(mean_inner, net.outer_w1, net.outer_b1, net.outer_w2, net.outer_b2)
    gate = sigmoid(outer[..., 0, :])

    min_idx = offsets.argmin(axis=-2)  # first argmin on ties
    min_off = np.take_along_axis(offsets, min_idx[..., None, :], axis=-2)[..., 0, :]
    offset = min_off * gate

    cache = IntersectCache(
        centers, offsets, att, att_cache, inner_cache, outer_cache, gate, min_idx, min_off
    )
    return Box(center, offset), cache


def intersect(boxes: list[Box], net: IntersectionNet) -> Box:
    return intersect_with_cache(boxes, net)[0]


def intersect_backward(
    cache: IntersectCache, dcenter: np.ndarray, doffset: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Gradients of (dcenter, doffset) w.r.t. input centers/offsets and net weights.

    Returns (d_centers (n, d), d_offsets (n, d), net gradient dict). Min over
    offsets routes to the first argmin on ties; ReLU and sigmoid use the
    usual pointwise derivatives.
    """
    n, d = cache.centers.shape
    att = cache.att

    # center = sum_i att_i * centers_i, att = softmax over axis 0
    datt = dcenter[None, :] * cache.centers
    dcent_in = att * dcenter[None, :]
    s = (att * datt).sum(axis=0, keepdims=True)
    dlogits = att * (datt - s)
    dx_att, att_grads = _mlp2_backward(cache.att_cache, dlogits)
    dcent_in = dcent_in + dx_att

    # offset = min_off * gate
    dmin_off = doffset * cache.gate
    dgate = doffset * cache.min_off
    douter = dgate * cache.gate * (1.0 - cache.gate)
    dmean, outer_grads = _mlp2_backward(cache.outer_cache, douter[None, :])
    dinner = np.repeat(dmean / n, n, axis=0)
    dpooled, inner_grads = _mlp2_backward(cache.inner_cache, dinner)
    dcent_in = dcent_in + dpooled[:, :d]
    doff_in = dpooled[:, d:].copy()
    doff_in[cache.min_idx, np.arange(d)] += dmin_off

    # NET_FIELDS runs att, inner, outer, each as w1, b1, w2, b2
    net_grads = dict(zip(NET_FIELDS, att_grads + inner_grads + outer_grads))
    return dcent_in, doff_in, net_grads


# ---------------------------------------------------------------------------
# distance


class Distance(NamedTuple):
    d: float | np.ndarray
    d_out: float | np.ndarray
    d_in: float | np.ndarray


# the distance's alpha and norm wherever a caller gives none
DEFAULT_ALPHA = 0.02
DEFAULT_NORM = "l1"


class DistanceCache(NamedTuple):
    """What ``distance_backward`` needs, for one entity (d,) or a batch (m, d)."""

    v_out: np.ndarray  # e - clamped point: > 0 above the box, < 0 below, 0 inside
    u_in: np.ndarray  # center - clamped point
    alpha: float
    norm: str

    def signature(self) -> bytes:
        """The hinge side and the side of the center of every coordinate."""
        return np.sign(self.v_out).tobytes() + np.sign(self.u_in).tobytes()


def _norm(v: np.ndarray, norm: str, out: np.ndarray | None = None) -> np.ndarray:
    """Norm of each row (last axis). ``out``, a buffer of the result shape,
    takes the norms, and then ``v`` is overwritten with the elementwise
    terms, so the call allocates nothing. A float64 row sums its terms with
    ``np.sum``; any other, the float32 screen's, sums them as a product
    with a vector of ones, several times faster over a short last axis, in
    an order that only the screen's error bound (``screen_error``) has to
    allow for."""
    terms = None if out is None else v
    if norm == "l1":
        terms = np.abs(v, out=terms)
    elif norm == "l2":
        terms = np.multiply(v, v, out=terms)
    else:
        raise ValidationError(f"unknown norm {norm!r}")
    if v.dtype == np.float64:
        total = terms.sum(axis=-1, out=out)
    else:
        total = np.matmul(terms, _ones(v.shape[-1], v.dtype), out=out)
    return total if norm == "l1" else np.sqrt(total, out=out)


@functools.cache
def _ones(d: int, dtype: np.dtype) -> np.ndarray:
    ones = np.ones(d, dtype)
    ones.flags.writeable = False
    return ones


def _norm_grad(v: np.ndarray, norm: str) -> np.ndarray:
    """Gradient of each row's norm; a zero row takes the zero subgradient."""
    if norm == "l1":
        return np.sign(v)
    mag = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    return np.divide(v, mag, out=np.zeros_like(v), where=mag > 0.0)


def _gaps(e: np.ndarray, b: Box, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Outer gap e - p (signed: the gap to the nearest face, zero inside)
    and inner gap center - p of an entity (d,) or of each row of (m, d),
    where p = min(bmax, max(bmin, e)) is the entity clamped into the box; a
    box of stacked (q, 1, d) arrays gives every row's gaps to each of the q
    boxes, (q, m, d). ``b`` may be a Box or its ``Bounds``. ``out`` is an
    optional pair of buffers of the result shape to write the two gaps
    into."""
    if e.shape[-1:] != b.center.shape[-1:]:
        raise ValidationError(f"entity shape {e.shape} does not match box dim {b.dim}")
    v_out, u_in = (None, None) if out is None else out
    clamped = np.maximum(b.bmin, e, out=u_in)
    np.minimum(b.bmax, clamped, out=clamped)
    v_out = np.subtract(e, clamped, out=v_out)
    return v_out, np.subtract(b.center, clamped, out=clamped)


def _combine(
    v_out: np.ndarray, u_in: np.ndarray, alpha: float, norm: str, out=(None, None)
) -> Distance:
    """d_out + alpha * d_in from the gaps. ``out`` may hold two buffers of
    the result shape: the first takes d_out and then d, the second d_in and
    then alpha * d_in, and the gaps are overwritten, so the call allocates
    nothing and only its d is kept."""
    d_out = _norm(v_out, norm, out[0])
    d_in = _norm(u_in, norm, out[1])
    return Distance(np.add(d_out, np.multiply(alpha, d_in, out=out[1]), out=out[0]), d_out, d_in)


def distance(
    e: np.ndarray, b: Box, alpha: float = DEFAULT_ALPHA, norm: str = DEFAULT_NORM
) -> Distance:
    """Two-part entity-to-box distance d_out + alpha * d_in, for one entity
    (d,) or for every row of (m, d)."""
    return _combine(*_gaps(e, b), alpha, norm)


def distance_batch(
    entities: np.ndarray, b: Box, alpha: float = DEFAULT_ALPHA, norm: str = DEFAULT_NORM,
    out=(None,) * 4,
) -> np.ndarray:
    """Distance from every row of ``entities`` (m, d) to one box, (m,), or to
    each box of a stacked (q, 1, d) box, (q, m). ``out`` may hold four work
    buffers, which the call overwrites instead of allocating: two of the
    gap shape, then two of the result shape, the first of which holds the
    result. Either way the distances have the same bits."""
    return _combine(*_gaps(entities, b, out[:2]), alpha, norm, out[2:]).d


# elements of work in one step of the distance and ranking passes; a tile
# of the float32 screen holds the gaps of twice the queries that this many
# elements hold, 512 KB in its two gap buffers at this size, which stay in
# a core's L2 cache
DIST_TILE = 1 << 15

# numpy's error handling in the float32 screen: a magnitude beyond float32's
# range turns into inf or NaN there, which the screen's callers recount
_SCREEN_ERRORS = {"over": "ignore", "invalid": "ignore"}


def _tile_pass(tiles, gaps: np.ndarray, sums: np.ndarray, cast, alpha, norm: str) -> None:
    """Write the float32 distances of each tile of ``tiles``, the minimum
    over its disjuncts, into its target. Every tile reuses the one pair of
    gap buffers ``gaps``, the three result buffers ``sums`` (the first keeps
    the minimum, the third takes each later disjunct) and the buffer
    ``cast`` that takes the tile's entity rows in float32, so the pass
    allocates no array."""
    with np.errstate(**_SCREEN_ERRORS):
        for tile, stacked, target in tiles:
            shape = (*target.shape, tile.shape[1])
            out = [buf[: math.prod(shape)].reshape(shape) for buf in gaps]
            out += [buf[: target.size].reshape(target.shape) for buf in sums]
            rows = cast[: tile.size].reshape(tile.shape)
            np.copyto(rows, tile, casting="same_kind")
            low = out[2]
            for k, bounds in enumerate(stacked):
                work = [*out[:2], out[4] if k else low, out[3]]
                part = distance_batch(rows, bounds, alpha, norm, work)
                if len(stacked) > 1:
                    # inf + (inf - inf) is NaN, which the minimum keeps, so a
                    # disjunct that overflowed is not hidden by a finite one
                    np.add(part, np.subtract(part, part, out=out[3]), out=part)
                if k:
                    np.minimum(low, part, out=low)
            target[...] = low


def min_distance_tiles(entities: np.ndarray, boxes: list[Box], alpha: float, norm: str):
    """Eval's float32 screen: the distances from every row of ``entities``
    (m, d) to a batch of B queries, each the minimum over its disjuncts.
    ``boxes`` holds one Box of stacked (B, d) arrays per disjunct. A finite
    distance lies within ``screen_error`` of the float64 one, which
    ``pair_distances`` gives; only where a float32 value overflows is it
    inf or NaN.

    Yields (start, D) for consecutive chunks of queries, D (c, m) float64
    holding the float32 distances of queries start .. start + c - 1, so
    only one chunk's distances are alive at a time. A chunk holds about
    ``DIST_TILE`` distances, or one tile's queries if that is more, so that
    what its caller does once per chunk costs little. It is computed in the
    calling thread, in tiles of q queries by r entity rows, each written
    into its own (queries, entity rows) slice of D by one ``_tile_pass``
    that reuses one set of gap, result and cast buffers for the whole call.
    With q0 the number of queries whose gaps to every row fit in
    ``DIST_TILE`` elements (at least one), r is the number of rows whose
    gaps to q0 queries do, and q is 2 q0 as long as 2 ``DIST_TILE``
    distances hold that many rows, so a gap buffer holds up to 2
    ``DIST_TILE`` float32 elements. A tile's entity rows are cast once into
    the cast buffer for all of its queries, so no float32 copy of the table
    is made.
    """
    m, d = entities.shape
    n_queries = boxes[0].center.shape[0]
    q = min(n_queries, max(1, DIST_TILE // (m * d)))
    rows = max(1, DIST_TILE // (q * d))
    q = min(n_queries, 2 * q, max(q, 2 * DIST_TILE // m))
    chunk = q * max(1, DIST_TILE // (m * q))
    gaps = np.empty((2, q * min(rows, m) * d), np.float32)
    sums = np.empty((3, q * min(rows, m)), np.float32)
    cast = np.empty(min(rows, m) * d, np.float32)
    alpha = np.float32(alpha)
    # made ahead of the tiles, like each chunk's bounds below, so that a tile
    # pass allocates no array (tests/test_scoring.py TestTilePassAllocations)
    _ones(d, gaps.dtype)
    for start in range(0, n_queries, chunk):
        stop = min(start + chunk, n_queries)
        dist = np.empty((stop - start, m))
        with np.errstate(**_SCREEN_ERRORS):
            bounds = [
                Bounds.of(b.center[start:stop, None], b.offset[start:stop, None]) for b in boxes
            ]
        tiles = []
        for s0 in range(0, stop - start, q):
            s1 = min(s0 + q, stop - start)
            stacked = [Bounds(*(a[s0:s1] for a in b)) for b in bounds]
            tiles += [
                (entities[r0:r0 + rows], stacked, dist[s0:s1, r0:r0 + rows])
                for r0 in range(0, m, rows)
            ]
        _tile_pass(tiles, gaps, sums, cast, alpha, norm)
        yield start, dist


def screen_error(entities: np.ndarray, boxes: list[Box], alpha: float) -> np.ndarray:
    """ε (B,): for query i of ``boxes`` (one Box of stacked (B, d) arrays per
    disjunct) and every entity, a finite distance of the float32 screen
    (``min_distance_tiles``) lies within ε_i of the float64 one.

    Let u = 2^-24 and let M be the largest magnitude of an entity
    coordinate, of the query's centers and of its corners c -/+ o (made in
    float64); let mu = max(M, 2^-102). A float32 operation (a cast, +, -,
    *, sqrt, each step of a sum) gives r(1 + t) + z with |t| <= u and |z|
    <= 2^-126 <= u mu, whether or not r is subnormal or flushed to zero;
    max, min and abs are exact; float64 errs by 2^-29 times less.

    1. Rounding is monotone, so it commutes with max and min: the float32
       clamp p~ of the rounded entity into the rounded corners is the
       rounded float64 clamp p, within 2 u mu of it.
    2. So each coordinate of the outer gap e - p and of the inner gap c - p
       is within 8.2 u mu of its float64 value, and at most 2.01 mu in
       magnitude in either precision.
    3. For both norms, | ||v~|| - ||v|| | <= ||v~ - v||, which is at most
       ||v~ - v||_1 <= 8.2 d u mu. Summing d terms in any order (``_norm``
       sums float32 terms through BLAS) errs by at most 1.01 d u times their
       sum plus d z; with the squares and the square root, the computed L2
       norm is within 1.02 (d + 2) u ||v~||_2 + sqrt(2.2 d 2^-126) of
       ||v~||_2. So each computed norm is within
       2.2 d (d + 6) u mu + 2^-62 sqrt(d) of the float64 one.
    4. d_out + alpha * d_in, with alpha rounded to float32 and two more
       roundings, adds at most (1 + alpha) (6.2 d + 4) u mu.

    In all, |D32 - D64| <= (1 + alpha) (2.2 d (d + 11) u mu + 2^-62 sqrt(d)).
    The ε returned, (1 + alpha) (3 d (d + 10) u mu + 2^-61 sqrt(d)), is more
    by a margin that also covers rounding D64 -/+ ε in float64. Where a
    float32 value overflows, the screened distance becomes inf or NaN and
    stays so, the clamp aside, which rounding monotonely covers, and through
    the minimum over several disjuncts, which ``_tile_pass`` takes after
    making each disjunct's inf NaN: only a non-finite screened distance can
    be off by more than ε, and so it tells its caller to recount. ε itself is inf where it overflows.
    """
    d = entities.shape[1]
    big = max(entities.max(), -entities.min())
    with np.errstate(**_SCREEN_ERRORS):
        for b in boxes:
            for a in (b.center, b.center - b.offset, b.center + b.offset):
                big = np.maximum(big, np.abs(a).max(axis=-1))
        mu = np.maximum(big, 2.0 ** -102)
        return (1 + abs(alpha)) * (3 * d * (d + 10) * 2.0 ** -24 * mu + 2.0 ** -61 * math.sqrt(d))


def pair_distances(
    entities: np.ndarray, boxes: list[Box], rows: np.ndarray, ids: np.ndarray,
    alpha: float, norm: str,
) -> np.ndarray:
    """The float64 distance from entity ``ids[k]`` to query ``rows[k]`` of
    ``boxes`` (one Box of stacked (B, d) arrays per disjunct), the minimum
    over its disjuncts, for every k: ``distance_batch`` on gathered rows,
    each a row of a batch against its own box. Elementwise operations and a
    sum over each row's d terms give every pair the bits ``distance_batch``
    gives the entity against that query's box alone. The pairs go in slices
    of ``DIST_TILE`` gathered elements."""
    out = np.empty(len(ids))
    step = max(1, DIST_TILE // entities.shape[1])
    for p0 in range(0, len(ids), step):
        r, part = rows[p0:p0 + step], out[p0:p0 + step]
        gathered = entities[ids[p0:p0 + step]]
        for k, b in enumerate(boxes):
            dist = distance_batch(gathered, Box(b.center[r], b.offset[r]), alpha, norm)
            if k:
                np.minimum(part, dist, out=part)
            else:
                part[...] = dist
    return out


def distance_with_cache(
    e: np.ndarray, b: Box, alpha: float = DEFAULT_ALPHA, norm: str = DEFAULT_NORM
) -> tuple[Distance, DistanceCache]:
    v_out, u_in = _gaps(e, b)
    return _combine(v_out, u_in, alpha, norm), DistanceCache(v_out, u_in, alpha, norm)


def distance_backward(
    cache: DistanceCache, dd
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_entity, d_center, d_offset) of dd * distance, row by row.

    ``dd`` is a scalar for a single-entity cache and an (m,) vector for a
    batch; every gradient has the entity's shape. Hinge points (entity
    exactly on a box face, or exactly at the center) take the zero
    subgradient.

    A coordinate lies above the box where v_out = e - clamp(e) > 0, below it
    where v_out < 0, and inside where v_out == 0, which is exact: the
    rounded e - p is zero only where e == p.
    """
    dd = np.asarray(dd, dtype=np.float64)[..., None]
    side = np.sign(cache.v_out)  # 1 above the box, -1 below, 0 inside

    # outer part: v = e - clamp(e), where the clamp is center + offset above
    # the box and center - offset below it, so dv/doffset = -side. The
    # norm's gradient g enters as |g| * side: the two differ only in the
    # sign of a zero, where an L2 row's squared gaps underflow to a zero
    # norm, and |g| * side keeps the signed zeros of the hinge form
    # max(e - bmax, 0) + max(bmin - e, 0)
    w = dd * np.abs(_norm_grad(cache.v_out, cache.norm))
    de = w * side
    dc = -de
    doff = -w * np.abs(side)

    # inner part: u = center - clamp(e); outside the box the clamp lands on a
    # face, whose center dependence cancels the leading center term
    w_in = dd * cache.alpha * _norm_grad(cache.u_in, cache.norm)
    inside = side == 0
    de -= w_in * inside
    dc += w_in * inside
    doff -= w_in * (side > 0)
    doff += w_in * (side < 0)
    return de, dc, doff


def min_distance_with_cache(
    entities: np.ndarray, boxes: list[Box], alpha: float, norm: str
) -> tuple[np.ndarray, np.ndarray, DistanceCache]:
    """D(e) for every row of ``entities`` (m, d): the minimum distance over the
    query's disjunct boxes.

    Returns (D (m,), each row's argmin disjunct (m,), the cache of every row
    against its argmin disjunct). Ties go to the first disjunct.
    """
    if not boxes:
        raise ValidationError("query produced no boxes")
    if len(boxes) == 1:
        dist, cache = distance_with_cache(entities, boxes[0], alpha, norm)
        return dist.d, np.zeros(len(dist.d), dtype=np.intp), cache
    per_box = [distance_with_cache(entities, b, alpha, norm) for b in boxes]
    all_d = np.stack([dist.d for dist, _ in per_box])  # (n_boxes, m)
    argmins = np.argmin(all_d, axis=0)
    rows = np.arange(all_d.shape[1])
    # the per-row gaps (v_out, u_in), each from the argmin box
    picked = [np.stack(part)[argmins, rows] for part in zip(*(c[:2] for _, c in per_box))]
    return all_d[argmins, rows], argmins, DistanceCache(*picked, alpha, norm)


# ---------------------------------------------------------------------------
# query execution


@dataclass
class ExecutionTrace:
    """One query's forward pass: its plan, its anchor entity ids (one per
    anchor slot) and relation ids (one per edge slot), every node's disjunct
    boxes, and each intersecting node's per-disjunct caches."""

    plan: Plan
    anchors: list[int]
    relations: list[int]
    nodes: dict[int, list[Box]]
    caches: dict[int, list[IntersectCache]]

    def answer_boxes(self) -> list[Box]:
        return list(self.nodes[self.plan.answer_node])

    def signature(self) -> bytes:
        return b"".join(
            c.signature() for n, *_ in self.plan.steps for c in self.caches.get(n, ())
        )


def _walk(plan: Plan, anchors, relations, params, caches: dict | None = None):
    """Every node's disjunct boxes for ``plan`` run on one id per anchor and
    edge slot: lists of ints for one query, giving (d,) boxes, or (B,)
    array rows for B queries, giving stacked (B, d) boxes. Inverse edges
    use the inverse relation rows. Intersection caches go to ``caches`` if
    it is given, else each is dropped at once."""
    for ids, bound, what in (
        (anchors, params.entity_centers.shape[0], "anchor entity"),
        (relations, len(params.relation_ids), "relation"),
    ):
        if not isinstance(ids, list):  # B queries' id rows
            ids = ids.T  # query-major, so the first bad id is the first query's
            ids = ids[(ids < 0) | (ids >= bound)]
        for i in ids:
            if not 0 <= i < bound:
                raise ValidationError(f"{what} id {i} out of range")
    nodes: dict[int, list[Box]] = {}
    for n, ent in zip(plan.anchors, anchors):
        centers = params.entity_centers[ent]
        nodes[n] = [Box(centers, np.zeros_like(centers))]
    for n, intersects, _, layout in plan.steps:
        projected: dict[tuple[int, int], Box] = {}  # (edge slot, source disjunct)
        for inputs in layout:
            for slot, j in inputs:
                if (slot, j) not in projected:
                    src, _, inverse = plan.edges[slot]
                    rel = params.relation_params(relations[slot], inverse)
                    projected[slot, j] = project(nodes[src][j], rel)
        nodes[n] = boxes = []
        for inputs in layout:
            if not intersects:
                boxes.append(projected[inputs[0]])
                continue
            box, cache = intersect_with_cache([projected[i] for i in inputs], params.net)
            boxes.append(box)
            if caches is not None:
                caches.setdefault(n, []).append(cache)
    return nodes


def execute_with_trace(dag: QueryDag, params) -> ExecutionTrace:
    """Run one query's plan, keeping what ``backward_through_dag`` needs."""
    plan = plan_of(dag)
    anchors, relations = query_ids(dag)
    caches: dict[int, list[IntersectCache]] = {}
    nodes = _walk(plan, anchors, relations, params, caches)
    return ExecutionTrace(plan, anchors, relations, nodes, caches)


def execute_ids(plan: Plan, anchors: np.ndarray, relations: np.ndarray, params) -> list[Box]:
    """Evaluate B queries of one plan at once, given as an (B, n_anchors)
    array of anchor entity ids and a (B, n_edges) array of relation ids.

    Returns the answer node's disjuncts, each a Box of stacked (B, d)
    arrays; row i is bit for bit what ``execute_with_trace`` gives for
    query i alone, since projection is elementwise and
    ``intersect_with_cache`` computes a stack as it computes one
    intersection.
    """
    return _walk(plan, anchors.T, relations.T, params)[plan.answer_node]


def execute_query(dag: QueryDag, params) -> list[Box]:
    """Evaluate the DAG to its disjunct boxes (singleton for union-free
    queries): ``execute_ids`` on a batch of one."""
    anchors, relations = (np.array([ids], dtype=np.int64) for ids in query_ids(dag))
    boxes = execute_ids(plan_of(dag), anchors, relations, params)
    return [Box(b.center[0], b.offset[0]) for b in boxes]


def backward_through_dag(trace: ExecutionTrace, seed_grads, grads) -> None:
    """Propagate per-disjunct (dcenter, doffset) seeds at the answer node back
    to entity centers, relation rows, and intersection-net weights.

    ``seed_grads`` is a list aligned with the answer node's disjuncts; entries
    may be None for disjuncts that received no gradient (e.g. non-minimal
    union branches). ``grads`` is a Grads accumulator.

    The plan's steps run latest first, and each disjunct takes the gradient
    summed into it: an intersection passes it through ``intersect_backward``,
    any other node passes it on unchanged; each input's share then goes to
    its edge's relation rows and to the source disjunct it was projected
    from. The anchors come last, in the reversed topological order (latest
    node id first), and add theirs to their entity rows.
    """
    plan = trace.plan
    acc: dict[int, list] = {n: [None] * len(boxes) for n, boxes in trace.nodes.items()}
    for j, seed in enumerate(seed_grads):
        if seed is not None:
            acc[plan.answer_node][j] = [np.array(g, dtype=np.float64) for g in seed]

    params = grads.params
    for n, intersects, _, layout in reversed(plan.steps):
        for j, (inputs, slot) in enumerate(zip(layout, acc[n])):
            if slot is None:
                continue
            shares = (slot,)
            if intersects:
                dcens, doffs, net_grads = intersect_backward(trace.caches[n][j], *slot)
                for name, g in net_grads.items():
                    grads.add("net", name, g)
                shares = zip(dcens, doffs)
            for (edge, src_j), (dc, do) in zip(inputs, shares):
                src, _, inverse = plan.edges[edge]
                rel = trace.relations[edge]
                grads.add("rel_center", params.center_row(rel, inverse), dc)
                grads.add("rel_offset", params.offset_row(rel, inverse), do)
                target = acc[src]
                if target[src_j] is None:
                    target[src_j] = [dc.copy(), do.copy()]
                else:
                    target[src_j][0] += dc
                    target[src_j][1] += do
    for n, ent in sorted(zip(plan.anchors, trace.anchors), reverse=True):
        slot = acc[n][0]
        if slot is not None:
            grads.add("entity", ent, slot[0])


GRAD_TABLES = ("entity", "rel_center", "rel_offset", "net")


class Grads:
    """Sparse gradient accumulator mirroring a parameter store.

    One dict per table in GRAD_TABLES: entity centers and relation rows are
    keyed by row index, the intersection net by field name. ``params`` is
    the store the rows refer to (used for row arithmetic, never mutated
    here).
    """

    def __init__(self, params) -> None:
        self.params = params
        self.entity: dict[int, np.ndarray] = {}
        self.rel_center: dict[int, np.ndarray] = {}
        self.rel_offset: dict[int, np.ndarray] = {}
        self.net: dict[str, np.ndarray] = {}

    def tables(self) -> dict[str, dict]:
        return {table: getattr(self, table) for table in GRAD_TABLES}

    def add(self, table: str, key, g: np.ndarray) -> None:
        slots = getattr(self, table)
        slot = slots.get(key)
        if slot is None:
            slots[key] = g.copy()
        else:
            slot += g
