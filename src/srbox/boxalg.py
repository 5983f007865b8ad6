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

The entity-to-box distance has an outer part (L1 gap to the nearest box
face, zero inside the box) and an inner part (L1 gap from the clamped point
to the center), combined as d_out + alpha * d_in. The norm is configurable
to L2. One kernel computes it for a single entity (d,) or for every row of
a batch (m, d) against one box: ``distance`` and ``distance_batch`` keep
only the distances, ``distance_with_cache`` also keeps the gaps and hinge
sides, and ``distance_backward`` turns them into gradients for all rows at
once. Evaluation ranks stacked query boxes against every entity through
``min_distance_tiles``, which runs ``distance_batch`` on cache-sized tiles
split across worker threads, one CPU each (at most two); every tile writes
its own slice of the result, so its distances have the same bits for any
worker count.

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

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partialmethod
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

    def copy(self) -> "IntersectionNet":
        return IntersectionNet(**{name: arr.copy() for name, arr in self.arrays().items()})

    def validate(self, dim: int) -> None:
        check_arrays(self.arrays(), self.shapes(dim))


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


def entity_box(center: np.ndarray) -> Box:
    """An entity as the degenerate box at its own center."""
    center = np.asarray(center, dtype=np.float64)
    if not np.all(np.isfinite(center)):
        raise ValidationError("entity center must be finite")
    return Box(center, np.zeros_like(center))


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


class DistanceCache(NamedTuple):
    """What ``distance_backward`` needs, for one entity (d,) or a batch (m, d)."""

    above: np.ndarray  # e strictly above the top face
    below: np.ndarray  # e strictly below the bottom face
    v_out: np.ndarray  # per-dim outer gap
    u_in: np.ndarray  # center - clamped point
    alpha: float
    norm: str

    def signature(self) -> bytes:
        return b"".join(
            (
                self.above.tobytes(),
                self.below.tobytes(),
                np.sign(self.u_in).tobytes(),
            )
        )


def _norm(v: np.ndarray, norm: str, out: np.ndarray | None = None) -> np.ndarray:
    """Norm of each row (last axis). ``out``, a buffer of the result shape,
    takes the norms, and then ``v`` is overwritten with the elementwise
    terms, so the call allocates nothing."""
    terms = None if out is None else v
    if norm == "l1":
        return np.abs(v, out=terms).sum(axis=-1, out=out)
    if norm == "l2":
        return np.sqrt(np.multiply(v, v, out=terms).sum(axis=-1, out=out), out=out)
    raise ValidationError(f"unknown norm {norm!r}")


def _norm_grad(v: np.ndarray, norm: str) -> np.ndarray:
    """Gradient of each row's norm; a zero row takes the zero subgradient."""
    if norm == "l1":
        return np.sign(v)
    mag = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    return np.divide(v, mag, out=np.zeros_like(v), where=mag > 0.0)


def _gaps(e: np.ndarray, b: Box, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Outer gap (to the nearest face, zero inside) and inner gap (center
    minus the clamped point) of an entity (d,) or of each row of (m, d); a
    box of stacked (q, 1, d) arrays gives every row's gaps to each of the q
    boxes, (q, m, d). ``out`` is an optional pair of buffers of the result
    shape to write the two gaps into."""
    if e.shape[-1:] != b.center.shape[-1:]:
        raise ValidationError(f"entity shape {e.shape} does not match box dim {b.dim}")
    bmax, bmin = b.bmax, b.bmin
    v_out, u_in = (None, None) if out is None else out
    # v_out = max(e - bmax, 0) + max(bmin - e, 0)
    v_out = np.subtract(e, bmax, out=v_out)
    np.maximum(v_out, 0.0, out=v_out)
    u_in = np.subtract(bmin, e, out=u_in)
    np.maximum(u_in, 0.0, out=u_in)
    v_out += u_in
    # u_in = center - min(bmax, max(bmin, e))
    np.maximum(bmin, e, out=u_in)
    np.minimum(bmax, u_in, out=u_in)
    np.subtract(b.center, u_in, out=u_in)
    return v_out, u_in


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


def distance(e: np.ndarray, b: Box, alpha: float = 0.02, norm: str = "l1") -> Distance:
    """Two-part entity-to-box distance d_out + alpha * d_in, for one entity
    (d,) or for every row of (m, d)."""
    return _combine(*_gaps(e, b), alpha, norm)


def distance_batch(
    entities: np.ndarray, b: Box, alpha: float = 0.02, norm: str = "l1", out=(None,) * 4
) -> np.ndarray:
    """Distance from every row of ``entities`` (m, d) to one box, (m,), or to
    each box of a stacked (q, 1, d) box, (q, m). ``out`` may hold four work
    buffers, which the call overwrites instead of allocating: two of the
    gap shape, then two of the result shape, the first of which holds the
    result. Either way the distances have the same bits."""
    return _combine(*_gaps(entities, b, out[:2]), alpha, norm, out[2:]).d


# elements of one gap buffer in the tiled distance pass: both buffers of a
# tile, 512 KB at this size, stay in a core's L2 cache
DIST_TILE = 1 << 15

# most threads of the tiled distance pass, the calling thread included: two
# is the count measured. Every worker holds its own tile buffers, so more
# would raise the pass's memory, and the CPU affinity does not see a
# container's CPU quota.
MAX_DIST_WORKERS = 2


def _distance_workers() -> int:
    """The CPUs this process may run on, at most ``MAX_DIST_WORKERS``."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, MAX_DIST_WORKERS)


DIST_WORKERS = _distance_workers()

# tiles per worker that a chunk of queries holds at least, so handing a chunk
# to the pool costs little against its tiles; a larger chunk would hold more
# distance rows alive
TILES_PER_WORKER = 4


def _in_parallel(pool: ThreadPoolExecutor, work, shares: list) -> None:
    """``work(*share)`` for every share: the first in the calling thread,
    the others on ``pool``. Returns once every share has finished; an error
    is raised as it was raised, the earliest share's first."""
    futures = [pool.submit(work, *share) for share in shares[1:]]
    try:
        work(*shares[0])
    finally:
        errors = [f.exception() for f in futures]
    for exc in errors:
        if exc is not None:
            raise exc


def _tile_pass(tiles, gaps: np.ndarray, sums: np.ndarray, alpha: float, norm: str) -> None:
    """Write the distances of each tile taken from the iterator ``tiles``,
    the minimum over its disjuncts, into its target. Every tile reuses the
    one pair of gap buffers ``gaps`` and the pair of result buffers
    ``sums``, so the pass allocates no array."""
    for tile, stacked, target in tiles:
        shape = (*target.shape, tile.shape[1])
        out = [buf[: math.prod(shape)].reshape(shape) for buf in gaps]
        out += [buf[: target.size].reshape(target.shape) for buf in sums]
        for k, box in enumerate(stacked):
            part = distance_batch(tile, box, alpha, norm, out)
            if k == 0:
                target[...] = part
            else:
                np.minimum(target, part, out=target)


def min_distance_tiles(
    entities: np.ndarray, boxes: list[Box], alpha: float, norm: str
):
    """Distances from every row of ``entities`` (m, d) to a batch of B
    queries, each the minimum over its disjuncts: ``boxes`` holds one Box of
    stacked (B, d) arrays per disjunct.

    Yields (start, D) for consecutive chunks of queries, D (c, m) for
    queries start .. start + c - 1, so only one chunk's distances are alive
    at a time. A chunk is computed in tiles of q queries by as many entity
    rows as keep a tile's gaps within ``DIST_TILE`` elements; every
    distance is the one ``distance_batch`` gives for one query's box.

    A chunk holds at least ``TILES_PER_WORKER`` tiles per worker, and up to
    ``DIST_WORKERS`` workers compute them: the calling thread and the
    threads of a pool that ends with the call, each with its own gap and
    result buffers, each taking the chunk's next tile whenever it is free
    and writing the tile's disjoint (queries, entity rows) slice of D.
    Since a tile gets the same operands whichever thread runs it, every
    distance has the same bits for any worker count and tile size. With one
    worker, or a chunk of one tile, no thread is started.
    """
    m, d = entities.shape
    n_queries = boxes[0].center.shape[0]
    q = min(n_queries, max(1, DIST_TILE // (m * d)))
    rows = max(1, DIST_TILE // (q * d))
    row_tiles = -(-m // rows)
    chunk = q * -(-TILES_PER_WORKER * DIST_WORKERS // row_tiles)
    n_workers = min(DIST_WORKERS, -(-min(chunk, n_queries) // q) * row_tiles)
    gaps = np.empty((n_workers, 2, q * min(rows, m) * d))
    sums = np.empty((n_workers, 2, q * min(rows, m)))
    # the pool starts its threads on the first submit and ends them on exit
    with ThreadPoolExecutor(max(1, n_workers - 1), "srbox-distance") as pool:
        for start in range(0, n_queries, chunk):
            stop = min(start + chunk, n_queries)
            dist = np.empty((stop - start, m))
            tiles = []
            for s0 in range(start, stop, q):
                s1 = min(s0 + q, stop)
                stacked = [Box(b.center[s0:s1, None], b.offset[s0:s1, None]) for b in boxes]
                tiles += [
                    (entities[r0:r0 + rows], stacked, dist[s0 - start:s1 - start, r0:r0 + rows])
                    for r0 in range(0, m, rows)
                ]
            todo = iter(tiles)  # shared: under the GIL each next() hands out one tile
            _in_parallel(pool, _tile_pass, [
                (todo, gaps[w], sums[w], alpha, norm) for w in range(min(n_workers, len(tiles)))
            ])
            yield start, dist


def distance_with_cache(
    e: np.ndarray, b: Box, alpha: float = 0.02, norm: str = "l1"
) -> tuple[Distance, DistanceCache]:
    v_out, u_in = _gaps(e, b)
    cache = DistanceCache(e > b.bmax, e < b.bmin, v_out, u_in, alpha, norm)
    return _combine(v_out, u_in, alpha, norm), cache


def distance_backward(
    cache: DistanceCache, dd
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_entity, d_center, d_offset) of dd * distance, row by row.

    ``dd`` is a scalar for a single-entity cache and an (m,) vector for a
    batch; every gradient has the entity's shape. Hinge points (entity
    exactly on a box face, or exactly at the center) take the zero
    subgradient.
    """
    above = cache.above.astype(np.float64)
    below = cache.below.astype(np.float64)
    dd = np.asarray(dd, dtype=np.float64)[..., None]
    g_out = _norm_grad(cache.v_out, cache.norm)
    g_in = _norm_grad(cache.u_in, cache.norm)

    # outer part: v = max(e - bmax, 0) + max(bmin - e, 0)
    w = dd * g_out
    de = w * (above - below)
    dc = -de
    doff = -w * (above + below)

    # inner part: u = center - clamp(e); outside the box the clamp lands on a
    # face, whose center dependence cancels the leading center term
    w_in = dd * cache.alpha * g_in
    inside = ~(cache.above | cache.below)
    de -= w_in * inside
    dc += w_in * inside
    doff -= w_in * above
    doff += w_in * below
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
    # the per-row cache fields (above, below, v_out, u_in), each from the argmin box
    picked = [np.stack(part)[argmins, rows] for part in zip(*(c[:4] for _, c in per_box))]
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
    edge slot: ints for one query, giving (d,) boxes, or (B,) arrays for B
    queries, giving stacked (B, d) boxes. Inverse edges use the inverse
    relation rows. Intersection caches go to ``caches`` if it is given, else
    each is dropped at once."""
    for ids, bound, what in (
        (anchors, params.entity_centers.shape[0], "anchor entity"),
        (relations, len(params.relation_ids), "relation"),
    ):
        ids = np.asarray(ids).T  # query-major, so the first bad id is the first query's
        bad = ids[(ids < 0) | (ids >= bound)]
        if bad.size:
            raise ValidationError(f"{what} id {bad[0]} out of range")
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


def execute_batch(plan: Plan, dags: list[QueryDag], params) -> list[Box]:
    """Evaluate B query DAGs of one plan at once, as stacked (B, d) arrays.

    Returns the answer node's disjuncts, each a Box of (B, d) arrays; row i
    is bit for bit what ``execute_with_trace`` gives for ``dags[i]``, since
    projection is elementwise and ``intersect_with_cache`` computes a stack
    as it computes one intersection.
    """
    ids = [query_ids(dag) for dag in dags]
    anchor_ids = np.array([a for a, _ in ids], dtype=np.intp)
    relation_ids = np.array([r for _, r in ids], dtype=np.intp)
    return _walk(plan, anchor_ids.T, relation_ids.T, params)[plan.answer_node]


def execute_query(dag: QueryDag, params) -> list[Box]:
    """Evaluate the DAG to its disjunct boxes (singleton for union-free
    queries): ``execute_batch`` on a batch of one."""
    return [Box(b.center[0], b.offset[0]) for b in execute_batch(plan_of(dag), [dag], params)]


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

    add_entity = partialmethod(add, "entity")
    add_rel_center = partialmethod(add, "rel_center")
    add_rel_offset = partialmethod(add, "rel_offset")
    add_net = partialmethod(add, "net")

    def scale(self, s: float) -> "Grads":
        for slots in self.tables().values():
            for g in slots.values():
                g *= s
        return self

    def iadd(self, other: "Grads") -> "Grads":
        for table, slots in other.tables().items():
            for key, g in slots.items():
                self.add(table, key, g)
        return self
