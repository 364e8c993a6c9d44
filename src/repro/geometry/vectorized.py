"""Numpy-vectorized visibility predicates.

The visibility graph needs, per query, on the order of ``|VG|^2`` sight-line
tests, each against every retrieved obstacle.  Pure-Python predicates would
dominate the runtime, so the hot paths batch over numpy arrays.  Semantics
are identical to the scalar predicates in :mod:`repro.geometry.predicates`
(the test suite cross-checks them on random inputs):

* rectangle and convex polygon obstacles block only when the sight line
  crosses their *open* interior;
* segment obstacles block only on a *proper* crossing;
* all inputs broadcast, so the same kernels serve "1 segment x N obstacles",
  "E edges x 1 obstacle" and the per-row grids used by shadow computation.

:func:`blocked_batch` is the one batched test the visibility graph decides
its sight lines with: bbox-prefiltered, chunked nearest-first, and early
terminating, it returns the blocked mask and the number of (line,
primitive) pairs its kernels evaluated.
"""

from __future__ import annotations

import numpy as np

from .predicates import EPS

__all__ = [
    "crosses_rect_interior",
    "crosses_convex_polygon",
    "crosses_convex_polygons",
    "PolygonSlab",
    "polygon_slab",
    "proper_cross_segments",
    "blocked_by_rects",
    "blocked_by_segments",
    "blocked_batch",
    "primitive_bounds",
    "visibility_mask",
]

BATCH_TILE_ELEMS = 65_536
"""(Sight line, primitive) pairs per chunk of :func:`blocked_batch`.

Sized to keep a chunk's intermediates (~16 temporaries per element)
inside the L2 cache: measured on the bulk-build workload, 64k-element
tiles ran the same pair set ~2.5x faster than a 4M cap, which only
bounded peak memory and let every temporary stream through DRAM.
Chunking never changes results — the kernels are elementwise."""

_TINY = 1e-300
"""Division guard: replacing a zero direction component by this keeps the
slab-test signs correct while avoiding NaNs entirely."""


def crosses_rect_interior(ax, ay, bx, by, xlo, ylo, xhi, yhi, eps: float = EPS):
    """Broadcasted test: does segment ``[a, b]`` cross the open rectangle interior?

    All eight arguments broadcast against each other; the result has the
    broadcast shape.  Degenerate rectangles never block; running along an
    edge or touching a corner never blocks.
    """
    with np.errstate(all="ignore"):
        dx = np.subtract(bx, ax)
        dy = np.subtract(by, ay)
        dxs = np.where(dx == 0.0, _TINY, dx)
        dys = np.where(dy == 0.0, _TINY, dy)
        tx1 = (xlo - ax) / dxs
        tx2 = (xhi - ax) / dxs
        ty1 = (ylo - ay) / dys
        ty2 = (yhi - ay) / dys
        t0 = np.maximum(np.maximum(np.minimum(tx1, tx2), np.minimum(ty1, ty2)),
                        0.0)
        t1 = np.minimum(np.minimum(np.maximum(tx1, tx2), np.maximum(ty1, ty2)),
                        1.0)
        width = xhi - xlo
        height = yhi - ylo
        overlap = (t1 - t0) > eps
        tm = 0.5 * (t0 + t1)
        mx = ax + tm * dx
        my = ay + tm * dy
        ex = np.minimum(eps, width * 1e-7)
        ey = np.minimum(eps, height * 1e-7)
        inside = ((mx > xlo + ex) & (mx < xhi - ex) &
                  (my > ylo + ey) & (my < yhi - ey))
        nondegenerate = (width > eps) & (height > eps)
        return overlap & inside & nondegenerate


def crosses_convex_polygon(ax: float, ay: float, bx, by, poly: np.ndarray,
                           eps: float = EPS) -> np.ndarray:
    """Do segments from ``(ax, ay)`` to each ``(bx, by)`` cross a convex polygon?

    ``poly`` is a (V, 2) array of counter-clockwise vertices.  Semantics match
    the rectangle kernel: only passing through the *open interior* blocks;
    grazing along an edge or through a vertex does not.  The source point is
    scalar, targets broadcast — the shape every caller needs (visibility rows,
    shadow midpoint grids).
    """
    bx = np.asarray(bx, dtype=np.float64)
    by = np.asarray(by, dtype=np.float64)
    n = poly.shape[0]
    with np.errstate(all="ignore"):
        dxs = bx - ax
        dys = by - ay
        t0 = np.zeros(bx.shape)
        t1 = np.ones(bx.shape)
        feasible = np.ones(bx.shape, dtype=bool)
        for i in range(n):
            px, py = poly[i]
            qx, qy = poly[(i + 1) % n]
            ex = qx - px
            ey = qy - py
            c = ex * (ay - py) - ey * (ax - px)   # cross(edge, a - p)
            d = ex * dys - ey * dxs               # cross(edge, b - a)
            r = np.where(d != 0.0, -c / np.where(d == 0.0, 1.0, d), 0.0)
            t0 = np.where(d > 0.0, np.maximum(t0, r), t0)
            t1 = np.where(d < 0.0, np.minimum(t1, r), t1)
            feasible &= ~((d == 0.0) & (c < 0.0))
        overlap = feasible & ((t1 - t0) > eps)
        tm = 0.5 * (t0 + t1)
        mx = ax + tm * dxs
        my = ay + tm * dys
        inside = overlap.copy()
        for i in range(n):
            px, py = poly[i]
            qx, qy = poly[(i + 1) % n]
            ex = qx - px
            ey = qy - py
            scale = max(abs(ex) + abs(ey), 1.0)
            f = ex * (my - py) - ey * (mx - px)
            inside &= f > eps * scale
        return inside


class PolygonSlab:
    """Convex polygons padded into one batch of vertex arrays.

    ``px, py`` hold each polygon's counter-clockwise vertices and
    ``ex, ey`` the edge from each vertex to its successor, so entry
    ``[j, i]`` is edge ``j`` of polygon ``i``; ``scale`` is that edge's
    interior-test tolerance factor, ``max(|ex| + |ey|, 1)``.  The arrays
    are vertex-major, ``(Vmax, P)``: the kernel's elementwise loops then
    run along the long polygon/pair axis instead of the 3-8 vertices.
    Polygons with fewer than ``Vmax`` vertices are padded with zero-length
    edges at their first vertex, flagged False in ``valid``.  ``bounds``
    holds the (P, 4) ``[xlo, ylo, xhi, yhi]`` AABBs.

    Indexing selects polygons: ``slab[n:]`` keeps polygons ``n..`` (the
    watermark slices), ``slab[idx]`` gathers one per index array entry.
    """

    __slots__ = ("px", "py", "ex", "ey", "scale", "valid", "bounds")

    def __init__(self, px, py, ex, ey, scale, valid, bounds):
        self.px = px
        self.py = py
        self.ex = ex
        self.ey = ey
        self.scale = scale
        self.valid = valid
        self.bounds = bounds

    def __len__(self) -> int:
        return self.bounds.shape[0]

    def __getitem__(self, index) -> "PolygonSlab":
        arrays = (self.px, self.py, self.ex, self.ey, self.scale, self.valid)
        if isinstance(index, slice):
            return PolygonSlab(*(a[:, index] for a in arrays),
                               self.bounds[index])
        # np.take keeps the gathered (Vmax, K) arrays C-contiguous;
        # a[:, idx] would lay them out pair-major.
        return PolygonSlab(*(np.take(a, index, axis=1) for a in arrays),
                           self.bounds[index])

    @property
    def vmax(self) -> int:
        return self.px.shape[0]


def polygon_slab(polys) -> PolygonSlab:
    """Pack (V, 2) counter-clockwise vertex arrays into a :class:`PolygonSlab`."""
    p = len(polys)
    if p == 0:
        e = np.empty((0, 0), dtype=np.float64)
        return PolygonSlab(e, e, e, e, e, np.empty((0, 0), dtype=bool),
                           np.empty((0, 4), dtype=np.float64))
    counts = np.fromiter((a.shape[0] for a in polys), dtype=np.int64, count=p)
    flat = np.concatenate(polys)
    starts = np.zeros(p, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    flat_idx = np.arange(flat.shape[0])
    row = np.repeat(np.arange(p), counts)
    col = flat_idx - np.repeat(starts, counts)
    succ = flat_idx + 1
    succ[starts + counts - 1] = starts
    vmax = int(counts.max())
    px, py, qx, qy = (np.repeat(flat[starts, axis][None, :], vmax, axis=0)
                      for axis in (0, 1, 0, 1))
    px[col, row] = flat[:, 0]
    py[col, row] = flat[:, 1]
    qx[col, row] = flat[succ, 0]
    qy[col, row] = flat[succ, 1]
    ex = qx - px
    ey = qy - py
    valid = np.zeros((vmax, p), dtype=bool)
    valid[col, row] = True
    bounds = np.stack([np.minimum.reduceat(flat[:, 0], starts),
                       np.minimum.reduceat(flat[:, 1], starts),
                       np.maximum.reduceat(flat[:, 0], starts),
                       np.maximum.reduceat(flat[:, 1], starts)], axis=1)
    return PolygonSlab(px, py, ex, ey,
                       np.maximum(np.abs(ex) + np.abs(ey), 1.0), valid, bounds)


def crosses_convex_polygons(ax, ay, bx, by, slab: PolygonSlab,
                            eps: float = EPS) -> np.ndarray:
    """Broadcast :func:`crosses_convex_polygon` over many polygons at once.

    The sight-line arguments broadcast against the slab's polygon shape
    (``len(slab)``, or whatever indexing made of it): ``(K,)`` lines
    against a ``(K,)``-gathered slab test pairs, ``(M, 1)`` lines against
    a whole slab test the full grid.  Every (line, polygon) element runs
    the one-polygon kernel's operations in the same order — its per-edge
    ``max``/``min`` clip sequence becomes one exact reduction over the
    vertex axis — so each result is bit-identical to it.  Padded edges are
    zero-length (they never move the clip) and are masked out of the
    interior test.
    """
    ax = np.asarray(ax, dtype=np.float64)
    ay = np.asarray(ay, dtype=np.float64)
    with np.errstate(all="ignore"):
        dxs = np.subtract(bx, ax)
        dys = np.subtract(by, ay)
        px, py, ex, ey, scale, valid = (slab.px, slab.py, slab.ex, slab.ey,
                                        slab.scale, slab.valid)
        extra = max(dxs.ndim, dys.ndim) - (px.ndim - 1)
        if extra > 0:
            # Line the polygon axes up with the sight lines' trailing axes.
            shape = px.shape[:1] + (1,) * extra + px.shape[1:]
            px, py, ex, ey, scale, valid = (
                a.reshape(shape) for a in (px, py, ex, ey, scale, valid))
        c = ex * (ay - py) - ey * (ax - px)
        d = ex * dys - ey * dxs
        # The reference clips with r = -c / d; negation is exact, so
        # max(r) == -min(c / d) bit for bit.
        q = c / d
        t0 = np.maximum(-q.min(axis=0, where=d > 0.0, initial=np.inf), 0.0)
        t1 = np.minimum(-q.max(axis=0, where=d < 0.0, initial=-np.inf), 1.0)
        infeasible = np.broadcast_to(c < 0.0, d.shape).any(axis=0,
                                                          where=d == 0.0)
        overlap = ~infeasible & ((t1 - t0) > eps)
        tm = 0.5 * (t0 + t1)
        mx = ax + tm * dxs
        my = ay + tm * dys
        inside = ex * (my - py) - ey * (mx - px) > eps * scale
        return overlap & inside.all(axis=0, where=valid)


def _orient_sign(ax, ay, bx, by, cx, cy, eps: float = EPS):
    """Vectorized tolerant orientation sign (-1, 0, +1)."""
    bax = np.subtract(bx, ax)
    bay = np.subtract(by, ay)
    cax = np.subtract(cx, ax)
    cay = np.subtract(cy, ay)
    v = bax * cay - bay * cax
    scale = (np.maximum(np.abs(bax) + np.abs(bay), 1.0) *
             np.maximum(np.abs(cax) + np.abs(cay), 1.0))
    tol = eps * scale
    return (v > tol).astype(np.int8) - (v < -tol).astype(np.int8)


def proper_cross_segments(ax, ay, bx, by, cx, cy, dx, dy, eps: float = EPS):
    """Broadcasted proper-crossing test of open segments ``(a,b)`` and ``(c,d)``."""
    s1 = _orient_sign(ax, ay, bx, by, cx, cy, eps)
    s2 = _orient_sign(ax, ay, bx, by, dx, dy, eps)
    s3 = _orient_sign(cx, cy, dx, dy, ax, ay, eps)
    s4 = _orient_sign(cx, cy, dx, dy, bx, by, eps)
    return (s1 * s2 < 0) & (s3 * s4 < 0)


def blocked_by_rects(ax, ay, bx, by, rects: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Mask of which rectangles in ``rects`` (N, 4) block segment ``[a, b]``."""
    if rects.size == 0:
        return np.zeros(0, dtype=bool)
    return crosses_rect_interior(ax, ay, bx, by,
                                 rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3],
                                 eps)


def blocked_by_segments(ax, ay, bx, by, segs: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Mask of which segment obstacles in ``segs`` (M, 4) block segment ``[a, b]``."""
    if segs.size == 0:
        return np.zeros(0, dtype=bool)
    return proper_cross_segments(ax, ay, bx, by,
                                 segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3],
                                 eps)


def primitive_bounds(rects: np.ndarray, segs: np.ndarray, polys: PolygonSlab
                     ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Per-primitive AABBs for :func:`blocked_batch`'s bbox prefilter.

    Returns ``(rect_bounds, seg_bounds, poly_bounds)``, each of shape
    (N, 4) as ``[xlo, ylo, xhi, yhi]`` rows.  Rectangle obstacles already
    *are* their bounds (``RectObstacle`` validates ``lo <= hi``) and a
    polygon slab carries its own, so those are returned without copying;
    segment bounds order each coordinate pair.
    """
    if segs.size:
        sb = np.empty((segs.shape[0], 4), dtype=np.float64)
        np.minimum(segs[:, 0], segs[:, 2], out=sb[:, 0])
        np.minimum(segs[:, 1], segs[:, 3], out=sb[:, 1])
        np.maximum(segs[:, 0], segs[:, 2], out=sb[:, 2])
        np.maximum(segs[:, 1], segs[:, 3], out=sb[:, 3])
    else:
        sb = np.empty((0, 4), dtype=np.float64)
    return rects, sb, polys.bounds


def _rect_kernel(sx, sy, tx, ty, rects: np.ndarray, eps: float):
    return crosses_rect_interior(sx, sy, tx, ty, rects[:, 0], rects[:, 1],
                                 rects[:, 2], rects[:, 3], eps)


def _seg_kernel(sx, sy, tx, ty, segs: np.ndarray, eps: float):
    return proper_cross_segments(sx, sy, tx, ty, segs[:, 0], segs[:, 1],
                                 segs[:, 2], segs[:, 3], eps)


def _chunk_rows(lines: int, cost: int) -> int:
    """Primitives per chunk of ``lines`` sight lines; a polygon pair walks
    ``cost`` edges, so polygon chunks hold proportionally fewer rows."""
    return max(1, max(8, BATCH_TILE_ELEMS // lines) // cost)


def blocked_batch(sources: np.ndarray, targets: np.ndarray,
                  rects: np.ndarray, segs: np.ndarray, polys: PolygonSlab,
                  bounds: tuple, eps: float = EPS
                  ) -> "tuple[np.ndarray, int]":
    """Which of M candidate sight lines are blocked by *any* primitive?

    The visibility graph's one batched sight-line test: row ``i`` of
    ``sources`` / ``targets`` (both (M, 2)) is one sight line, tested
    against every rectangle, segment and polygon-slab row; ``bounds`` is
    the :func:`primitive_bounds` of ``rects`` / ``segs`` / ``polys``.

    A kernel only evaluates the (line, primitive) pairs whose padded
    AABBs overlap.  A kind's primitives go through in chunks of about
    ``BATCH_TILE_ELEMS`` pairs (fewer rows for polygons, in proportion to
    their vertex count), nearest the lines' centroid first, and lines
    already proven blocked drop out of every later chunk and kind: a
    sight line crossed by many obstacles — the common case in a dense
    scene — is decided by the first chunk or two.  A kind whose
    primitives all fit the first chunk runs in one pass in stored order.

    Blocking is a union over primitives and the kernels are elementwise,
    so the mask is bit-identical to the scalar predicates on each line
    however lines are batched and primitives chunked.  The prefilter pad
    scales eps by the batch's coordinate magnitude, so it dominates both
    the kernels' tolerant comparisons and the rounding of the
    clipped-midpoint lerp: no blocking pair is skipped.

    Returns:
        ``(blocked, tested)``: the (M,) mask, True where the line is
        blocked, and the number of pairs a kernel evaluated.  The other
        ``M x primitives`` pairs were skipped by the prefilter or by
        early termination.
    """
    m = sources.shape[0]
    blocked = np.zeros(m, dtype=bool)
    tested = 0
    if m == 0:
        return blocked, tested
    sx, sy = sources.T
    tx, ty = targets.T
    exlo = np.minimum(sx, tx)
    exhi = np.maximum(sx, tx)
    eylo = np.minimum(sy, ty)
    eyhi = np.maximum(sy, ty)
    scale = 1.0 + max(float(np.abs(sources).max()),
                      float(np.abs(targets).max()))
    pad = 8.0 * eps * scale
    # Lines still undecided: all of them (None) until one is proven
    # blocked; the index array is refreshed only when another chunk runs.
    alive = None
    stale = False
    for kernel, prims, pb in zip((_rect_kernel, _seg_kernel,
                                  crosses_convex_polygons),
                                 (rects, segs, polys), bounds):
        n = len(prims)
        cost = prims.vmax if kernel is crosses_convex_polygons else 1
        order = None
        pos = 0
        while pos < n:
            if stale:
                alive = (np.flatnonzero(~blocked) if alive is None
                         else alive[~blocked[alive]])
                stale = False
            lines = m if alive is None else alive.size
            if not lines:
                break
            chunk = _chunk_rows(lines, cost)
            if pos == 0 and n > chunk:
                cx = 0.5 * (float(sx.mean()) + float(tx.mean()))
                cy = 0.5 * (float(sy.mean()) + float(ty.mean()))
                order = np.argsort((0.5 * (pb[:, 0] + pb[:, 2]) - cx) ** 2
                                   + (0.5 * (pb[:, 1] + pb[:, 3]) - cy) ** 2,
                                   kind="stable")
            if order is None:
                sel, boxes = None, pb
                pos = n
            else:
                sel = order[pos:pos + chunk]
                boxes = pb[sel]
                pos += chunk
            if alive is None:
                axlo, axhi = exlo[:, None], exhi[:, None]
                aylo, ayhi = eylo[:, None], eyhi[:, None]
            else:
                axlo, axhi = exlo[alive, None], exhi[alive, None]
                aylo, ayhi = eylo[alive, None], eyhi[alive, None]
            overlap = axlo <= boxes[None, :, 2] + pad
            overlap &= axhi >= boxes[None, :, 0] - pad
            overlap &= aylo <= boxes[None, :, 3] + pad
            overlap &= ayhi >= boxes[None, :, 1] - pad
            ei, oi = overlap.nonzero()
            if not ei.size:
                continue
            tested += ei.size
            pi = ei if alive is None else alive[ei]
            pick = oi if sel is None else sel[oi]
            # A one-primitive chunk broadcasts that primitive instead of
            # gathering a copy of it per pair.
            hit = kernel(sx[pi], sy[pi], tx[pi], ty[pi],
                         prims[pick[:1] if boxes.shape[0] == 1 else pick],
                         eps)
            if hit.any():
                blocked[pi[hit]] = True
                stale = True
    return blocked, tested


def visibility_mask(vx: float, vy: float, targets: np.ndarray,
                    rects: np.ndarray, segs: np.ndarray,
                    polys=(), eps: float = EPS) -> np.ndarray:
    """For each row of ``targets`` (K, 2): is the sight line from ``v`` unblocked?

    ``polys`` is an optional sequence of (V, 2) counter-clockwise vertex
    arrays for convex polygon obstacles.
    """
    k = targets.shape[0]
    visible = np.ones(k, dtype=bool)
    if k == 0:
        return visible
    tx = targets[:, 0]
    ty = targets[:, 1]
    if rects.size:
        blocked = crosses_rect_interior(
            vx, vy, tx[:, None], ty[:, None],
            rects[None, :, 0], rects[None, :, 1], rects[None, :, 2], rects[None, :, 3],
            eps,
        ).any(axis=1)
        visible &= ~blocked
    if segs.size:
        blocked = proper_cross_segments(
            vx, vy, tx[:, None], ty[:, None],
            segs[None, :, 0], segs[None, :, 1], segs[None, :, 2], segs[None, :, 3],
            eps,
        ).any(axis=1)
        visible &= ~blocked
    for poly in polys:
        visible &= ~crosses_convex_polygon(vx, vy, tx, ty, poly, eps)
    return visible
