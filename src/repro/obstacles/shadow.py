"""Shadow intervals and visible regions (Definition 2 of the paper).

The *visible region* ``VR_{v,q}`` of a viewpoint ``v`` over the query segment
``q`` is the set of parameters ``t`` whose sight line ``[v, q(t)]`` no
obstacle blocks.  Each convex obstacle blocks a single parameter interval —
its *shadow* — because the shadow volume of a convex body under a point light
source is convex, and a convex region meets a line in an interval.

Both computations find the shadow exactly by the candidate-line method: the
blocked predicate can only switch value at parameters where the sight line
passes through an obstacle vertex or where ``q`` itself crosses an obstacle's
supporting line.  We collect those candidate parameters, classify each
elementary gap by testing its midpoint, and take the blocked span.

The functions are numpy and in *pair form*: each kind's function
(rectangles, segments, the padded convex-polygon slab) takes the
viewpoint either as scalars or as arrays aligned with the primitive
rows, so one call classifies the gap grid of many (viewpoint, primitive)
pairs.  Every element runs the one-viewpoint operations in the same
order, so a pair's intervals are bit-identical to those of a call with
that viewpoint alone.

:func:`viewpoint_shadows` builds those pairs for K viewpoints with an
exact triangle prefilter: the sight lines ``[v, q(t)]`` lie inside the
triangle ``(v, S, E)``, so only primitives whose AABB overlaps the
triangle's AABB (padded like the batch visibility kernel's prefilter)
are paired with ``v``; a pruned pair casts no shadow.  The visibility
graph fills the regions of a whole wave of nodes with it, and
:func:`shadow_set` / :func:`visible_region` are its one-viewpoint case.
The test suite checks them against a scalar per-obstacle reference
(``tests/reference.py``; tuple for tuple on polygons), both against dense
sampling, and the pair grid against the one-viewpoint calls.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..geometry.interval import IntervalSet
from ..geometry.predicates import EPS
from ..geometry.segment import Segment
from ..geometry.vectorized import (
    PolygonSlab,
    crosses_convex_polygons,
    crosses_rect_interior,
    polygon_slab,
    primitive_bounds,
    proper_cross_segments,
)
from .obstacle import ObstacleSet

_WIDTH_EPS = 1e-9


# ----------------------------------------------------------------- vectorized
Shadows = Tuple[np.ndarray, np.ndarray, np.ndarray]
"""``(rows, lo, hi)``: primitive row ``rows[i]`` blocks ``[lo[i], hi[i]]``.

Rows ascend; a row appears once per blocked interval it casts (a
rectangle or segment casts at most one)."""

_NO_SHADOWS: Shadows = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))


def shadow_gaps(polys: "PolygonSlab") -> Tuple[int, int, int]:
    """Candidate gaps per primitive in the rectangle, segment and polygon
    shadow grids: 4 corner sight lines + 4 side lines, 2 endpoint sight
    lines + the segment's own line, and ``Vmax`` vertex sight lines +
    ``Vmax`` edge lines, each between the two ends of ``q``."""
    return 9, 4, 2 * polys.vmax + 1


def _column(v) -> np.ndarray:
    """A viewpoint coordinate as a column broadcasting over primitive rows:
    a scalar becomes (1, 1), an (N,) pair-form array (N, 1)."""
    return np.reshape(v, (-1, 1))


def _row_spans(blocked: np.ndarray, lows: np.ndarray,
               highs: np.ndarray) -> Shadows:
    """Per row of a (rows, gaps) grid: first blocked low to last blocked high."""
    rows = blocked.any(axis=1).nonzero()[0]
    if not rows.size:
        return _NO_SHADOWS
    blocked = blocked[rows]
    lo = np.where(blocked, lows[rows], np.inf).min(axis=1)
    hi = np.where(blocked, highs[rows], -np.inf).max(axis=1)
    return rows, lo, hi


def shadow_intervals_rects(vx, vy, qseg: Segment,
                           rects: np.ndarray) -> Shadows:
    """Blocked intervals cast by the rectangles in ``rects`` (N, 4).

    ``vx`` / ``vy`` are one viewpoint (scalars) or, in pair form, (N,)
    arrays giving row ``i`` its own viewpoint.
    """
    n = rects.shape[0]
    if n == 0:
        return _NO_SHADOWS
    ln = qseg.length
    sx, sy = qseg.ax, qseg.ay
    ux = (qseg.bx - sx) / ln
    uy = (qseg.by - sy) / ln
    vx = _column(vx)
    vy = _column(vy)
    xlo, ylo, xhi, yhi = rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3]

    # Candidate parameters from the four corner sight lines.
    corner_x = np.stack([xlo, xhi, xhi, xlo], axis=1)  # (N, 4)
    corner_y = np.stack([ylo, ylo, yhi, yhi], axis=1)
    dx = corner_x - vx
    dy = corner_y - vy
    denom = ux * dy - uy * dx
    num = (vx - sx) * dy - (vy - sy) * dx
    scale = np.maximum(np.abs(dx) + np.abs(dy), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_corner = np.where(np.abs(denom) > EPS * scale, num / denom, 0.0)

    # Candidate parameters where q crosses the rectangles' supporting lines.
    cols = []
    if abs(ux) > EPS:
        cols.append((xlo - sx) / ux)
        cols.append((xhi - sx) / ux)
    if abs(uy) > EPS:
        cols.append((ylo - sy) / uy)
        cols.append((yhi - sy) / uy)
    if cols:
        t_edges = np.stack(cols, axis=1)
        cand = np.concatenate([t_corner, t_edges], axis=1)
    else:  # pragma: no cover - a segment always has a nonzero direction
        cand = t_corner
    cand = np.clip(np.nan_to_num(cand, nan=0.0, posinf=ln, neginf=0.0), 0.0, ln)
    zeros = np.zeros((n, 1))
    fulls = np.full((n, 1), ln)
    cand = np.sort(np.concatenate([zeros, cand, fulls], axis=1), axis=1)

    lows = cand[:, :-1]
    highs = cand[:, 1:]
    mids = 0.5 * (lows + highs)
    wide = (highs - lows) > _WIDTH_EPS
    mx = sx + mids * ux
    my = sy + mids * uy
    blocked = crosses_rect_interior(
        vx, vy, mx, my,
        xlo[:, None], ylo[:, None], xhi[:, None], yhi[:, None],
    ) & wide
    return _row_spans(blocked, lows, highs)


def shadow_intervals_segs(vx, vy, qseg: Segment, segs: np.ndarray) -> Shadows:
    """Blocked intervals cast by the segment obstacles in ``segs`` (M, 4).

    The viewpoint is a scalar pair or (M,) arrays, as for
    :func:`shadow_intervals_rects`.
    """
    m = segs.shape[0]
    if m == 0:
        return _NO_SHADOWS
    ln = qseg.length
    sx, sy = qseg.ax, qseg.ay
    ux = (qseg.bx - sx) / ln
    uy = (qseg.by - sy) / ln
    vx = _column(vx)
    vy = _column(vy)

    endpoint_x = segs[:, [0, 2]]  # (M, 2)
    endpoint_y = segs[:, [1, 3]]
    dx = endpoint_x - vx
    dy = endpoint_y - vy
    denom = ux * dy - uy * dx
    num = (vx - sx) * dy - (vy - sy) * dx
    scale = np.maximum(np.abs(dx) + np.abs(dy), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ends = np.where(np.abs(denom) > EPS * scale, num / denom, 0.0)

    # Where q crosses the obstacle's own supporting line.
    wx = segs[:, 2] - segs[:, 0]
    wy = segs[:, 3] - segs[:, 1]
    denom2 = ux * wy - uy * wx
    num2 = (segs[:, 0] - sx) * wy - (segs[:, 1] - sy) * wx
    scale2 = np.maximum(np.abs(wx) + np.abs(wy), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_own = np.where(np.abs(denom2) > EPS * scale2, num2 / denom2, 0.0)

    cand = np.concatenate([t_ends, t_own[:, None]], axis=1)
    cand = np.clip(np.nan_to_num(cand, nan=0.0, posinf=ln, neginf=0.0), 0.0, ln)
    zeros = np.zeros((m, 1))
    fulls = np.full((m, 1), ln)
    cand = np.sort(np.concatenate([zeros, cand, fulls], axis=1), axis=1)

    lows = cand[:, :-1]
    highs = cand[:, 1:]
    mids = 0.5 * (lows + highs)
    wide = (highs - lows) > _WIDTH_EPS
    mx = sx + mids * ux
    my = sy + mids * uy
    blocked = proper_cross_segments(
        vx, vy, mx, my,
        segs[:, 0][:, None], segs[:, 1][:, None],
        segs[:, 2][:, None], segs[:, 3][:, None],
    ) & wide
    return _row_spans(blocked, lows, highs)


def shadow_intervals_polys(vx, vy, qseg: Segment,
                           polys: "PolygonSlab | None") -> Shadows:
    """Blocked intervals cast by the convex polygons of a slab.

    The viewpoint is a scalar pair or (P,) arrays, one per polygon.  Per
    polygon, tuple-for-tuple equal to the scalar per-obstacle reference:
    the candidates are the reference's (vertex sight lines, q's
    crossings of the edge lines), each gap midpoint is placed exactly as
    :meth:`Segment.point_at` places it, one ``(gaps, P)`` grid is
    classified by the bit-identical batch kernel, and blocked gaps merge
    under the same rule.
    """
    if polys is None or not len(polys):
        return _NO_SHADOWS
    ln = qseg.length
    sx, sy = qseg.ax, qseg.ay
    rx = qseg.bx - sx
    ry = qseg.by - sy
    ux = rx / ln
    uy = ry / ln
    px, py = polys.px, polys.py
    with np.errstate(divide="ignore", invalid="ignore"):
        # Vertex sight lines meeting q's line.
        dx = px - vx
        dy = py - vy
        denom = ux * dy - uy * dx
        num = (vx - sx) * dy - (vy - sy) * dx
        ok = np.abs(denom) > EPS * np.maximum(np.abs(dx) + np.abs(dy), 1.0)
        t_vert = np.where(ok & polys.valid, num / denom, 0.0)
        # q's line crossing each edge's line (line_intersection_param).
        ex, ey = polys.ex, polys.ey
        denom = rx * ey - ry * ex
        scale = max(abs(rx) + abs(ry), 1.0) * polys.scale
        frac = ((px - sx) * ey - (py - sy) * ex) / denom
        t_edge = np.where((np.abs(denom) > EPS * scale) & polys.valid,
                          frac * ln, 0.0)
    # Column i holds polygon i's sorted candidates.
    p = len(polys)
    cand = np.concatenate([np.zeros((1, p)), t_vert, t_edge,
                           np.full((1, p), ln)])
    cand = np.sort(np.minimum(np.maximum(cand, 0.0), ln), axis=0)
    lows = cand[:-1]
    highs = cand[1:]
    f = np.minimum(np.maximum((lows + highs) * 0.5, 0.0), ln) / ln
    mx = sx + f * rx
    my = sy + f * ry
    blocked = crosses_convex_polygons(vx, vy, mx, my, polys)
    blocked &= (highs - lows) > _WIDTH_EPS
    rows, gaps = blocked.T.nonzero()
    if not rows.size:
        return _NO_SHADOWS
    lo = lows[gaps, rows]
    hi = highs[gaps, rows]
    # A blocked gap extends the previous interval when it starts within
    # _WIDTH_EPS of that interval's end.
    start = np.ones(rows.size, dtype=bool)
    start[1:] = ((rows[1:] != rows[:-1]) |
                 (np.abs(hi[:-1] - lo[1:]) > _WIDTH_EPS))
    first = start.nonzero()[0]
    last = np.append(first[1:] - 1, rows.size - 1)
    return rows[first], lo[first], hi[last]


def viewpoint_shadows(xs, ys, qseg: Segment, rects: np.ndarray,
                      segs: np.ndarray, polys: "PolygonSlab | None" = None,
                      bounds: "tuple | None" = None
                      ) -> List[List[Tuple[float, float]]]:
    """Blocked intervals seen from each of K viewpoints ``(xs[k], ys[k])``.

    One pair grid per obstacle kind covers every viewpoint: the kind's
    pair-form shadow function runs once over the (viewpoint, primitive)
    pairs that survive an exact triangle prefilter.  A sight line
    ``[v, q(t)]`` lies inside the triangle ``(v, S, E)``, so a primitive
    whose AABB misses that triangle's AABB cannot block it.  The overlap
    test is padded by ``8 * EPS * scale`` (``scale`` = 1 + the largest
    coordinate magnitude of the viewpoints and ``q``), the pad of the
    batch kernel's prefilter: it dominates the rounding of the gap
    midpoints, and the kernels' tolerant comparisons are stricter than
    exact ones, so a pruned pair yields no blocked gap.  Each viewpoint's
    list therefore holds exactly the intervals of every primitive's
    one-viewpoint call, in some order (``IntervalSet`` sorts them).

    Args:
        bounds: the primitives' :func:`primitive_bounds` AABBs, computed
            here when omitted.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    out: List[List[Tuple[float, float]]] = [[] for _ in range(xs.size)]
    if not xs.size:
        return out
    if bounds is None:
        bounds = primitive_bounds(
            rects, segs, polys if polys is not None else polygon_slab(()))
    sx, sy, ex, ey = qseg
    scale = 1.0 + max(float(np.abs(xs).max()), float(np.abs(ys).max()),
                      abs(sx), abs(sy), abs(ex), abs(ey))
    pad = 8.0 * EPS * scale
    txlo = np.minimum(xs, min(sx, ex))
    tylo = np.minimum(ys, min(sy, ey))
    txhi = np.maximum(xs, max(sx, ex))
    tyhi = np.maximum(ys, max(sy, ey))
    for shadows, prims, pb in ((shadow_intervals_rects, rects, bounds[0]),
                               (shadow_intervals_segs, segs, bounds[1]),
                               (shadow_intervals_polys, polys, bounds[2])):
        if prims is None or not len(prims):
            continue
        vi, pi = ((txlo[:, None] <= pb[None, :, 2] + pad) &
                  (txhi[:, None] >= pb[None, :, 0] - pad) &
                  (tylo[:, None] <= pb[None, :, 3] + pad) &
                  (tyhi[:, None] >= pb[None, :, 1] - pad)).nonzero()
        if not vi.size:
            continue
        rows, lo, hi = shadows(xs[vi], ys[vi], qseg, prims[pi])
        for k, l, h in zip(vi[rows].tolist(), lo.tolist(), hi.tolist()):
            out[k].append((l, h))
    return out


def shadow_set(vx: float, vy: float, qseg: Segment,
               rects: np.ndarray, segs: np.ndarray,
               polys: "PolygonSlab | None" = None) -> IntervalSet:
    """Union of all shadows from viewpoint ``v`` as an :class:`IntervalSet`."""
    return IntervalSet(viewpoint_shadows([vx], [vy], qseg, rects, segs,
                                         polys)[0])


def visible_region(vx: float, vy: float, qseg: Segment,
                   obstacles: ObstacleSet) -> IntervalSet:
    """Visible region ``VR_{v,q}``: the one-viewpoint pair grid."""
    shadows = shadow_set(vx, vy, qseg, obstacles.rects, obstacles.segs,
                         obstacles.poly_slab)
    return IntervalSet.full(0.0, qseg.length).subtract(shadows)
