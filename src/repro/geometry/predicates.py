"""Scalar geometric predicates.

These are the exact (up to floating-point epsilon) building blocks used by the
visibility machinery.  The central conventions, shared with the vectorized
implementations in :mod:`repro.geometry.vectorized`:

* An obstacle blocks a sight line only when the line passes through the
  obstacle's *open interior* (for rectangles) or *properly crosses* it (for
  segment obstacles).  Touching a vertex, running along an edge, or ending on
  the boundary never blocks — shortest obstructed paths bend exactly at
  obstacle vertices, so grazing contact must count as visible.
* ``EPS`` is an absolute tolerance appropriate for the paper's normalized
  ``[0, 10000]^2`` space; all comparisons are eps-guarded.
"""

from __future__ import annotations

import math

EPS = 1e-9
"""Absolute tolerance for coordinate comparisons."""


def orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    """Signed twice-area of triangle ``abc``.

    Positive when ``c`` lies to the left of the directed line ``a -> b``,
    negative to the right, and (near) zero when collinear.
    """
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def orient_sign(ax: float, ay: float, bx: float, by: float, cx: float, cy: float,
                eps: float = EPS) -> int:
    """Sign of :func:`orient` with an epsilon-wide collinearity band."""
    v = orient(ax, ay, bx, by, cx, cy)
    # Scale the tolerance with the magnitudes involved so long segments in a
    # large space do not mis-classify.
    scale = max(abs(bx - ax) + abs(by - ay), 1.0) * max(abs(cx - ax) + abs(cy - ay), 1.0)
    tol = eps * scale
    if v > tol:
        return 1
    if v < -tol:
        return -1
    return 0


def segments_properly_cross(ax: float, ay: float, bx: float, by: float,
                            cx: float, cy: float, dx: float, dy: float) -> bool:
    """True iff open segments ``(a,b)`` and ``(c,d)`` cross at a single interior point.

    Touching at endpoints, collinear overlap, or mere grazing contact is *not*
    a proper crossing (and therefore does not block visibility).
    """
    o1 = orient_sign(ax, ay, bx, by, cx, cy)
    o2 = orient_sign(ax, ay, bx, by, dx, dy)
    if o1 == 0 or o2 == 0 or o1 == o2:
        return False
    o3 = orient_sign(cx, cy, dx, dy, ax, ay)
    o4 = orient_sign(cx, cy, dx, dy, bx, by)
    if o3 == 0 or o4 == 0 or o3 == o4:
        return False
    return True


def segments_intersect(ax: float, ay: float, bx: float, by: float,
                       cx: float, cy: float, dx: float, dy: float) -> bool:
    """True iff closed segments ``[a,b]`` and ``[c,d]`` share at least one point.

    The general case needs *strict* sign changes on both sides: a banded
    zero orientation only says an endpoint lies near the other segment's
    supporting line, which the touching branches below then confirm or
    reject against that segment's extent.  Reading ``0`` as "opposite
    side" would let far-apart near-collinear segments intersect.
    """
    o1 = orient_sign(ax, ay, bx, by, cx, cy)
    o2 = orient_sign(ax, ay, bx, by, dx, dy)
    o3 = orient_sign(cx, cy, dx, dy, ax, ay)
    o4 = orient_sign(cx, cy, dx, dy, bx, by)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    # Collinear touching cases.
    if o1 == 0 and _on_segment(ax, ay, bx, by, cx, cy):
        return True
    if o2 == 0 and _on_segment(ax, ay, bx, by, dx, dy):
        return True
    if o3 == 0 and _on_segment(cx, cy, dx, dy, ax, ay):
        return True
    if o4 == 0 and _on_segment(cx, cy, dx, dy, bx, by):
        return True
    return False


def _on_segment(ax: float, ay: float, bx: float, by: float,
                px: float, py: float, eps: float = EPS) -> bool:
    """True iff ``p`` (assumed collinear with ``a``-``b``) lies within the bbox of ``[a, b]``."""
    return (min(ax, bx) - eps <= px <= max(ax, bx) + eps and
            min(ay, by) - eps <= py <= max(ay, by) + eps)


def point_seg_dist(px: float, py: float, ax: float, ay: float,
                   bx: float, by: float) -> float:
    """Euclidean distance from point ``p`` to closed segment ``[a, b]``."""
    abx = bx - ax
    aby = by - ay
    denom = abx * abx + aby * aby
    if denom <= 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * abx + (py - ay) * aby) / denom
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    cx = ax + t * abx
    cy = ay + t * aby
    return math.hypot(px - cx, py - cy)


def seg_seg_dist(ax: float, ay: float, bx: float, by: float,
                 cx: float, cy: float, dx: float, dy: float) -> float:
    """Euclidean distance between closed segments ``[a,b]`` and ``[c,d]``."""
    if segments_intersect(ax, ay, bx, by, cx, cy, dx, dy):
        return 0.0
    return min(
        point_seg_dist(ax, ay, cx, cy, dx, dy),
        point_seg_dist(bx, by, cx, cy, dx, dy),
        point_seg_dist(cx, cy, ax, ay, bx, by),
        point_seg_dist(dx, dy, ax, ay, bx, by),
    )


def clip_segment_to_rect(ax: float, ay: float, bx: float, by: float,
                         xlo: float, ylo: float, xhi: float, yhi: float):
    """Liang–Barsky clip of segment ``[a, b]`` against a closed rectangle.

    Returns:
        ``(t0, t1)`` parameters along ``a + t (b - a)`` of the clipped portion
        with ``0 <= t0 <= t1 <= 1``, or ``None`` when the segment misses the
        rectangle entirely.
    """
    dx = bx - ax
    dy = by - ay
    t0 = 0.0
    t1 = 1.0
    for p, q in ((-dx, ax - xlo), (dx, xhi - ax), (-dy, ay - ylo), (dy, yhi - ay)):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return None
            if r > t0:
                t0 = r
        else:
            if r < t0:
                return None
            if r < t1:
                t1 = r
    return (t0, t1)


def point_in_rect_open(px: float, py: float, xlo: float, ylo: float,
                       xhi: float, yhi: float, eps: float = EPS) -> bool:
    """True iff ``p`` lies strictly inside the rectangle (eps-shrunk)."""
    return (xlo + eps < px < xhi - eps) and (ylo + eps < py < yhi - eps)


def point_in_rect_closed(px: float, py: float, xlo: float, ylo: float,
                         xhi: float, yhi: float, eps: float = EPS) -> bool:
    """True iff ``p`` lies inside or on the boundary of the rectangle (eps-grown)."""
    return (xlo - eps <= px <= xhi + eps) and (ylo - eps <= py <= yhi + eps)


def segment_crosses_rect_interior(ax: float, ay: float, bx: float, by: float,
                                  xlo: float, ylo: float, xhi: float, yhi: float,
                                  eps: float = EPS) -> bool:
    """True iff segment ``[a, b]`` passes through the rectangle's open interior.

    Degenerate rectangles (zero width or height) have empty interiors and
    never block.  A segment running exactly along an edge does not block: the
    midpoint of its clipped portion sits on the boundary, not strictly inside.
    """
    if xhi - xlo <= eps or yhi - ylo <= eps:
        return False
    clip = clip_segment_to_rect(ax, ay, bx, by, xlo, ylo, xhi, yhi)
    if clip is None:
        return False
    t0, t1 = clip
    if t1 - t0 <= eps:
        return False
    tm = (t0 + t1) * 0.5
    mx = ax + tm * (bx - ax)
    my = ay + tm * (by - ay)
    # Strictness tolerance scaled to the rectangle so thin rectangles still
    # register interior crossings.
    ex = min(eps, (xhi - xlo) * 1e-7)
    ey = min(eps, (yhi - ylo) * 1e-7)
    return (xlo + ex < mx < xhi - ex) and (ylo + ey < my < yhi - ey)


def point_in_triangle(px: float, py: float, ax: float, ay: float,
                      bx: float, by: float, cx: float, cy: float) -> bool:
    """True iff ``p`` lies inside or on the boundary of triangle ``abc``."""
    s1 = orient_sign(ax, ay, bx, by, px, py)
    s2 = orient_sign(bx, by, cx, cy, px, py)
    s3 = orient_sign(cx, cy, ax, ay, px, py)
    has_neg = (s1 < 0) or (s2 < 0) or (s3 < 0)
    has_pos = (s1 > 0) or (s2 > 0) or (s3 > 0)
    return not (has_neg and has_pos)


def line_line_intersection(ax: float, ay: float, bx: float, by: float,
                           cx: float, cy: float, dx: float, dy: float):
    """Intersection of infinite lines ``a-b`` and ``c-d``.

    Returns:
        ``(t, u)`` where the intersection is ``a + t (b - a)`` and
        ``c + u (d - c)``, or ``None`` for (near-)parallel lines.
    """
    rX = bx - ax
    rY = by - ay
    sX = dx - cx
    sY = dy - cy
    denom = rX * sY - rY * sX
    scale = max(abs(rX) + abs(rY), 1.0) * max(abs(sX) + abs(sY), 1.0)
    if abs(denom) <= EPS * scale:
        return None
    qpX = cx - ax
    qpY = cy - ay
    t = (qpX * sY - qpY * sX) / denom
    u = (qpX * rY - qpY * rX) / denom
    return (t, u)
