"""Axis-aligned rectangles (MBRs).

:class:`Rect` doubles as the minimum bounding rectangle used by the R*-tree
and as the geometric footprint of rectangular obstacles.  All distance
helpers used by query processing (``mindist`` to points and to segments) live
here.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

from .point import Point
from .predicates import EPS, seg_seg_dist


class Rect(NamedTuple):
    """A closed axis-aligned rectangle ``[xlo, xhi] x [ylo, yhi]``."""

    xlo: float
    ylo: float
    xhi: float
    yhi: float

    # ------------------------------------------------------------------ shape
    @classmethod
    def from_points(cls, points: Iterable[tuple]) -> "Rect":
        """Smallest rectangle containing all of ``points``."""
        xs = []
        ys = []
        for x, y in points:
            xs.append(x)
            ys.append(y)
        if not xs:
            raise ValueError("Rect.from_points requires at least one point")
        return cls(min(xs), min(ys), max(xs), max(ys))

    @classmethod
    def point(cls, x: float, y: float) -> "Rect":
        """Degenerate rectangle covering a single point."""
        return cls(x, y, x, y)

    def is_valid(self) -> bool:
        """True iff lows do not exceed highs."""
        return self.xlo <= self.xhi and self.ylo <= self.yhi

    @property
    def width(self) -> float:
        return self.xhi - self.xlo

    @property
    def height(self) -> float:
        return self.yhi - self.ylo

    def area(self) -> float:
        return self.width * self.height

    def margin(self) -> float:
        """Half-perimeter, the R*-tree split quality measure."""
        return self.width + self.height

    def center(self) -> Point:
        return Point((self.xlo + self.xhi) * 0.5, (self.ylo + self.yhi) * 0.5)

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """The four corners in counter-clockwise order starting at (xlo, ylo)."""
        return (Point(self.xlo, self.ylo), Point(self.xhi, self.ylo),
                Point(self.xhi, self.yhi), Point(self.xlo, self.yhi))

    def edges(self) -> tuple[tuple[Point, Point], ...]:
        """The four boundary edges as point pairs (counter-clockwise)."""
        c = self.corners()
        return ((c[0], c[1]), (c[1], c[2]), (c[2], c[3]), (c[3], c[0]))

    # ----------------------------------------------------------- set algebra
    def union(self, other: "Rect") -> "Rect":
        return Rect(min(self.xlo, other.xlo), min(self.ylo, other.ylo),
                    max(self.xhi, other.xhi), max(self.yhi, other.yhi))

    def intersects(self, other: "Rect") -> bool:
        """True iff the closed rectangles share at least one point."""
        return (self.xlo <= other.xhi and other.xlo <= self.xhi and
                self.ylo <= other.yhi and other.ylo <= self.yhi)

    def intersection_area(self, other: "Rect") -> float:
        w = min(self.xhi, other.xhi) - max(self.xlo, other.xlo)
        h = min(self.yhi, other.yhi) - max(self.ylo, other.ylo)
        if w <= 0.0 or h <= 0.0:
            return 0.0
        return w * h

    def contains_rect(self, other: "Rect") -> bool:
        return (self.xlo <= other.xlo + EPS and other.xhi <= self.xhi + EPS and
                self.ylo <= other.ylo + EPS and other.yhi <= self.yhi + EPS)

    def contains_point(self, x: float, y: float) -> bool:
        """Closed containment test."""
        return self.xlo <= x <= self.xhi and self.ylo <= y <= self.yhi

    def contains_point_open(self, x: float, y: float, eps: float = EPS) -> bool:
        """Strict interior containment test."""
        return (self.xlo + eps < x < self.xhi - eps and
                self.ylo + eps < y < self.yhi - eps)

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed for this rectangle to also cover ``other``."""
        return self.union(other).area() - self.area()

    def expanded(self, delta: float) -> "Rect":
        """Rectangle grown by ``delta`` on every side."""
        return Rect(self.xlo - delta, self.ylo - delta,
                    self.xhi + delta, self.yhi + delta)

    # -------------------------------------------------------------- distance
    def mindist_point(self, x: float, y: float) -> float:
        """Minimum distance from the rectangle to a point (0 when inside)."""
        dx = max(self.xlo - x, 0.0, x - self.xhi)
        dy = max(self.ylo - y, 0.0, y - self.yhi)
        return math.hypot(dx, dy)

    def maxdist_point(self, x: float, y: float) -> float:
        """Maximum distance from the rectangle (its farthest corner) to a point."""
        dx = max(abs(self.xlo - x), abs(self.xhi - x))
        dy = max(abs(self.ylo - y), abs(self.yhi - y))
        return math.hypot(dx, dy)

    def mindist_rect(self, other: "Rect") -> float:
        """Minimum distance between two closed rectangles (0 when overlapping)."""
        dx = max(self.xlo - other.xhi, 0.0, other.xlo - self.xhi)
        dy = max(self.ylo - other.yhi, 0.0, other.ylo - self.yhi)
        return math.hypot(dx, dy)

    def mindist_segment(self, ax: float, ay: float, bx: float, by: float) -> float:
        """Minimum distance from the rectangle to the closed segment ``[a, b]``.

        Zero when the segment touches or crosses the rectangle.  This is the
        ``mindist(N, q)`` lower bound the CONN algorithms key their priority
        queues on.
        """
        # Quick accept: the segment meets the closed rectangle, decided by
        # clipping ``a + t (b - a)``, t in [0, 1] (Liang-Barsky) without the
        # edge tests' orientation tolerance, which misses a near-collinear
        # crossing.
        t0, t1 = 0.0, 1.0
        for p, q in ((ax - bx, ax - self.xlo), (bx - ax, self.xhi - ax),
                     (ay - by, ay - self.ylo), (by - ay, self.yhi - ay)):
            if p < 0.0:
                t0 = max(t0, q / p)
            elif p > 0.0:
                t1 = min(t1, q / p)
            elif q < 0.0:
                break
        else:
            if t0 <= t1:
                return 0.0
        best = math.inf
        for (p, q) in self.edges():
            d = seg_seg_dist(p.x, p.y, q.x, q.y, ax, ay, bx, by)
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
        return best


def segment_mindist_lower(ax: float, ay: float, bx: float, by: float
                          ) -> Callable[[Rect], float]:
    """``r -> L(r)`` with ``L(r) <= r.mindist_segment(ax, ay, bx, by)``.

    ``L(r)`` is the gap between ``r`` and the segment's MBR, less the slack
    ``2 * EPS + 1e-12 * M`` (``M`` = largest coordinate magnitude of ``r``
    and the segment).  It costs a few float operations against the four
    edge-segment distance tests of the exact key, which is what lets a
    best-first scan push this bound and refine only the entries that reach
    its heap head.

    Why the computed bound never exceeds the computed exact key ``E``
    (write ``u = 2**-53``; every float subtraction, product and ``hypot``
    below is correctly rounded):

    * ``E = 0`` by the clipping quick accept: per axis the segment's range
      then reaches ``r``'s up to the rounding of one subtraction and one
      division, a few ``u * M``, so the gap is far below the slack.
    * ``E = 0`` because ``segments_intersect(edge, segment)`` holds by
      strict sign changes: ``orient`` is computed with absolute error
      ``<= 5u * |b-a|_1 * |c-a|_1``, far inside ``orient_sign``'s band
      ``EPS * max(|b-a|_1, 1) * max(|c-a|_1, 1)``, so a strict sign is
      the true sign; the segments truly cross, the MBRs meet, the gap is
      exactly 0.
    * ``E = 0`` by a touching branch: an endpoint ``p`` of one segment lies
      inside the other's bbox grown by ``EPS`` — a bound ``fl(m - EPS)``
      rounded by at most ``u * M`` — so per axis ``p`` is within
      ``EPS + u * M`` of ``r`` resp. the segment's MBR.  The gap is at
      most ``sqrt(2) * (EPS + u * M)``, below the slack.
    * ``E > 0`` is a min of point-to-segment distances.  Each computed
      distance falls short of the true one by at most a few dozen ``u * M``
      (rounded projection parameter and foot point; the final subtraction
      and ``hypot`` are relative), the true one is at least the true
      rect-to-segment distance, which is at least the true MBR gap, and the
      computed gap exceeds that by at most ``3u`` relative, i.e. ``<= 9u *
      M``.  The slack's ``1e-12 * M`` covers these terms many times over.

    So ``L(r) <= E`` for every ``r`` with ``xlo <= xhi`` and ``ylo <= yhi``.
    The absolute term matters only near the origin; at the paper's
    ``[0, 10000]^2`` scale the slack is ~1e-8.
    """
    sxlo, sxhi = (ax, bx) if ax <= bx else (bx, ax)
    sylo, syhi = (ay, by) if ay <= by else (by, ay)
    mag = max(-sxlo, sxhi, -sylo, syhi)
    slack_abs = 2.0 * EPS
    rel = 1e-12
    hypot = math.hypot

    def lower(r: Rect) -> float:
        xlo, ylo, xhi, yhi = r
        # max(-lo, hi) is max(|lo|, |hi|) for lo <= hi.
        m = max(mag, -xlo, xhi, -ylo, yhi)
        return (hypot(max(xlo - sxhi, 0.0, sxlo - xhi),
                      max(ylo - syhi, 0.0, sylo - yhi))
                - (slack_abs + rel * m))

    return lower
