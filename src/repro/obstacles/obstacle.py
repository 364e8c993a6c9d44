"""Obstacle model.

The paper assumes rectangular obstacles in its evaluation but uses line
segments in its running examples (Section 4: "we use line segments, but not
rectangles, to represent obstacles ... while the ideas can be easily extended
to rectangles").  We support both:

* :class:`RectObstacle` — blocks sight lines that cross its *open* interior;
* :class:`SegmentObstacle` — blocks sight lines that *properly* cross it;
* :class:`PolygonObstacle` — a convex polygon, blocking like a rectangle.

Grazing contact (touching a vertex, running along an edge) never blocks,
because shortest obstructed paths bend exactly at obstacle vertices.

:class:`ObstacleSet` is the batch container the visibility graph works with:
it mirrors every obstacle kind into numpy arrays so sight-line tests
vectorize.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.point import Point, require_finite
from ..geometry.predicates import (
    segment_crosses_rect_interior,
    segments_properly_cross,
)
from ..geometry.rectangle import Rect
from ..geometry.segment import Segment
from ..geometry.vectorized import (
    PolygonSlab,
    blocked_by_rects,
    blocked_by_segments,
    crosses_convex_polygons,
    polygon_slab,
)

_obstacle_ids = itertools.count()


class Obstacle:
    """Base class: an opaque planar obstacle with vertices and an MBR."""

    __slots__ = ("oid",)

    def __init__(self, oid: int | None = None):
        self.oid = next(_obstacle_ids) if oid is None else oid

    # Subclass responsibilities -------------------------------------------
    def vertices(self) -> Tuple[Point, ...]:
        raise NotImplementedError

    def mbr(self) -> Rect:
        raise NotImplementedError

    def blocks(self, ax: float, ay: float, bx: float, by: float) -> bool:
        """Scalar test: does this obstacle block sight line ``[a, b]``?"""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(oid={self.oid}, mbr={self.mbr()})"

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.oid))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Obstacle) and other.oid == self.oid and \
            type(other) is type(self)


class RectObstacle(Obstacle):
    """A solid axis-aligned rectangular obstacle."""

    __slots__ = ("rect",)

    def __init__(self, xlo: float, ylo: float, xhi: float, yhi: float,
                 oid: int | None = None):
        super().__init__(oid)
        require_finite("rectangle obstacle", xlo, ylo, xhi, yhi)
        if xhi < xlo or yhi < ylo:
            raise ValueError("rectangle highs must not be below lows")
        # Zero width *or* height is accepted here, as a clearance proxy for
        # an axis-parallel segment's MBR, but such a rect has no open
        # interior and blocks nothing: workspaces refuse it (see
        # ``require_blocking``).  Zero extent on both axes is a point.
        if xhi == xlo and yhi == ylo:
            raise ValueError("degenerate rectangle (a point)")
        self.rect = Rect(float(xlo), float(ylo), float(xhi), float(yhi))

    @classmethod
    def from_rect(cls, rect: Rect, oid: int | None = None) -> "RectObstacle":
        return cls(rect.xlo, rect.ylo, rect.xhi, rect.yhi, oid)

    def vertices(self) -> Tuple[Point, ...]:
        return self.rect.corners()

    def mbr(self) -> Rect:
        return self.rect

    def blocks(self, ax: float, ay: float, bx: float, by: float) -> bool:
        r = self.rect
        return segment_crosses_rect_interior(ax, ay, bx, by,
                                             r.xlo, r.ylo, r.xhi, r.yhi)

    def contains_interior(self, x: float, y: float) -> bool:
        """True iff ``(x, y)`` is strictly inside (data points may not be)."""
        return self.rect.contains_point_open(x, y)


def require_blocking(obstacle: Obstacle) -> None:
    """Refuse an obstacle that can block no sight line.

    A rectangle blocks only sight lines that cross its open interior, and a
    zero-area rectangle has none: as a workspace obstacle it would be
    silently transparent.  A wall is a :class:`SegmentObstacle`.

    Raises:
        ValueError: on a zero-width or zero-height :class:`RectObstacle`.
    """
    if not isinstance(obstacle, RectObstacle):
        return
    r = obstacle.rect
    if r.xlo == r.xhi or r.ylo == r.yhi:
        raise ValueError(
            f"zero-area RectObstacle({r.xlo:g}, {r.ylo:g}, {r.xhi:g}, "
            f"{r.yhi:g}) blocks nothing; model the wall as "
            f"SegmentObstacle({r.xlo:g}, {r.ylo:g}, {r.xhi:g}, {r.yhi:g})")


class PolygonObstacle(Obstacle):
    """A solid *convex* polygon obstacle.

    The paper assumes rectangles "although an obstacle can be in any shape"
    (footnote 1); this class supplies that generality.  Convexity is required
    — it is what makes an obstacle's shadow on the query segment a single
    interval (the property the visible-region machinery relies on).
    Non-convex shapes can be composed from convex pieces.
    """

    __slots__ = ("points", "_arr")

    def __init__(self, points, oid: int | None = None):
        super().__init__(oid)
        pts = [(float(x), float(y)) for x, y in points]
        require_finite("polygon obstacle", *(c for p in pts for c in p))
        if len(pts) < 3:
            raise ValueError("a polygon needs at least three vertices")
        # Normalize to counter-clockwise order.
        area2 = sum(pts[i][0] * pts[(i + 1) % len(pts)][1] -
                    pts[(i + 1) % len(pts)][0] * pts[i][1]
                    for i in range(len(pts)))
        if area2 == 0.0:
            raise ValueError("degenerate polygon (zero area)")
        if area2 < 0.0:
            pts.reverse()
        n = len(pts)
        for i in range(n):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % n]
            cx, cy = pts[(i + 2) % n]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cross < -1e-9 * max(abs(bx - ax) + abs(by - ay), 1.0):
                raise ValueError("polygon must be convex")
        self.points = tuple(Point(x, y) for x, y in pts)
        self._arr = np.asarray(pts, dtype=np.float64)

    def vertices(self) -> Tuple[Point, ...]:
        return self.points

    def as_array(self) -> np.ndarray:
        """Vertices as an (V, 2) float array in counter-clockwise order."""
        return self._arr

    def mbr(self) -> Rect:
        return Rect(float(self._arr[:, 0].min()), float(self._arr[:, 1].min()),
                    float(self._arr[:, 0].max()), float(self._arr[:, 1].max()))

    def contains_interior(self, x: float, y: float, eps: float = 1e-9) -> bool:
        """True iff ``(x, y)`` lies strictly inside the polygon."""
        pts = self._arr
        n = len(pts)
        for i in range(n):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % n]
            cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
            scale = max(abs(bx - ax) + abs(by - ay), 1.0)
            if cross <= eps * scale:
                return False
        return True

    def blocks(self, ax: float, ay: float, bx: float, by: float) -> bool:
        from ..geometry.vectorized import crosses_convex_polygon

        return bool(crosses_convex_polygon(ax, ay, np.asarray([bx]),
                                           np.asarray([by]), self._arr)[0])


class SegmentObstacle(Obstacle):
    """A thin wall: a line-segment obstacle."""

    __slots__ = ("seg",)

    def __init__(self, ax: float, ay: float, bx: float, by: float,
                 oid: int | None = None):
        super().__init__(oid)
        require_finite("segment obstacle", ax, ay, bx, by)
        if ax == bx and ay == by:
            raise ValueError("degenerate segment (zero length)")
        self.seg = Segment(float(ax), float(ay), float(bx), float(by))

    @classmethod
    def from_points(cls, a: tuple, b: tuple, oid: int | None = None) -> "SegmentObstacle":
        (ax, ay), (bx, by) = a, b
        return cls(ax, ay, bx, by, oid)

    def vertices(self) -> Tuple[Point, ...]:
        return (self.seg.start, self.seg.end)

    def mbr(self) -> Rect:
        xlo, ylo, xhi, yhi = self.seg.bbox()
        return Rect(xlo, ylo, xhi, yhi)

    def blocks(self, ax: float, ay: float, bx: float, by: float) -> bool:
        s = self.seg
        return segments_properly_cross(ax, ay, bx, by, s.ax, s.ay, s.bx, s.by)


class ObstacleSet:
    """A growable collection of obstacles mirrored into numpy arrays.

    The arrays (``rects`` of shape (N, 4), ``segs`` of shape (M, 4) and the
    padded polygon slab ``poly_slab``) back every vectorized sight-line
    test.  Each is rebuilt lazily on first access after a change.  The
    growth pattern is append-only —
    exactly what incremental obstacle retrieval (IOR) produces — with one
    surgical exception: :meth:`remove` deletes a single obstacle so the
    visibility graph's removal repair can shrink its obstacle set in place
    instead of rebuilding it.
    """

    def __init__(self, obstacles: Iterable[Obstacle] = ()):
        self._obstacles: List[Obstacle] = []
        self._rect_rows: List[Tuple[float, float, float, float]] = []
        self._seg_rows: List[Tuple[float, float, float, float]] = []
        self._poly_list: List[PolygonObstacle] = []
        self._rects = np.empty((0, 4), dtype=np.float64)
        self._segs = np.empty((0, 4), dtype=np.float64)
        self._slab = polygon_slab(())
        self._dirty = False
        self._poly_dirty = False
        self.add_many(obstacles)

    # ----------------------------------------------------------- population
    def add(self, obstacle: Obstacle) -> None:
        self._obstacles.append(obstacle)
        if isinstance(obstacle, RectObstacle):
            r = obstacle.rect
            self._rect_rows.append((r.xlo, r.ylo, r.xhi, r.yhi))
            self._dirty = True
        elif isinstance(obstacle, SegmentObstacle):
            s = obstacle.seg
            self._seg_rows.append((s.ax, s.ay, s.bx, s.by))
            self._dirty = True
        elif isinstance(obstacle, PolygonObstacle):
            self._poly_list.append(obstacle)
            self._poly_dirty = True
        else:
            raise TypeError(f"unsupported obstacle type {type(obstacle).__name__}")

    def add_many(self, obstacles: Iterable[Obstacle]) -> None:
        for o in obstacles:
            self.add(o)

    def remove(self, obstacle: Obstacle) -> Optional[Tuple[int, int]]:
        """Delete one obstacle and its primitive row.

        Returns ``(kind, index)`` of the deleted row, ``kind`` being 0 for
        :attr:`rects`, 1 for :attr:`segs` and 2 for :attr:`polys`, or
        ``None`` when the obstacle is absent.  The rows above ``index``
        shift down by one, so a count-keyed watermark over that kind must
        drop by one exactly when it covered ``index`` (the visibility
        graph remaps its row watermarks this way instead of refreshing
        the rows).
        """
        try:
            i = self._obstacles.index(obstacle)
        except ValueError:
            return None
        kind_index = sum(1 for o in self._obstacles[:i]
                         if type(o) is type(obstacle))
        del self._obstacles[i]
        if isinstance(obstacle, RectObstacle):
            del self._rect_rows[kind_index]
            self._dirty = True
            return 0, kind_index
        if isinstance(obstacle, SegmentObstacle):
            del self._seg_rows[kind_index]
            self._dirty = True
            return 1, kind_index
        del self._poly_list[kind_index]
        self._poly_dirty = True
        return 2, kind_index

    def _refresh(self) -> None:
        if self._dirty:
            self._rects = np.asarray(self._rect_rows, dtype=np.float64).reshape(-1, 4)
            self._segs = np.asarray(self._seg_rows, dtype=np.float64).reshape(-1, 4)
            self._dirty = False

    # ------------------------------------------------------------ accessors
    @property
    def rects(self) -> np.ndarray:
        self._refresh()
        return self._rects

    @property
    def segs(self) -> np.ndarray:
        self._refresh()
        return self._segs

    @property
    def polys(self) -> Sequence["PolygonObstacle"]:
        """Convex polygon obstacles, in :attr:`poly_slab` row order."""
        return self._poly_list

    @property
    def poly_slab(self) -> PolygonSlab:
        """The polygons packed for the batch kernels, one row per polygon.

        Rows follow :attr:`polys`, so ``poly_slab[n:]`` is exactly the
        polygons of ``polys[n:]`` — the watermark slices the visibility
        graph takes stay aligned across :meth:`add` and :meth:`remove`.
        """
        if self._poly_dirty:
            self._slab = polygon_slab([p.as_array() for p in self._poly_list])
            self._poly_dirty = False
        return self._slab

    @property
    def obstacles(self) -> Sequence[Obstacle]:
        return self._obstacles

    def __len__(self) -> int:
        return len(self._obstacles)

    def __iter__(self):
        return iter(self._obstacles)

    def vertex_count(self) -> int:
        """Total obstacle vertices (4/rectangle, 2/segment, V/polygon)."""
        return (4 * len(self._rect_rows) + 2 * len(self._seg_rows) +
                sum(len(p.points) for p in self._poly_list))

    # ------------------------------------------------------------ predicates
    def blocked(self, ax: float, ay: float, bx: float, by: float) -> bool:
        """True iff any obstacle blocks sight line ``[a, b]``."""
        if blocked_by_rects(ax, ay, bx, by, self.rects).any():
            return True
        if blocked_by_segments(ax, ay, bx, by, self.segs).any():
            return True
        return bool(self._poly_list) and bool(crosses_convex_polygons(
            ax, ay, bx, by, self.poly_slab).any())

    def all_vertices(self) -> List[Point]:
        out: List[Point] = []
        for o in self._obstacles:
            out.extend(o.vertices())
        return out
