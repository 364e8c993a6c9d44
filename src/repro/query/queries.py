"""Typed, immutable query descriptions — the declarative submission surface.

Every query the library can answer is describable as a frozen dataclass:
what to search (a segment, a point, a polyline, a pair of trees), how many
neighbors, and optional per-query overrides (``config``, ``label``).  A
description carries no algorithm choice — the planner
(:func:`repro.query.planner.build_plan`) picks the algorithm and tree layout
when the query meets a :class:`~repro.service.Workspace`, which is what lets
the executor reorder, batch, and prefetch behind one uniform API.

Descriptions validate eagerly: a degenerate CONN segment, a NaN or infinite
query coordinate, ``k < 1``, or a negative or NaN range radius raise
``ValueError`` at construction time, before any index is touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Optional, Tuple

from ..core.config import ConnConfig
from ..geometry.point import Point, as_point, require_finite
from ..geometry.rectangle import Rect
from ..geometry.segment import Segment
from ..index.rstar import RStarTree


def as_query_point(x: Any, y: Optional[float] = None) -> Point:
    """Coerce a query location into a :class:`~repro.geometry.point.Point`.

    Accepts the three spellings the public entry points allow::

        as_query_point(3.0, 4.0)       # bare floats
        as_query_point((3.0, 4.0))     # (x, y) tuple
        as_query_point(Point(3, 4))    # Point

    Raises:
        TypeError: when ``x`` is a point-like and ``y`` is also given (the
            call is ambiguous — pass ``k``/``radius`` by keyword instead).
        ValueError: when a coordinate is NaN or infinite.
    """
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        if y is None:
            raise TypeError("missing y coordinate (or pass one (x, y) pair)")
        point = Point(float(x), float(y))
    elif y is not None:
        raise TypeError("got both a point-like first argument and a second "
                        "coordinate; pass trailing options by keyword")
    else:
        point = as_point(x)
    require_finite("query point", point.x, point.y)
    return point


def as_range_args(x: Any, y: Optional[float] = None,
                  radius: Optional[float] = None) -> Tuple[Point, float]:
    """Normalize ``range``-style arguments: floats, tuple, or Point + radius.

    Supports ``(x, y, radius)``, ``((x, y), radius)`` and
    ``(Point, radius)`` spellings (``radius`` positional or by keyword).
    """
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        if y is None or radius is None:
            raise TypeError("range needs x, y and radius (or a point-like "
                            "and radius)")
        return Point(float(x), float(y)), float(radius)
    if radius is None:
        radius = y
    elif y is not None:
        raise TypeError("got both a point-like first argument and a second "
                        "coordinate; pass radius once")
    if radius is None:
        raise TypeError("range needs a radius")
    return as_query_point(x), float(radius)


def _as_segment(segment: Any) -> Segment:
    if not isinstance(segment, Segment):
        ax, ay, bx, by = segment
        segment = Segment(float(ax), float(ay), float(bx), float(by))
    require_finite("query segment", *segment)
    return segment


@dataclass(frozen=True, kw_only=True)
class Query:
    """Base of every typed query description.

    Attributes:
        label: free-form tag echoed through plans and results (handy for
            correlating batch submissions with their answers).
        config: per-query :class:`~repro.core.config.ConnConfig` override;
            ``None`` uses the workspace default.
    """

    label: Optional[str] = None
    config: Optional[ConnConfig] = None

    kind: ClassVar[str] = "query"

    @property
    def k(self) -> int:
        """Number of neighbors requested (1 for non-kNN queries)."""
        return 1

    def footprint(self) -> Optional[Rect]:
        """Spatial extent of the query, for locality scheduling.

        ``None`` for non-spatial queries (the joins), which the batch
        scheduler leaves in submission order.
        """
        return None

    def describe(self) -> str:
        """One-line human-readable description for ``explain()`` output."""
        return repr(self)


@dataclass(frozen=True)
class CoknnQuery(Query):
    """Continuous obstructed k-NN of every point of ``segment`` (COkNN)."""

    segment: Segment
    knn: int = 1

    kind: ClassVar[str] = "coknn"

    def __post_init__(self) -> None:
        object.__setattr__(self, "segment", _as_segment(self.segment))
        if self.segment.is_degenerate():
            raise ValueError("query segment is degenerate; use OnnQuery for "
                             "points")
        if self.knn < 1:
            raise ValueError("k must be at least 1")

    @property
    def k(self) -> int:
        return self.knn

    def footprint(self) -> Rect:
        return Rect(*self.segment.bbox())

    def describe(self) -> str:
        s = self.segment
        return (f"{self.kind}(({s.ax:g}, {s.ay:g}) -> ({s.bx:g}, {s.by:g}), "
                f"k={self.k})")


@dataclass(frozen=True)
class ConnQuery(CoknnQuery):
    """Continuous obstructed nearest-neighbor query (COkNN with k = 1)."""

    kind: ClassVar[str] = "conn"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.knn != 1:
            raise ValueError("ConnQuery is k = 1 by definition; use "
                             "CoknnQuery for k > 1")


@dataclass(frozen=True)
class OnnQuery(Query):
    """Snapshot obstructed k-NN at a single point."""

    point: Point
    knn: int = 1

    kind: ClassVar[str] = "onn"

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", as_query_point(self.point))
        if self.knn < 1:
            raise ValueError("k must be at least 1")

    @property
    def k(self) -> int:
        return self.knn

    def footprint(self) -> Rect:
        return Rect.point(self.point.x, self.point.y)

    def describe(self) -> str:
        return f"onn(({self.point.x:g}, {self.point.y:g}), k={self.k})"


@dataclass(frozen=True)
class RangeQuery(Query):
    """All data points within obstructed distance ``radius`` of ``point``."""

    point: Point
    radius: float = 0.0

    kind: ClassVar[str] = "range"

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", as_query_point(self.point))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius >= 0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    def footprint(self) -> Rect:
        return Rect.point(self.point.x, self.point.y).expanded(self.radius)

    def describe(self) -> str:
        return (f"range(({self.point.x:g}, {self.point.y:g}), "
                f"radius={self.radius:g})")


@dataclass(frozen=True)
class TrajectoryQuery(Query):
    """Continuous obstructed k-NN along a polyline of waypoints."""

    waypoints: Tuple[Tuple[float, float], ...]
    knn: int = 1

    kind: ClassVar[str] = "trajectory"

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.waypoints)
        object.__setattr__(self, "waypoints", pts)
        if len(pts) < 2:
            raise ValueError("a trajectory needs at least two waypoints")
        require_finite("trajectory", *(c for p in pts for c in p))
        if all(Segment(ax, ay, bx, by).is_degenerate()
               for (ax, ay), (bx, by) in zip(pts, pts[1:])):
            raise ValueError("trajectory has no leg of positive length")
        if self.knn < 1:
            raise ValueError("k must be at least 1")

    @property
    def k(self) -> int:
        return self.knn

    def footprint(self) -> Rect:
        return Rect.from_points(self.waypoints)

    def describe(self) -> str:
        return f"trajectory({len(self.waypoints)} waypoints, k={self.k})"


@dataclass(frozen=True)
class _JoinQuery(Query):
    """Base of the obstructed-join queries (require the 2T layout)."""

    left: RStarTree = None  # type: ignore[assignment]
    right: RStarTree = None  # type: ignore[assignment]

    kind: ClassVar[str] = "join"

    def __post_init__(self) -> None:
        if self.left is None or self.right is None:
            raise ValueError(f"{type(self).__name__} needs two point trees")

    def describe(self) -> str:
        return (f"{self.kind}({self.left.size} x {self.right.size} points)")


@dataclass(frozen=True)
class SemiJoinQuery(_JoinQuery):
    """For each point of ``left``: its obstructed NN in ``right``."""

    kind: ClassVar[str] = "semi-join"


@dataclass(frozen=True)
class EDistanceJoinQuery(_JoinQuery):
    """All cross pairs within obstructed distance ``e``."""

    e: float = 0.0

    kind: ClassVar[str] = "e-distance-join"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "e", float(self.e))
        if self.e < 0:
            raise ValueError("e must be non-negative")

    def describe(self) -> str:
        return (f"{self.kind}({self.left.size} x {self.right.size} points, "
                f"e={self.e:g})")


@dataclass(frozen=True)
class ClosestPairQuery(_JoinQuery):
    """The cross-set pair with the smallest obstructed distance."""

    kind: ClassVar[str] = "closest-pair"
