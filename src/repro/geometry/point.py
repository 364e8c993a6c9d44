"""Planar point type and elementary point arithmetic.

Points are immutable ``(x, y)`` pairs.  Throughout the library points are
represented either as :class:`Point` instances or as plain ``(x, y)`` tuples;
every public function accepts both, because the hot paths convert to raw
floats immediately.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Tuple


def require_finite(what: str, *coords: float) -> None:
    """Raise ``ValueError`` unless every coordinate is finite.

    The API boundary's guard for sites, obstacles and query input: a NaN
    or infinite coordinate would poison every distance (and, for NaN,
    never terminate the envelope merges) instead of failing loudly.
    """
    if not all(map(math.isfinite, coords)):
        raise ValueError(f"{what} has a non-finite coordinate: {coords}")


def require_finite_points(what: str, points: Iterable[Tuple[float, float]]
                          ) -> None:
    """:func:`require_finite` over many ``(x, y)`` pairs (bulk loads run
    it over every site, so the all-finite path stays a bare loop)."""
    isfinite = math.isfinite
    for x, y in points:
        if not (isfinite(x) and isfinite(y)):
            require_finite(what, x, y)


class Point(NamedTuple):
    """An immutable point in the plane.

    Being a :class:`~typing.NamedTuple`, a :class:`Point` unpacks like a
    tuple, compares by value, and is hashable, which lets points serve as
    visibility-graph node keys directly.
    """

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":  # type: ignore[override]
        ox, oy = other
        return Point(self.x + ox, self.y + oy)

    def __sub__(self, other: "Point") -> "Point":
        ox, oy = other
        return Point(self.x - ox, self.y - oy)

    def __mul__(self, scalar: float) -> "Point":  # type: ignore[override]
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def dot(self, other: "Point") -> float:
        """Dot product with another point treated as a vector."""
        ox, oy = other
        return self.x * ox + self.y * oy

    def cross(self, other: "Point") -> float:
        """Z component of the cross product with ``other``."""
        ox, oy = other
        return self.x * oy - self.y * ox

    def norm(self) -> float:
        """Euclidean length of the vector from the origin."""
        return math.hypot(self.x, self.y)

    def dist(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        ox, oy = other
        return math.hypot(self.x - ox, self.y - oy)

    def dist_sq(self, other: "Point") -> float:
        """Squared Euclidean distance to ``other`` (no sqrt)."""
        ox, oy = other
        dx = self.x - ox
        dy = self.y - oy
        return dx * dx + dy * dy

    def normalized(self) -> "Point":
        """Unit vector in the same direction.

        Raises:
            ZeroDivisionError: for the zero vector.
        """
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return Point(self.x / n, self.y / n)

    def perp(self) -> "Point":
        """The vector rotated 90 degrees counter-clockwise."""
        return Point(-self.y, self.x)


PointLike = Point | tuple


def as_point(p: PointLike) -> Point:
    """Coerce a ``(x, y)`` pair into a :class:`Point`."""
    if isinstance(p, Point):
        return p
    x, y = p
    return Point(float(x), float(y))


def dist(a: PointLike, b: PointLike) -> float:
    """Euclidean distance between two point-likes."""
    ax, ay = a
    bx, by = b
    return math.hypot(ax - bx, ay - by)


def dist_sq(a: PointLike, b: PointLike) -> float:
    """Squared Euclidean distance between two point-likes."""
    ax, ay = a
    bx, by = b
    dx = ax - bx
    dy = ay - by
    return dx * dx + dy * dy


def midpoint(a: PointLike, b: PointLike) -> Point:
    """The midpoint of segment ``[a, b]``."""
    ax, ay = a
    bx, by = b
    return Point((ax + bx) * 0.5, (ay + by) * 0.5)


def lerp(a: PointLike, b: PointLike, t: float) -> Point:
    """Linear interpolation ``a + t * (b - a)``."""
    ax, ay = a
    bx, by = b
    return Point(ax + t * (bx - ax), ay + t * (by - ay))


def iter_points(coords: Iterator[tuple]) -> Iterator[Point]:
    """Yield :class:`Point` objects from an iterable of pairs."""
    for c in coords:
        yield as_point(c)
