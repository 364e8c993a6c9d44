"""Typed workspace update descriptions — the mutation analogue of queries.

Just as :mod:`repro.query.queries` describes *reads* as frozen dataclasses,
this module describes *writes*: site (data point) inserts/deletes and
obstacle inserts/deletes.  ``Workspace.apply`` consumes a sequence of them,
and the continuous-query layer (:mod:`repro.monitor`) receives each applied
update to decide — via its footprint — which registered monitors can be
left untouched, locally repaired, or must re-run.

Every update exposes ``footprint()``: the axis-aligned region of the plane
the mutation touches (a degenerate rectangle for a point site, the MBR for
an obstacle).  The affected-tests of the cache and monitor layers reason
about that footprint only, so they apply uniformly to all four kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple, Union

from ..geometry.point import require_finite
from ..geometry.rectangle import Rect
from ..obstacles.obstacle import Obstacle


@dataclass(frozen=True)
class SiteUpdate:
    """Base of the data-point mutations: a payload at a location."""

    payload: Any
    x: float
    y: float

    kind = "site"

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))

    @property
    def xy(self) -> Tuple[float, float]:
        return (self.x, self.y)

    def footprint(self) -> Rect:
        """The degenerate rectangle at the site's location."""
        return Rect.point(self.x, self.y)


@dataclass(frozen=True)
class AddSite(SiteUpdate):
    """Insert a data point ``payload`` at ``(x, y)``.

    Raises:
        ValueError: on a NaN or infinite coordinate.
    """

    kind = "add-site"

    def __post_init__(self) -> None:
        super().__post_init__()
        require_finite("site", self.x, self.y)


@dataclass(frozen=True)
class RemoveSite(SiteUpdate):
    """Delete the data point ``payload`` at ``(x, y)``."""

    kind = "remove-site"


@dataclass(frozen=True)
class ObstacleUpdate:
    """Base of the obstacle mutations."""

    obstacle: Obstacle

    kind = "obstacle"

    def __post_init__(self) -> None:
        if not isinstance(self.obstacle, Obstacle):
            raise TypeError(f"expected an Obstacle, got "
                            f"{type(self.obstacle).__name__}")

    def footprint(self) -> Rect:
        """The obstacle's MBR."""
        return self.obstacle.mbr()


@dataclass(frozen=True)
class AddObstacle(ObstacleUpdate):
    """Insert an obstacle into the workspace's obstacle index."""

    kind = "add-obstacle"


@dataclass(frozen=True)
class RemoveObstacle(ObstacleUpdate):
    """Delete an obstacle from the workspace's obstacle index."""

    kind = "remove-obstacle"


Update = Union[AddSite, RemoveSite, AddObstacle, RemoveObstacle]
"""Anything :meth:`Workspace.apply` accepts."""
