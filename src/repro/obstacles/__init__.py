"""Obstacle substrate: obstacle model, shadows, visibility graphs, distances."""

from .obstacle import (
    Obstacle,
    ObstacleSet,
    PolygonObstacle,
    RectObstacle,
    SegmentObstacle,
)
from .obstructed import (
    all_obstructed_distances,
    build_full_graph,
    obstructed_distance,
    obstructed_path,
)
from .shadow import (
    shadow_intervals_rects,
    shadow_intervals_segs,
    shadow_set,
    visible_region,
)
from .visgraph import LocalVisibilityGraph

__all__ = [
    "LocalVisibilityGraph",
    "Obstacle",
    "ObstacleSet",
    "PolygonObstacle",
    "RectObstacle",
    "SegmentObstacle",
    "all_obstructed_distances",
    "build_full_graph",
    "obstructed_distance",
    "obstructed_path",
    "shadow_intervals_rects",
    "shadow_intervals_segs",
    "shadow_set",
    "visible_region",
]
