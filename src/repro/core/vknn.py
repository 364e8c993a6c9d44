"""Visible k-nearest-neighbor queries (Nutanong et al., paper Section 2.3).

VkNN returns the ``k`` nearest data points that are *visible* from the query
point — obstacles block sight lines but, unlike the obstructed distance, do
not reroute them: an invisible point is simply excluded, and distances stay
Euclidean.  The paper positions this as the other line of obstacle-aware
query research; it falls out of our substrate in a few lines.

Soundness of the incremental retrieval: an obstacle can only block the
sight line to a candidate at Euclidean distance ``d`` if it intersects that
segment, hence lies within ``d`` of the query point — so retrieving all
obstacles with ``mindist(o, q) <= d`` before testing visibility at radius
``d`` is sufficient.
"""

from __future__ import annotations

import math
from typing import Any, List, Tuple

from ..geometry.predicates import EPS
from ..geometry.segment import Segment
from ..index.nearest import nearest_to_point
from ..index.rstar import RStarTree
from ..obstacles.visgraph import LocalVisibilityGraph
from .ior import ObstacleRetriever
from .stats import QueryStats, charge_run


def vknn(data_tree: RStarTree, obstacle_tree: RStarTree,
         x: float, y: float, k: int = 1
         ) -> Tuple[List[Tuple[Any, float]], QueryStats]:
    """The ``k`` nearest data points *visible* from ``(x, y)``.

    Returns:
        ``(neighbors, stats)`` with neighbors as ``(payload, euclidean
        distance)`` in ascending order (fewer than ``k`` when the rest of
        the data set is hidden).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    stats = QueryStats()
    anchor = Segment(x, y, x, y)
    vg = LocalVisibilityGraph(anchor)
    retriever = ObstacleRetriever(obstacle_tree, anchor, vg, stats)
    scan = nearest_to_point(data_tree, x, y)
    found: List[Tuple[Any, float]] = []
    with charge_run(stats, vg, (data_tree.tracker,),
                    (obstacle_tree.tracker,)):
        while len(found) < k:
            key = scan.peek_key()
            if math.isinf(key):
                break
            d, payload, rect = scan.pop()
            stats.npe += 1
            retriever.ensure(d + EPS)
            cx, cy = rect.center()
            if not vg.obstacles.blocked(x, y, cx, cy):
                found.append((payload, math.hypot(cx - x, cy - y)))
    return found, stats
