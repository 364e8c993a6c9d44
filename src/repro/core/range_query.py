"""Obstructed range queries (Zhang et al. [31], the query family the paper
extends).

``obstructed_range`` finds every data point whose *obstructed* distance to a
query point is at most ``radius``.  Euclidean distance lower-bounds the
obstructed distance, so a best-first scan of the data R*-tree can stop as
soon as the next candidate's Euclidean mindist exceeds ``radius``; each
surviving candidate's exact obstructed distance is computed on the shared
local visibility graph with Lemma 3's retrieval bound.

Like :mod:`repro.core.onn`, the scan loop (:func:`run_range_scan`) runs
on the sources the query executor (:mod:`repro.query.executor`) opens, and
the executor charges the run's page reads.
"""

from __future__ import annotations

import math
from typing import Any, List, Tuple

from ..geometry.predicates import EPS
from ..index.rstar import RStarTree
from ..routing.backends import ObstructedGraph
from .ior import ObstacleSource
from .onn import _stable_distance
from .stats import QueryStats


def run_range_scan(source, retriever: ObstacleSource,
                   vg: ObstructedGraph, radius: float,
                   stats: QueryStats) -> List[Tuple[Any, float]]:
    """Drive an obstructed range scan over pluggable sources.

    Returns:
        ``(payload, obstructed_distance)`` pairs within ``radius``,
        ascending by distance.
    """
    matches: List[Tuple[float, Any]] = []
    while True:
        key = source.peek_key()
        if math.isinf(key) or key > radius + EPS:
            break
        _d, payload, (cx, cy) = source.pop()
        stats.npe += 1
        node = vg.add_point(cx, cy)
        try:
            odist = _stable_distance(vg, retriever, node, vg.S)
        finally:
            vg.remove_point(node)
        if odist <= radius + EPS:
            matches.append((odist, payload))
    matches.sort()
    return [(payload, d) for d, payload in matches]


def obstructed_range(data_tree: RStarTree, obstacle_tree: RStarTree,
                     x, y: float | None = None,
                     radius: float | None = None
                     ) -> Tuple[List[Tuple[Any, float]], QueryStats]:
    """All points within obstructed distance ``radius`` of a query point.

    Accepts ``(x, y, radius)``, ``((x, y), radius)``, or
    ``(Point, radius)`` spellings.  A thin shim over a one-shot
    :class:`~repro.service.Workspace` executing a
    :class:`~repro.query.queries.RangeQuery`.

    Returns:
        ``(matches, stats)`` with matches as ``(payload, obstructed_distance)``
        pairs in ascending distance order.
    """
    from ..service.workspace import Workspace

    ws = Workspace(data_tree=data_tree, obstacle_tree=obstacle_tree)
    return ws.range(x, y, radius)
