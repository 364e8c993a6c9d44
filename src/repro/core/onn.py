"""Snapshot obstructed (k-)nearest-neighbor queries at a point.

This is the ONN query of Zhang et al. [31] / Xia et al. [29] the paper
builds on: best-first scan of the data R*-tree in ascending Euclidean
distance (the lower bound of the obstructed distance), computing each
candidate's exact obstructed distance on an incrementally grown local
visibility graph, terminating once the next candidate's Euclidean distance
exceeds the current k-th best obstructed distance.

The scan loop is :func:`run_onn_scan`.  The query executor
(:mod:`repro.query.executor`) opens its sources for either layout (on 2T a
:func:`~repro.index.nearest.nearest_to_point` scan of the data tree and a
view over the obstacle cache, on 1T the unified scan) and charges the run's
page reads; the loop only evaluates candidates.

Also exposes :func:`obstructed_distance_indexed` — pairwise obstructed
distance against an obstacle R*-tree without touching the full obstacle set
(Lemma 3's retrieval bound applied to a point pair).
"""

from __future__ import annotations

import bisect
import math
from typing import Any, List, Tuple

from ..geometry.predicates import EPS
from ..geometry.segment import Segment
from ..index.rstar import RStarTree
from ..routing.backends import ObstructedGraph, PerQueryVGBackend
from .config import DEFAULT_CONFIG, ConnConfig
from .ior import ObstacleRetriever, ObstacleSource
from .stats import QueryStats


def _stable_distance(vg: ObstructedGraph, retriever: ObstacleSource,
                     source_node: int, target_node: int) -> float:
    """Obstructed distance between two nodes by Lemma 3's fixpoint.

    ``retriever`` serves obstacles by distance from the anchor ``vg.S``.
    Every point of a path of length ``d`` between the nodes lies within
    ``min(|source, S|, |target, S|) + d`` of the anchor (walk to the nearer
    end, then along the path), so an obstacle crossing the path lies within
    that radius; with one end at the anchor the radius is ``d`` itself.
    Repeats (Dijkstra, retrieve up to that radius) until the radius is
    covered or a round retrieves nothing; the local path is then the true
    obstructed distance.
    """
    anchor = vg.node_point(vg.S)
    near = min(math.dist(vg.node_point(source_node), anchor),
               math.dist(vg.node_point(target_node), anchor))
    while True:
        d = vg.shortest_distances(source_node, (target_node,))[target_node]
        needed = near + d
        if needed <= retriever.radius + EPS:
            return d
        if retriever.ensure(needed) == 0:
            return d


def run_onn_scan(source, retriever: ObstacleSource,
                 vg: ObstructedGraph, k: int, config: ConnConfig,
                 stats: QueryStats) -> List[Tuple[Any, float]]:
    """Drive an ONN scan to completion over pluggable sources.

    Args:
        source: candidate feed (``peek_key``/``pop``) in ascending Euclidean
            distance to the anchor point ``vg.S``.
        retriever: obstacle source implementing ``ensure``/``radius``.

    Returns:
        Up to ``k`` ``(payload, obstructed_distance)`` pairs, ascending.
    """
    best: List[Tuple[float, Any]] = []
    while True:
        key = source.peek_key()
        kth = best[k - 1][0] if len(best) >= k else math.inf
        if config.use_rlmax and key > kth + EPS:
            break
        if math.isinf(key):
            break
        _d, payload, (cx, cy) = source.pop()
        stats.npe += 1
        node = vg.add_point(cx, cy)
        try:
            odist = _stable_distance(vg, retriever, node, vg.S)
        finally:
            vg.remove_point(node)
        if math.isfinite(odist):
            bisect.insort(best, (odist, payload))
    return [(payload, d) for d, payload in best[:k]]


def onn(data_tree: RStarTree, obstacle_tree: RStarTree,
        x, y: float | None = None, k: int = 1,
        config: ConnConfig = DEFAULT_CONFIG) -> Tuple[List[Tuple[Any, float]], QueryStats]:
    """The ``k`` obstructed nearest neighbors of a query point.

    The point may be given as bare floats ``onn(dt, ot, x, y)``, as one
    tuple ``onn(dt, ot, (x, y))``, or as a
    :class:`~repro.geometry.point.Point`.  A thin shim over a one-shot
    :class:`~repro.service.Workspace` executing an
    :class:`~repro.query.queries.OnnQuery`.

    Returns:
        ``(neighbors, stats)`` where neighbors is a list of
        ``(payload, obstructed_distance)`` in ascending distance order
        (fewer than ``k`` when the data set is small or sealed off).
    """
    from ..service.workspace import Workspace

    ws = Workspace(data_tree=data_tree, obstacle_tree=obstacle_tree)
    return ws.onn(x, y, k=k, config=config)


def obstructed_distance_indexed(a: Tuple[float, float], b: Tuple[float, float],
                                obstacle_tree: RStarTree) -> float:
    """Obstructed distance between two points using the obstacle index.

    Only obstacles within Lemma 3's radius of the pair are ever touched.
    Runs through a one-shot :class:`~repro.routing.PerQueryVGBackend`
    session, the same machinery every engine query uses.
    """
    anchor = Segment(a[0], a[1], a[0], a[1])
    stats = QueryStats()
    with PerQueryVGBackend().attach_endpoints(anchor, stats) as session:
        retriever = ObstacleRetriever(obstacle_tree, anchor, session, stats)
        node = session.add_point(b[0], b[1])
        return _stable_distance(session, retriever, node, session.S)
