"""Snapshot obstructed (k-)nearest-neighbor queries at a point.

This is the ONN query of Zhang et al. [31] / Xia et al. [29] the paper
builds on: best-first scan of the data R*-tree in ascending Euclidean
distance (the lower bound of the obstructed distance), computing each
candidate's exact obstructed distance on an incrementally grown local
visibility graph, terminating once the next candidate's Euclidean distance
exceeds the current k-th best obstructed distance.

The scan loop is factored into :func:`run_onn_scan`, parameterized over the
candidate feed and the obstacle source, so every layout and obstacle feed
(the query executor's cache view or unified scan,
:mod:`repro.query.executor`) shares one implementation.

Also exposes :func:`obstructed_distance_indexed` — pairwise obstructed
distance against an obstacle R*-tree without touching the full obstacle set
(Lemma 3's retrieval bound applied to a point pair).
"""

from __future__ import annotations

import bisect
import math
import time
from typing import Any, List, Sequence, Tuple

from ..geometry.predicates import EPS
from ..geometry.segment import Segment
from ..index.nearest import IncrementalNearest
from ..index.pagestore import PageTracker
from ..index.rstar import RStarTree
from ..routing.backends import ObstructedGraph, PerQueryVGBackend
from .config import DEFAULT_CONFIG, ConnConfig
from .ior import ObstacleRetriever, ObstacleSource
from .stats import QueryStats


def _stable_distance(vg: ObstructedGraph, retriever: ObstacleSource,
                     source_node: int, target_node: int) -> float:
    """Shortest-path length valid under Lemma 3's retrieval criterion.

    Repeats (Dijkstra, retrieve up to path length) until the path no longer
    triggers retrieval; the local path is then the true obstructed distance.
    """
    while True:
        d = vg.shortest_distances(source_node, (target_node,))[target_node]
        if d <= retriever.radius + EPS:
            return d
        if math.isinf(d):
            if retriever.ensure(math.inf) == 0:
                return d
            continue
        if retriever.ensure(d) == 0:
            return d


class PointScan:
    """Candidate feed in ascending Euclidean distance to a query point.

    Adapts :class:`~repro.index.nearest.IncrementalNearest` to the engine's
    ``DataSource`` protocol (``pop`` yields centers, not rects).
    """

    def __init__(self, data_tree: RStarTree, x: float, y: float):
        self._scan = IncrementalNearest(
            data_tree, lambda rect: rect.mindist_point(x, y))

    def peek_key(self) -> float:
        return self._scan.peek_key()

    def pop(self) -> Tuple[float, Any, Tuple[float, float]]:
        d, payload, rect = self._scan.pop()
        cx, cy = rect.center()
        return d, payload, (cx, cy)


def run_onn_scan(source, retriever: ObstacleSource,
                 vg: ObstructedGraph, k: int, config: ConnConfig,
                 stats: QueryStats,
                 trackers: Sequence[PageTracker]) -> List[Tuple[Any, float]]:
    """Drive an ONN scan to completion over pluggable sources.

    Args:
        source: candidate feed (``peek_key``/``pop``) in ascending Euclidean
            distance to the anchor point ``vg.S``.
        retriever: obstacle source implementing ``ensure``/``radius``.

    Returns:
        Up to ``k`` ``(payload, obstructed_distance)`` pairs, ascending.
    """
    snapshots = [(t, t.local_stats.snapshot()) for t in trackers]
    started = time.perf_counter()
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
    stats.cpu_time_s += time.perf_counter() - started
    stats.svg_size = vg.svg_size
    for tracker, snap in snapshots:
        delta = tracker.local_stats.delta(snap)
        stats.io.logical_reads += delta.logical_reads
        stats.io.page_faults += delta.page_faults
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
