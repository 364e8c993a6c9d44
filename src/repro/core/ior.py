"""Incremental Obstacle Retrieval — IOR (Algorithm 1) plus coverage validation.

Obstacles are pulled from the obstacle R*-tree in ascending ``mindist`` to
the query segment through a best-first scan that persists across the whole
query, so the obstacle tree is traversed at most once (Section 4.1).  The
retrieval *radius* only ever grows:

1. :func:`ior_fixpoint` implements Algorithm 1 for a data point ``p``: grow
   the radius to ``max(|SP(p, S)|, |SP(p, E)|)`` computed on the current
   local visibility graph, re-running Dijkstra whenever new obstacles change
   the graph, until the paths are stable.  Lemma 3 then guarantees they are
   the true shortest paths, and Theorem 2 + Lemma 4 that every obstacle that
   can affect ``p``'s obstructed distances to ``q`` is in the graph.
2. ``ensure`` is also called by the engine's coverage validation (see
   DESIGN.md "Deviations"): after CPLC, retrieval is extended to the
   maximum claimed distance CPLMAX, which provably covers every obstacle
   any claimed path could cross.

The first k evaluations of a query are bounded too.  Once the engine's
envelope holds k points, a round's Dijkstra stops at RLMAX.  Before that,
with ``ConnConfig.use_global_bound`` on, each round is a pruned traversal
toward S and E at a *reach* ``r``, started from Euclidean distances and
doubled on a miss (see :func:`ior_fixpoint`); only a query segment known
to meet an obstacle keeps unbounded rounds (see
:func:`~repro.core.engine.evaluate_point`).

Any feed with a ``radius`` and an ``ensure`` is an :class:`ObstacleSource`:
the workspace cache's :class:`~repro.service.cache.CachedObstacleView`
(2T), the unified scan :class:`~repro.core.conn_1t.UnifiedSource` (1T),
the cache-free :class:`ObstacleRetriever` defined here, and
:class:`ObstacleFanOut`, which grows several feeds together.
"""

from __future__ import annotations

import math
from typing import List, Protocol, Sequence, Tuple

from ..geometry.predicates import EPS
from ..geometry.segment import Segment
from ..index.nearest import nearest_to_segment
from ..index.rstar import RStarTree
from ..obstacles.obstacle import Obstacle
from ..routing.backends import ObstructedGraph
from .stats import QueryStats


class ObstacleSource(Protocol):
    """What the engine needs from an obstacle feed (2T scan or 1T unified heap)."""

    radius: float

    def ensure(self, radius: float) -> int:
        """Grow coverage to ``radius``; return number of obstacles added."""
        ...  # pragma: no cover - protocol


class ObstacleFanOut:
    """One obstacle feed over several (one per member shard of a border
    query), all grown to the same radius.  The graph admits, and NOE
    counts, an obstacle replicated into several shards once."""

    def __init__(self, sources: Sequence[ObstacleSource]):
        self._sources = sources

    @property
    def radius(self) -> float:
        return self._sources[0].radius

    def ensure(self, radius: float) -> int:
        return sum(source.ensure(radius) for source in self._sources)


def fan_out(sources: Sequence[ObstacleSource]) -> ObstacleSource:
    """The one feed over ``sources``: a lone source goes unwrapped."""
    return sources[0] if len(sources) == 1 else ObstacleFanOut(sources)


class ObstacleRetriever:
    """Best-first obstacle feed from a dedicated obstacle R*-tree (2T mode).

    One persistent :func:`~repro.index.nearest.nearest_to_segment` scan
    whose retrieval radius only ever grows, feeding one local visibility
    graph.  Queries run through the executor retrieve through the
    workspace's :class:`repro.service.cache.CachedObstacleView` instead,
    which shares retrieved obstacles across queries; this cache-free feed
    serves :func:`~repro.core.onn.obstructed_distance_indexed` and
    :func:`~repro.core.vknn.vknn`.
    """

    def __init__(self, obstacle_tree: RStarTree, qseg: Segment,
                 vg: ObstructedGraph, stats: QueryStats):
        self._scan = nearest_to_segment(obstacle_tree, qseg.ax, qseg.ay,
                                        qseg.bx, qseg.by)
        self._vg = vg
        self._stats = stats
        self.radius = 0.0

    def ensure(self, radius: float) -> int:
        """Retrieve every obstacle with ``mindist(o, q) <= radius``."""
        if radius <= self.radius:
            return 0
        batch: List[Obstacle] = []
        while True:
            key = self._scan.peek_key()
            if math.isinf(key) or key > radius:
                break
            _d, obstacle, _rect = self._scan.pop()
            batch.append(obstacle)
        added = self._vg.add_obstacles(batch)
        self._stats.noe += added
        self.radius = radius
        return added


FIRST_REACH = 1.25
"""A point's first reach is this factor times ``max(|pS|, |pE|)``."""

MAX_DOUBLINGS = 3
"""Reach doublings one IOR round tries before it runs unbounded."""


def ior_fixpoint(vg: ObstructedGraph, retriever: ObstacleSource,
                 point_node: int, stats: QueryStats,
                 bound: float = math.inf,
                 doubling: bool = False) -> Tuple[float, float]:
    """Algorithm 1: stabilize the shortest paths from ``point_node`` to S and E.

    Each round computes the local shortest-path lengths to both query
    endpoints and, if they exceed the current retrieval radius, pulls in all
    obstacles up to that length — which may invalidate edges and lengthen the
    paths, so the loop repeats until a fixpoint (Lemma 3).

    ``bound`` is the engine's global result bound (the generalized RLMAX):
    a path of length >= ``bound`` can never appear in the result, so the
    traversal is cut off there and coverage is only guaranteed up to
    ``bound``.  Soundness: any claimed path of length L < bound ends on the
    query segment, so every point of it lies within L of ``q`` and every
    obstacle that could invalidate it has ``mindist(o, q) < bound`` — all
    retrieved.  Claims at or above ``bound`` lose (or tie, which keeps the
    incumbent) at every envelope level, so their exactness is irrelevant.

    With no finite ``bound``, ``doubling`` runs each round as a pruned
    traversal at a reach ``r`` instead of an unbounded Dijkstra (see
    :func:`_reach_distances`).  It returns the same distances, so the
    rounds retrieve exactly what unbounded rounds would.

    Returns:
        The last round's ``(dS, dE)``: exact when ``bound`` is infinite,
        possibly cut off (``inf``) at or beyond a finite ``bound``.
    """
    reach = math.inf
    if doubling and math.isinf(bound):
        p = vg.node_point(point_node)
        q = vg.qseg
        reach = FIRST_REACH * max(math.hypot(p.x - q.ax, p.y - q.ay),
                                  math.hypot(p.x - q.bx, p.y - q.by))
    while True:
        if reach < math.inf:
            d_s, d_e, reach = _reach_distances(vg, point_node, reach, stats)
        else:
            dists = vg.shortest_distances(point_node, (vg.S, vg.E), bound,
                                          bound)
            d_s, d_e = dists[vg.S], dists[vg.E]
        d_prime = max(d_s, d_e)
        if d_prime <= retriever.radius + EPS:
            return d_s, d_e
        if d_prime > bound:
            # Cut off (or unreachable within the bound): the point cannot
            # beat the incumbent envelope beyond the bound, so covering
            # obstacles up to the bound is enough.  Retrieval only lengthens
            # paths, so the cutoff keeps holding in later rounds.
            if retriever.ensure(bound) == 0:
                return d_s, d_e
            continue
        if math.isinf(d_prime):
            # The point (or an endpoint) is currently unreachable: only the
            # complete obstacle set can confirm it.  ``ensure(inf)`` drains
            # the scan once; the next round then terminates.
            if retriever.ensure(math.inf) == 0:
                return d_s, d_e
            continue
        if retriever.ensure(d_prime) == 0:
            return d_s, d_e


def _reach_distances(vg: ObstructedGraph, point_node: int, reach: float,
                     stats: QueryStats) -> Tuple[float, float, float]:
    """One IOR round's exact ``(dS, dE)`` by pruned traversals.

    Each try is ``shortest_distances(p, (S, E), r, r)``.  S and E lie on
    ``q``, so their heuristic is 0 and a distance reported below ``r`` is
    exact (the prefix-closure argument of
    :class:`~repro.routing.dijkstra.ArrayTraversal`).  A miss (either
    distance at or beyond ``r``) doubles ``r`` and retrieves nothing.
    When the reach still misses after :data:`MAX_DOUBLINGS` doublings, the
    round runs unbounded, which ends the doubling for a point that cannot
    reach S or E at all (one in a walled courtyard).

    Returns:
        ``(dS, dE, r)``: ``r`` is the reach the next round starts from,
        ``inf`` once the round ran unbounded.
    """
    for _ in range(MAX_DOUBLINGS + 1):
        dists = vg.shortest_distances(point_node, (vg.S, vg.E), reach, reach)
        d_s, d_e = dists[vg.S], dists[vg.E]
        if max(d_s, d_e) < reach:
            return d_s, d_e, reach
        stats.reach_misses += 1
        reach *= 2.0
    dists = vg.shortest_distances(point_node, (vg.S, vg.E))
    return dists[vg.S], dists[vg.E], math.inf
