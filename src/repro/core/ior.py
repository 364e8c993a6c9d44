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

Each round is one traversal from the point aimed at ``q``
(:meth:`~repro.routing.backends.ObstructedGraph.aimed_traversal`): it
settles in ``f = d + dist(v, q)`` order and ends once S and E are settled
(they lie on ``q``, so their ``f`` is their exact distance) or, once the
engine's envelope holds k points, at ``f >= RLMAX``.  CPLC then resumes
the round's traversal instead of starting another.

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


def ior_fixpoint(vg: ObstructedGraph, retriever: ObstacleSource,
                 point_node: int, bound: float = math.inf
                 ) -> Tuple[float, float]:
    """Algorithm 1: stabilize the shortest paths from ``point_node`` to S and E.

    Each round computes the local shortest-path lengths to both query
    endpoints and, if they exceed the current retrieval radius, pulls in all
    obstacles up to that length — which may invalidate edges and lengthen the
    paths, so the loop repeats until a fixpoint (Lemma 3).

    ``bound`` is the engine's global result bound (the generalized RLMAX):
    a path of length >= ``bound`` can never appear in the result, so the
    round stops settling there and coverage is only guaranteed up to
    ``bound``.  Soundness: any claimed path of length L < bound ends on the
    query segment, so every point of it lies within L of ``q`` and every
    obstacle that could invalidate it has ``mindist(o, q) < bound`` — all
    retrieved.  Claims at or above ``bound`` lose (or tie, which keeps the
    incumbent) at every envelope level, so their exactness is irrelevant.

    Returns:
        The last round's ``(dS, dE)``: exact when ``bound`` is infinite,
        possibly cut off (``inf``) at or beyond a finite ``bound``.
    """
    while True:
        tr, on_settle = vg.aimed_traversal(point_node)
        dists = tr.distances((vg.S, vg.E), bound, on_settle)
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
