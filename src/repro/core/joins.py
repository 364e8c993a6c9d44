"""Obstructed spatial joins (the Zhang et al. [31] query family).

The paper's Section 2.3 credits Zhang et al. with obstructed versions of
the classic spatial operations; this module supplies them on our substrate:

* :func:`obstructed_e_distance_join` — all pairs across two point sets
  within obstructed distance ``e``;
* :func:`obstructed_closest_pair` — the cross-set pair with the smallest
  obstructed distance;
* :func:`obstructed_semi_join` — for every point of the outer set, its
  obstructed NN in the inner set.

All three use the same two-level strategy the CONN engine uses: Euclidean
distance is a lower bound of the obstructed distance, so an R*-tree
dual-traversal prunes with plain ``mindist`` and only surviving candidate
pairs pay for an exact obstructed-distance computation (incrementally
retrieved obstacles, Lemma 3's radius).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import TYPE_CHECKING, Any, List, Sequence, Tuple

from ..geometry.predicates import EPS
from ..geometry.segment import Segment
from ..index.nearest import nearest_to_point
from ..index.rstar import RStarTree
from ..obstacles.visgraph import LocalVisibilityGraph
from .ior import fan_out
from .onn import _stable_distance
from .stats import QueryStats

if TYPE_CHECKING:  # pragma: no cover - the service layer imports the core
    from ..service.cache import ObstacleCache


class _PairwiseOracle:
    """Shared incremental obstructed-distance evaluator for point pairs.

    One visibility graph anchored at a reference point serves all pair
    evaluations: both endpoints enter as transient nodes, Lemma 3's
    fixpoint retrieves the obstacles the pair needs through a view over
    each obstacle cache (one per shard on a sharded workspace), and the
    graph (with its obstacle skeleton) is reused by subsequent pairs.
    Retrieval rounds thereby also reuse obstacles fetched by earlier
    queries over the same dataset.
    """

    def __init__(self, anchor: Tuple[float, float], stats: QueryStats,
                 caches: Sequence["ObstacleCache"]):
        seg = Segment(anchor[0], anchor[1], anchor[0], anchor[1])
        self._vg = LocalVisibilityGraph(seg)
        self._retriever = fan_out(
            [cache.view(seg, self._vg, stats) for cache in caches])

    def distance(self, a: Tuple[float, float], b: Tuple[float, float]) -> float:
        node_a = self._vg.add_point(a[0], a[1])
        node_b = self._vg.add_point(b[0], b[1])
        try:
            return _stable_distance(self._vg, self._retriever, node_a, node_b)
        finally:
            self._vg.remove_point(node_b)
            self._vg.remove_point(node_a)

    @property
    def svg_size(self) -> int:
        return self._vg.svg_size


def _items(tree: RStarTree) -> List[Tuple[Any, Tuple[float, float]]]:
    """Every point of ``tree`` with its location, each page read charged."""
    return [(payload, rect.center())
            for payload, rect in tree.items(charge=True)]


def _one_shot_workspace(outer_tree: RStarTree, obstacle_tree: RStarTree):
    """A throwaway workspace routing a free join call through the planner."""
    from ..service.workspace import Workspace

    return Workspace(data_tree=outer_tree, obstacle_tree=obstacle_tree)


def obstructed_e_distance_join(tree_a: RStarTree, tree_b: RStarTree,
                               obstacle_tree: RStarTree, e: float
                               ) -> Tuple[List[Tuple[Any, Any, float]], QueryStats]:
    """All cross pairs with obstructed distance at most ``e``.

    A thin shim over a one-shot :class:`~repro.service.Workspace` executing
    an :class:`~repro.query.queries.EDistanceJoinQuery`; build the workspace
    yourself to amortize obstacle retrieval across queries.

    Returns:
        ``(pairs, stats)`` with pairs as ``(payload_a, payload_b, distance)``
        sorted by distance.
    """
    from ..query.queries import EDistanceJoinQuery

    res = _one_shot_workspace(tree_a, obstacle_tree).execute(
        EDistanceJoinQuery(tree_a, tree_b, e))
    return res.tuples(), res.stats


def _e_distance_join_impl(tree_a: RStarTree, tree_b: RStarTree, e: float,
                          caches: Sequence["ObstacleCache"],
                          stats: QueryStats) -> List[Tuple[Any, Any, float]]:
    """Execution backend of the obstructed e-distance join."""
    if e < 0:
        raise ValueError("e must be non-negative")
    items_a = _items(tree_a)
    items_b = items_a if tree_b is tree_a else _items(tree_b)
    if not items_a or not items_b:
        return []
    # Dual best-first pruning: Euclidean lower bound first.
    candidates: List[Tuple[Tuple[Any, Tuple[float, float]],
                           Tuple[Any, Tuple[float, float]]]] = []
    for pa, xa in items_a:
        for pb, xb in items_b:
            if math.dist(xa, xb) <= e + EPS:
                candidates.append(((pa, xa), (pb, xb)))
    out: List[Tuple[float, Any, Any]] = []
    if candidates:
        anchor = candidates[0][0][1]
        oracle = _PairwiseOracle(anchor, stats, caches)
        for (pa, xa), (pb, xb) in candidates:
            stats.npe += 1
            d = oracle.distance(xa, xb)
            if d <= e + EPS:
                out.append((d, pa, pb))
        stats.svg_size = oracle.svg_size
    out.sort(key=lambda t: t[0])
    return [(pa, pb, d) for d, pa, pb in out]


def obstructed_closest_pair(tree_a: RStarTree, tree_b: RStarTree,
                            obstacle_tree: RStarTree
                            ) -> Tuple[Tuple[Any, Any, float] | None, QueryStats]:
    """The cross-set pair with the smallest obstructed distance.

    Candidate pairs are examined in ascending *Euclidean* distance (a lower
    bound), so the scan stops as soon as the next candidate's Euclidean
    distance exceeds the best obstructed distance found.  A thin shim over a
    one-shot workspace executing a
    :class:`~repro.query.queries.ClosestPairQuery`.
    """
    from ..query.queries import ClosestPairQuery

    res = _one_shot_workspace(tree_a, obstacle_tree).execute(
        ClosestPairQuery(tree_a, tree_b))
    return res.pair, res.stats


def _closest_pair_impl(tree_a: RStarTree, tree_b: RStarTree,
                       caches: Sequence["ObstacleCache"], stats: QueryStats
                       ) -> Tuple[Any, Any, float] | None:
    """Execution backend of the obstructed closest-pair query."""
    items_a = _items(tree_a)
    items_b = items_a if tree_b is tree_a else _items(tree_b)
    if not items_a or not items_b:
        return None
    heap: List[Tuple[float, int, int, int]] = []
    counter = itertools.count()
    for i, (_pa, xa) in enumerate(items_a):
        for j, (_pb, xb) in enumerate(items_b):
            heapq.heappush(heap, (math.dist(xa, xb), next(counter), i, j))
    oracle = _PairwiseOracle(items_a[0][1], stats, caches)
    best: Tuple[float, Any, Any] | None = None
    while heap:
        lower, _c, i, j = heapq.heappop(heap)
        if best is not None and lower >= best[0] - EPS:
            break
        stats.npe += 1
        d = oracle.distance(items_a[i][1], items_b[j][1])
        if math.isfinite(d) and (best is None or d < best[0]):
            best = (d, items_a[i][0], items_b[j][0])
    stats.svg_size = oracle.svg_size
    if best is None:
        return None
    return (best[1], best[2], best[0])


def obstructed_semi_join(tree_a: RStarTree, tree_b: RStarTree,
                         obstacle_tree: RStarTree
                         ) -> Tuple[List[Tuple[Any, Any, float]], QueryStats]:
    """For each point of ``tree_a``: its obstructed NN in ``tree_b``.

    A thin shim over a one-shot workspace executing a
    :class:`~repro.query.queries.SemiJoinQuery`.

    Returns:
        ``(rows, stats)``, one ``(payload_a, payload_b, distance)`` row per
        outer point (``payload_b`` is ``None`` when unreachable).
    """
    from ..query.queries import SemiJoinQuery

    res = _one_shot_workspace(tree_a, obstacle_tree).execute(
        SemiJoinQuery(tree_a, tree_b))
    return res.tuples(), res.stats


def _semi_join_impl(tree_a: RStarTree, tree_b: RStarTree,
                    caches: Sequence["ObstacleCache"], stats: QueryStats
                    ) -> List[Tuple[Any, Any, float]]:
    """Execution backend of the obstructed semi-join."""
    items_a = _items(tree_a)
    rows: List[Tuple[Any, Any, float]] = []
    if not items_a:
        return rows
    oracle = _PairwiseOracle(items_a[0][1], stats, caches)
    for pa, xa in items_a:
        scan = nearest_to_point(tree_b, xa[0], xa[1])
        best_payload = None
        best_d = math.inf
        while True:
            key = scan.peek_key()
            if math.isinf(key) or key >= best_d - EPS:
                break
            _lb, pb, rect = scan.pop()
            stats.npe += 1
            d = oracle.distance(xa, rect.center())
            if d < best_d:
                best_d = d
                best_payload = pb
        rows.append((pa, best_payload, best_d))
    stats.svg_size = oracle.svg_size
    return rows
