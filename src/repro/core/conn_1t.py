"""CONN / COkNN over a single unified R*-tree (Section 4.5, "1T").

Data points and obstacles share one index.  A single best-first heap is
traversed in ascending ``mindist(entry, q)``; de-heaped obstacles go straight
into the local visibility graph, de-heaped data points queue for evaluation.
Because points and obstacles that are close to each other tend to share leaf
pages, one traversal does the work the two-tree layout pays for twice — the
effect Figure 13 of the paper measures.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import TYPE_CHECKING, Any, List, Tuple

from ..geometry.segment import Segment
from ..index.nearest import nearest_to_segment
from ..index.rstar import RStarTree
from ..obstacles.obstacle import Obstacle
from ..routing.backends import ObstructedGraph
from .config import DEFAULT_CONFIG, ConnConfig
from .engine import ConnResult
from .stats import QueryStats

if TYPE_CHECKING:  # pragma: no cover - the service layer imports the core
    from ..service.cache import ObstacleCache


class UnifiedSource:
    """One heap feeding both roles: data source *and* obstacle source.

    Implements the :class:`~repro.core.engine.DataSource` protocol (peek/pop
    of data points) and the :class:`~repro.core.ior.ObstacleSource` protocol
    (``ensure(radius)``), routing every de-heaped obstacle into the
    visibility graph on sight.  Because the underlying scan pops entries in
    ascending key order, after an obstacle at key ``d`` is routed, every
    obstacle with key below ``d`` is already in the graph — so the coverage
    radius advances with the scan front.

    Every routed obstacle is also harvested into ``cache``, the workspace's
    :class:`~repro.service.cache.ObstacleCache`.  The unified scan must
    traverse the tree for data points regardless, so the cache cannot skip
    1T page reads; the harvest seeds the shared visibility graph and
    prefetch inspection.
    """

    def __init__(self, tree: RStarTree, qseg: Segment,
                 vg: ObstructedGraph, stats: QueryStats,
                 cache: "ObstacleCache"):
        self._scan = nearest_to_segment(tree, qseg.ax, qseg.ay,
                                        qseg.bx, qseg.by)
        self._vg = vg
        self._stats = stats
        self._cache = cache
        self._pending: List[Tuple[float, int, Any, Tuple[float, float]]] = []
        self._seq = itertools.count()
        self.radius = 0.0

    # ------------------------------------------------------------ data feed
    def peek_key(self) -> float:
        self._advance_to_point()
        scan_key = self._scan.peek_key()
        if self._pending and self._pending[0][0] <= scan_key:
            return self._pending[0][0]
        return scan_key

    def pop(self) -> Tuple[float, Any, Tuple[float, float]]:
        self._advance_to_point()
        d, _seq, payload, xy = heapq.heappop(self._pending)
        return d, payload, xy

    def _advance_to_point(self) -> None:
        """Route scan entries until its head would be a data point.

        Obstacles encountered on the way enter the visibility graph — the
        paper's case (1) of the unified traversal.
        """
        while True:
            key = self._scan.peek_key()
            if math.isinf(key):
                return
            if self._pending and self._pending[0][0] <= key:
                return
            d, payload, rect = self._scan.pop()
            if isinstance(payload, Obstacle):
                self._cache.add(payload)
                self._stats.noe += self._vg.add_obstacles([payload])
                self.radius = max(self.radius, d)
            else:
                cx, cy = rect.center()
                heapq.heappush(self._pending,
                               (d, next(self._seq), payload, (cx, cy)))
                return

    # ------------------------------------------------------- obstacle feed
    def ensure(self, radius: float) -> int:
        """Pull every entry with key <= ``radius``; points queue, obstacles insert."""
        if radius <= self.radius:
            return 0
        added = 0
        while True:
            key = self._scan.peek_key()
            if math.isinf(key) or key > radius:
                break
            d, payload, rect = self._scan.pop()
            if isinstance(payload, Obstacle):
                self._cache.add(payload)
                n = self._vg.add_obstacles([payload])
                added += n
                self._stats.noe += n
            else:
                cx, cy = rect.center()
                heapq.heappush(self._pending,
                               (d, next(self._seq), payload, (cx, cy)))
        self.radius = radius
        return added


def build_unified_tree(points, obstacles, page_size: int = 4096,
                       bulk: bool = True) -> RStarTree:
    """Index data points and obstacles together in one R*-tree.

    Args:
        points: iterable of ``(payload, (x, y))``.
        obstacles: iterable of :class:`~repro.obstacles.obstacle.Obstacle`.
        bulk: STR bulk load (default) vs one-by-one R* insertion.
    """
    from ..geometry.rectangle import Rect

    items = [(payload, Rect.point(x, y)) for payload, (x, y) in points]
    items.extend((o, o.mbr()) for o in obstacles)
    if bulk:
        return RStarTree.bulk_load(items, page_size=page_size)
    tree = RStarTree(page_size=page_size)
    for payload, rect in items:
        tree.insert(payload, rect)
    return tree


def coknn_single_tree(tree: RStarTree, query: Segment, k: int = 1,
                      config: ConnConfig = DEFAULT_CONFIG) -> ConnResult:
    """COkNN over a unified tree built by :func:`build_unified_tree`.

    A thin wrapper over a one-shot :class:`~repro.service.Workspace`
    executing a :class:`~repro.query.queries.CoknnQuery`; build the
    workspace yourself to amortize obstacle retrieval across queries.
    """
    from ..query.queries import CoknnQuery
    from ..service.workspace import Workspace

    return Workspace(unified_tree=tree).execute(
        CoknnQuery(query, k, config=config))


def conn_single_tree(tree: RStarTree, query: Segment,
                     config: ConnConfig = DEFAULT_CONFIG) -> ConnResult:
    """CONN (k = 1) over a unified tree."""
    return coknn_single_tree(tree, query, k=1, config=config)
