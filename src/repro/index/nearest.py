"""Best-first incremental nearest-entry traversal.

Implements the optimal distance-browsing strategy of Hjaltason & Samet over
an :class:`~repro.index.rstar.RStarTree`: a min-heap holds visited entries
keyed by ``mindist`` to the query geometry; popping yields objects in
non-decreasing distance order without ever knowing ``k`` in advance.

The CONN algorithms need two capabilities beyond a plain generator:

* :meth:`IncrementalNearest.peek_key` — Lemma 2 terminates the scan when the
  heap head's key exceeds ``RLMAX`` *without* consuming the entry;
* distance to a *segment* (the query line segment ``q``), not only a point —
  callers pass any lower-bound function on rectangles.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

from ..geometry.rectangle import Rect, segment_mindist_lower
from .rstar import RStarTree


class IncrementalNearest:
    """Incrementally pops ``(dist, payload, rect)`` in ascending ``dist`` order.

    Args:
        tree: the R*-tree to traverse.
        mindist: lower-bound distance from a rectangle to the query geometry
            (must satisfy ``mindist(mbr) <= min over contents``, which any
            geometric mindist does).  This is the key entries pop by.
        lower: optional cheap bound with ``lower(r) <= mindist(r)`` for
            every rectangle ``r``.  Entries are then pushed keyed by
            ``lower`` (keeping their insertion counter); an entry that
            reaches the heap head has its exact ``mindist`` swapped in
            place (``heapreplace``) and is expanded or popped only once it
            heads the heap again.  Best-first scans stop long before most
            pushed entries surface (Lemma 2), so most exact keys are never
            computed.

    The contract for ``lower`` is only ``lower <= mindist``, and under it
    the lazy scan pops in exactly the eager ``(mindist, counter)`` order:
    when the head ``(e, c)`` carries its exact key, every other entry's
    heap key ``(k, c')`` is ``>= (e, c)`` and its exact key is ``>= k``,
    so ``(e, c)`` is also the eager minimum.  Expansions therefore happen
    in the same order over the same entry sets: same keys, same payloads,
    same page-access sequence.  The segment bound,
    :func:`~repro.geometry.rectangle.segment_mindist_lower`, proves the
    contract against the computed ``Rect.mindist_segment`` in its
    docstring, slack included.  Point scans pass no ``lower``: their exact
    key is already a single ``hypot``.
    """

    def __init__(self, tree: RStarTree, mindist: Callable[[Rect], float],
                 lower: Optional[Callable[[Rect], float]] = None):
        self._tree = tree
        self._mindist = mindist
        self._lower = lower
        self._counter = itertools.count()
        # (key, counter, exact, is_node, item, rect): ``exact`` is False
        # while ``key`` is still the ``lower`` bound.
        self._heap: List[Tuple[float, int, bool, bool, Any, Rect]] = []
        root = tree.root
        if root.entries:
            heapq.heappush(self._heap, (0.0, next(self._counter), True, True,
                                        root, None))

    def _settle(self) -> None:
        """Expand nodes until the head is an exactly keyed object (or the
        heap is empty)."""
        heap = self._heap
        mindist = self._mindist
        key = self._lower
        exact = key is None
        if exact:
            key = mindist
        counter = self._counter
        push = heapq.heappush
        while heap:
            _k, c, is_exact, is_node, item, rect = heap[0]
            if not is_exact:
                heapq.heapreplace(heap, (mindist(rect), c, True, is_node,
                                         item, rect))
                continue
            if not is_node:
                return
            heapq.heappop(heap)
            self._tree.tracker.access(item.page_id)
            leaf = item.is_leaf
            for e in item.entries:
                r = e.rect
                push(heap, (key(r), next(counter), exact, not leaf, e.item, r))

    def peek_key(self) -> float:
        """Distance key of the next object, or ``inf`` when exhausted."""
        self._settle()
        return self._heap[0][0] if self._heap else math.inf

    def pop(self) -> Optional[Tuple[float, Any, Rect]]:
        """The next ``(dist, payload, rect)``, or ``None`` when exhausted."""
        self._settle()
        if not self._heap:
            return None
        d, _c, _exact, _is_node, payload, rect = heapq.heappop(self._heap)
        return (d, payload, rect)

    def __iter__(self):
        while True:
            item = self.pop()
            if item is None:
                return
            yield item


def knn(tree: RStarTree, x: float, y: float, k: int) -> List[Tuple[float, Any]]:
    """The ``k`` nearest payloads to point ``(x, y)`` by Euclidean mindist."""
    if k <= 0:
        return []
    scan = nearest_to_point(tree, x, y)
    out: List[Tuple[float, Any]] = []
    for d, payload, _rect in scan:
        out.append((d, payload))
        if len(out) == k:
            break
    return out


def nearest_to_point(tree: RStarTree, x: float, y: float
                     ) -> IncrementalNearest:
    """Incremental scan ordered by Euclidean mindist to the point ``(x, y)``."""
    return IncrementalNearest(tree, lambda r: r.mindist_point(x, y))


def nearest_to_segment(tree: RStarTree, ax: float, ay: float,
                       bx: float, by: float) -> IncrementalNearest:
    """Incremental scan ordered by mindist to the segment ``[a, b]``.

    Lazily keyed: entries push the MBR-gap bound and compute the exact
    ``Rect.mindist_segment`` only on reaching the heap head.
    """
    return IncrementalNearest(tree,
                              lambda r: r.mindist_segment(ax, ay, bx, by),
                              lower=segment_mindist_lower(ax, ay, bx, by))
