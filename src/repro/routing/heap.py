"""The frontier of :class:`~repro.routing.dijkstra.ArrayTraversal`: a
bulk-push priority queue with ``heapq``-identical pop order.

The traversal relaxes a whole adjacency row per settle.  Feeding the
results into a binary heap one ``heappush`` at a time is a pure-Python
loop that profiled at ~13% of the warm-corridor wall, so
:class:`BulkRowHeap` uses the *sequence heap* idea (Sanders 2000): a long
relaxed row is sorted **once** in C (``np.lexsort``) and stored as a run
consumed from the front, and a C-``heapq`` of entries yields the global
minimum.  A bulk push is then one lexsort plus one ``heappush`` instead of
``len(row)`` of them.

Pop order is *identical* to ``heapq`` over individual ``(dist, node)``
tuples: the structure always surfaces the lexicographic minimum of the
currently stored multiset of pairs, and pairs that compare equal are
interchangeable (Dijkstra skips the duplicate once the node is settled).
So the traversal settles nodes in exactly the order a single binary heap
would; ``tests/test_bulk_heap.py`` drives the heap and the traversal with
adversarial distance ties.

A run only pays for itself when the row is long enough for one C sort to
beat ``m`` binary-heap sifts: single pushes and rows shorter than
``_MIN_RUN`` go in as individual singleton entries (rid ``-1``, no run
storage) — the classic per-edge path.  Runs are compacted (concatenated
and re-sorted) once more than ``max_runs`` accumulate, so the number of
live runs stays small even on traversals that settle thousands of nodes.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["BulkRowHeap"]

_MIN_RUN = 16
"""Row length below which per-element pushes beat a lexsort run.

Warm-corridor rows average ~5 improved neighbors; profiling puts the
crossover between ``m`` heappushes and one ``np.lexsort`` + list
conversion + run bookkeeping in the low tens.  Either path yields the
same pop order, so the constant is purely a performance knob."""


class BulkRowHeap:
    """Min-heap of ``(dist, node)`` pairs with O(sort) whole-row pushes."""

    __slots__ = ("_heads", "_runs", "_next", "_len", "_max_runs")

    def __init__(self, max_runs: int = 48):
        # One entry per singleton (run id -1) and per live run's head:
        # (dist, node, run id).  The run id breaks head ties
        # deterministically and is never surfaced.
        self._heads: List[Tuple[float, int, int]] = []
        # run id -> [dists, nodes, cursor]; dists/nodes are plain lists so
        # the per-pop advance costs two C-level indexing ops, no numpy.
        self._runs: Dict[int, list] = {}
        self._next = 0
        self._len = 0
        self._max_runs = max_runs

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def push(self, dist: float, node: int) -> None:
        """Push a single pair."""
        heappush(self._heads, (dist, node, -1))
        self._len += 1

    def push_row(self, dists: np.ndarray, nodes: np.ndarray) -> bool:
        """Push a whole relaxed row of ``(dists[i], nodes[i])`` pairs.

        Returns:
            True when the row was stored as one sorted run (a bulk push),
            False when it went in as singletons (shorter than
            ``_MIN_RUN``, or empty).
        """
        m = dists.shape[0]
        if m < _MIN_RUN:
            heads = self._heads
            for d, n in zip(dists.tolist(), nodes.tolist()):
                heappush(heads, (d, n, -1))
            self._len += m
            return False
        order = np.lexsort((nodes, dists))
        dl = dists[order].tolist()
        nl = nodes[order].tolist()
        rid = self._next
        self._next = rid + 1
        self._runs[rid] = [dl, nl, 0]
        heappush(self._heads, (dl[0], nl[0], rid))
        self._len += m
        if len(self._runs) > self._max_runs:
            self._compact()
        return True

    def pop(self) -> Tuple[float, int]:
        """Pop the lexicographically smallest ``(dist, node)`` pair."""
        dist, node, rid = heappop(self._heads)
        if rid >= 0:
            run = self._runs[rid]
            cursor = run[2] + 1
            dl = run[0]
            if cursor < len(dl):
                run[2] = cursor
                heappush(self._heads, (dl[cursor], run[1][cursor], rid))
            else:
                del self._runs[rid]
        self._len -= 1
        return dist, node

    def near_top(self, cap: int) -> List[Tuple[float, int]]:
        """Stored pairs near the top, unordered: every singleton and run
        head, plus up to ``cap`` more entries from each run's front.

        Holds the ``cap`` smallest stored pairs (a run's entries past its
        first ``cap + 1`` are preceded by that many in the same run), so a
        caller can sort this to preview the next pops without popping.
        """
        out = [(d, v) for d, v, _rid in self._heads]
        for dl, nl, cursor in self._runs.values():
            end = min(cursor + 1 + cap, len(dl))
            out.extend(zip(dl[cursor + 1:end], nl[cursor + 1:end]))
        return out

    def _compact(self) -> None:
        """Merge every live run into one freshly sorted run.

        Singleton entries (rid ``-1``) live only in the head heap and stay
        there; each run's un-consumed tail — which includes its current
        head entry — moves into the merged run.
        """
        dl: List[float] = []
        nl: List[int] = []
        for dists, nodes, cursor in self._runs.values():
            dl.extend(dists[cursor:])
            nl.extend(nodes[cursor:])
        heads = [h for h in self._heads if h[2] == -1]
        da = np.asarray(dl, dtype=np.float64)
        na = np.asarray(nl, dtype=np.int64)
        order = np.lexsort((na, da))
        dl = da[order].tolist()
        nl = na[order].tolist()
        self._runs = {0: [dl, nl, 0]}
        self._next = 1
        if dl:
            heads.append((dl[0], nl[0], 0))
        heapify(heads)
        self._heads = heads
