"""The library's resumable, replayable best-first traversal over flat rows.

Every shortest-path consumer of the engines — the local visibility graph's
``dijkstra_order`` / ``shortest_distances`` (the ONN/range scans and the
joins), its ``aimed_traversal`` (IOR and CPLC) and the FULL baseline of
:mod:`repro.baselines.global_vg` — runs on :class:`ArrayTraversal`.
Underneath it is the textbook loop: a plain ``heapq`` frontier of
``(key, node)`` pairs and one vectorized relaxation per settled row.  The
key is ``d + h[node]`` for a per-node heuristic ``h``; with none (``h =
0``) the traversal is textbook Dijkstra, and with a consistent ``h`` (the
distance to the query segment, which is 1-Lipschitz) it is textbook A*,
aimed at the segment.  Three properties make it more than that:

* **Stoppable.**  A consumer passes its current limit each time it
  advances (:meth:`ArrayTraversal.advance`); the traversal settles
  nothing whose key reaches it and keeps every frontier entry, so a later
  consumer with a larger limit continues where this one stopped, and
  stopping then resuming settles exactly what one run settles.
* **Replayable.**  The settled prefix and its keys are recorded in order,
  so repeated traversals from the same source over an unchanged graph
  replay the memoized shortest-path tree for free.  Validity across graph
  mutations is the *owner's* responsibility: the visibility graph stamps
  each traversal with its mutation generation and discards mismatches.
* **Lazy rows.**  A settled node's row is read when the next node is
  asked for, not when it settles, so a consumer that stops at a settled
  target reads no row for it.  An owner may also cut a row in rings of
  key instead of whole (the visibility graph does so for transient nodes
  without a cached row, such as a data point under evaluation): each
  ring's outer key waits in the heap as a marker entry and cuts the next
  ring when it pops.  Either way the settle order is the one a whole-row
  read at settle time gives.

:func:`dijkstra_all` is the textbook eager ``heapq`` Dijkstra behind the
full-graph reference oracle of :mod:`repro.obstacles.obstructed`; it shares
no code with the traversal, so the oracle stays an independent check.
"""

from __future__ import annotations

import heapq
import math
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

ArrayAdjacency = Callable[[int], Tuple[np.ndarray, np.ndarray]]
"""Lazily supplied flat adjacency: node -> (neighbor ids, edge weights)."""

SettledEntry = Tuple[float, int, Optional[int]]
"""One settled node: ``(distance, node, shortest-path predecessor)``."""


class ArrayTraversal:
    """A single-source best-first expansion with a memoized settled prefix.

    Per-node state lives in preallocated numpy arrays, and a whole
    adjacency row is relaxed in one vectorized pass.  Relaxation uses a
    strict ``<`` and each neighbor appears at most once per row, so the
    vectorized compare-and-assign matches an element-wise loop exactly.
    The frontier is a plain ``heapq`` list of ``(key, node)`` pairs, so
    nodes settle in the order of a textbook binary-heap Dijkstra (no
    heuristic) or A* (with one), ties broken by node id.

    Args:
        rows: flat adjacency callback: node -> ``(indices, weights)``
            arrays, invoked once per settled node whose row is read whole.
        source: the source node.
        size: node-slot capacity to preallocate; the arrays grow on demand
            when the owning graph adds slots mid-traversal.
        alive: callback returning the owner's current alive mask, which
            covers every node id a row can hold; neighbors dead at
            relaxation time are not relaxed.
        aim: optional callback returning the heuristic ``h`` as an array
            covering the alive mask's slots (re-read when they grow).  A
            node's key is ``d + h[node]``; ``h`` must be consistent
            (``h[u] <= w(u, v) + h[v]``), so every node still settles at
            its exact distance with an exact predecessor.  ``keys`` then
            records each settled node's key, in settle order.
        ring: optional ring cutter ``ring(node, d, lo, view)`` ->
            ``(ids, weights, hi)``: the entries of ``node``'s row keyed in
            ``(lo, hi]``, ``hi`` at most ``view()`` (the limit a ring may
            reach) or ``inf`` for the ring that ends the row.  When a
            node's row is read, ``ring(node, d, -inf, view)`` returns
            ``None`` to have it read whole through ``rows``, or the first
            ring.  A finite ``hi`` waits in the heap
            as a marker entry ``(hi, -1 - node)`` and, when it pops below
            the consumer's limit, cuts the next ring.  A later ring's
            equal offer wins over a predecessor that settled after
            ``node``, as the whole row would have made it first.
        stamp: opaque validity token recorded for the owner.
        prefetch: optional hook ``prefetch(node, frontier, rings)`` invoked
            right before each settled node's row read (``rings`` tells
            whether this traversal has a ring cutter); ``frontier()``
            lazily yields the not-yet-settled frontier node ids below the
            current limit, nearest-first, so the owner can materialize
            adjacency rows (and the visibility cells to transient nodes)
            for the whole top of the heap in one batched pass.  Purely a materialization hint —
            the traversal's own state is untouched, so settle order,
            distances and predecessors are unchanged.
    """

    __slots__ = ("_rows", "_alive", "source", "dist", "pred", "settled",
                 "keys", "_frontier", "_done", "_rank", "_pending", "stamp",
                 "_lock", "_aim", "_heur", "_ring", "_prefetch", "_limit",
                 "_goals")

    def __init__(self, rows: ArrayAdjacency, source: int, size: int,
                 alive: Callable[[], np.ndarray],
                 aim: Optional[Callable[[], np.ndarray]] = None,
                 ring: Optional[Callable[..., Any]] = None,
                 stamp: Any = None,
                 prefetch: Optional[Callable[..., None]] = None):
        self._rows = rows
        self._alive = alive
        self._aim = aim
        self._ring = ring
        self._prefetch = prefetch
        n = max(size, source + 1)
        self._heur = None if aim is None else aim()
        self.source = source
        self.dist = np.full(n, np.inf, dtype=np.float64)
        self.dist[source] = 0.0
        self.pred = np.full(n, -1, dtype=np.int64)
        self._rank = None if ring is None else np.zeros(n, dtype=np.int64)
        self._pending: Optional[int] = None
        self.settled: List[SettledEntry] = []
        self.keys: List[float] = []
        key = 0.0 if self._heur is None else 0.0 + float(self._heur[source])
        self._frontier: List[Tuple[float, int]] = [(key, source)]
        self._done = np.zeros(n, dtype=bool)
        self._limit = math.inf
        self._goals: Tuple[int, ...] = ()
        self.stamp = stamp
        self._lock = threading.Lock()

    @property
    def exhausted(self) -> bool:
        """True when no frontier remains (every reachable node settled)."""
        return not self._frontier and self._pending is None

    def order(self, on_advance: Optional[Callable[[SettledEntry], None]]
              = None) -> Iterator[SettledEntry]:
        """Yield ``(dist, node, pred)`` in settle order: replay, then extend.

        Multiple iterators over one traversal are safe: each keeps its own
        replay cursor, and whichever reaches the frontier first extends the
        shared settled prefix for the others.

        Args:
            on_advance: invoked once per *freshly settled* node (replayed
                prefix entries excluded) — the owner's counter hook.
        """
        i = 0
        while True:
            if i < len(self.settled):
                yield self.settled[i]
                i += 1
            else:
                entry = self.advance()
                if entry is None:
                    # Another consumer may have settled the tail between
                    # our length check and the (locked) advance; drain the
                    # replay cursor before concluding exhaustion, or those
                    # entries would be silently dropped.
                    if i < len(self.settled):
                        continue
                    return
                if on_advance is not None:
                    on_advance(entry)

    def distances(self, targets: Iterable[int], limit: float = math.inf,
                  on_advance: Optional[Callable[[SettledEntry], None]]
                  = None) -> Dict[int, float]:
        """Distances to ``targets``, ``inf`` for any not settled below
        ``limit``: replays, then settles until every target is settled or
        the next key reaches ``limit``.  ``on_advance`` as in
        :meth:`order`.

        While it settles, the unsettled targets are the traversal's goals
        (see :meth:`_view`).
        """
        remaining = set(targets)
        out = {t: math.inf for t in remaining}
        settled, keys = self.settled, self.keys
        i = 0
        try:
            while remaining:
                if i < len(settled):
                    if keys[i] >= limit:
                        break
                    d, node, _pred = settled[i]
                    i += 1
                    if node in remaining:
                        out[node] = d
                        remaining.discard(node)
                else:
                    self._goals = tuple(remaining)
                    entry = self.advance(limit)
                    if entry is None:
                        if i < len(settled):
                            continue
                        break
                    if on_advance is not None:
                        on_advance(entry)
        finally:
            self._goals = ()
        return out

    def run_to_completion(self) -> None:
        """Settle every reachable node (the classic eager Dijkstra)."""
        while self.advance() is not None:
            pass

    def _grow(self, n: int) -> None:
        old = self.dist.size
        dist = np.full(n, np.inf, dtype=np.float64)
        dist[:old] = self.dist
        self.dist = dist
        pred = np.full(n, -1, dtype=np.int64)
        pred[:old] = self.pred
        self.pred = pred
        done = np.zeros(n, dtype=bool)
        done[:old] = self._done
        self._done = done
        if self._rank is not None:
            rank = np.zeros(n, dtype=np.int64)
            rank[:old] = self._rank
            self._rank = rank
        if self._aim is not None:
            self._heur = self._aim()

    def _view(self) -> float:
        """The limit prefetch and ring cuts see: the consumer's, lowered to
        just above the largest tentative key among the goals once they all
        have one (nothing keyed past it settles before they do)."""
        limit = self._limit
        if self._goals:
            dist, heur = self.dist, self._heur
            far = max(dist[t] if heur is None else dist[t] + heur[t]
                      for t in self._goals)
            limit = min(limit, math.nextafter(far, math.inf))
        return limit

    def _frontier_ids(self, cap: int = 64) -> List[int]:
        """Not-yet-settled frontier node ids below the limit, nearest first.

        The prefetch hook's view of the heap top: the heap's pairs keyed
        below the current limit, sorted by ``(key, node)``, settled nodes
        and ring markers dropped and deduplicated.  Advisory only — a
        stale entry (node already improved elsewhere) merely wastes a
        prefetch slot.  Called from inside :meth:`advance` (lock already
        held), so it must not lock.
        """
        done = self._done
        limit = self._view()
        cand = [(k, v) for k, v in self._frontier
                if k < limit and v >= 0 and not done[v]]
        cand.sort()
        out: List[int] = []
        seen = set()
        for _k, v in cand:
            if v not in seen:
                seen.add(v)
                out.append(v)
                if len(out) >= cap:
                    break
        return out

    def advance(self, limit: float = math.inf) -> Optional[SettledEntry]:
        """Settle and record the next node; ``None`` when exhausted or
        when the next key reaches ``limit`` (nothing is then settled, and
        a later call with a larger limit continues from here).

        Serialized by a per-traversal lock: a memoized traversal can be
        replayed-and-extended by several consumers (the settled prefix is
        the shared asset), and two threads racing the frontier would
        otherwise pop the heap and grow ``settled`` inconsistently.  The
        replay path of :meth:`order` stays lock-free — it only reads the
        append-only settled prefix (``keys`` is appended first).
        """
        with self._lock:
            self._limit = limit
            if self._pending is not None:
                # Read the row (or first ring) of the last settled node.
                node, self._pending = self._pending, None
                cut = None if self._ring is None else self._ring(
                    node, float(self.dist[node]), -math.inf, self._view)
                if self._prefetch is not None:
                    self._prefetch(node, self._frontier_ids,
                                   self._ring is not None)
                if cut is None:
                    idx, w = self._rows(node)
                    self._relax(node, idx, w, False)
                else:
                    self._take_ring(node, cut, False)
            frontier = self._frontier
            while frontier:
                key, node = frontier[0]
                if key >= limit:
                    return None
                heapq.heappop(frontier)
                if node < 0:
                    node = -1 - node
                    self._take_ring(node, self._ring(
                        node, float(self.dist[node]), key, self._view), True)
                    continue
                if self._done[node]:
                    continue
                self._done[node] = True
                p = self.pred[node]
                entry = (float(self.dist[node]), node,
                         None if p < 0 else int(p))
                if self._rank is not None:
                    self._rank[node] = len(self.settled)
                self.keys.append(key)
                self.settled.append(entry)
                self._pending = node
                return entry
            return None

    def _take_ring(self, node: int, cut: Tuple[np.ndarray, np.ndarray,
                                                float], late: bool) -> None:
        """Relax a ring of ``node`` and queue the marker of the next."""
        idx, w, hi = cut
        self._relax(node, idx, w, late)
        if hi < math.inf:
            heapq.heappush(self._frontier, (hi, -1 - node))

    def _relax(self, node: int, idx: np.ndarray, w: np.ndarray,
               late: bool) -> None:
        """Relax one row (or ring) of the settled ``node``; in a ``late``
        ring, an equal offer also wins over a predecessor that settled
        after ``node``."""
        mask = self._alive()
        if mask.size > self.dist.size:
            self._grow(mask.size)
        if not idx.size:
            return
        nd = self.dist[node] + w
        cur = self.dist[idx]
        improved = nd < cur
        if late:
            improved |= ((nd == cur)
                         & (self._rank[self.pred[idx]] > self._rank[node]))
        improved &= mask[idx]
        ii = idx[improved]
        if not ii.size:
            return
        vv = nd[improved]
        self.dist[ii] = vv
        self.pred[ii] = node
        if self._heur is not None:
            vv += self._heur[ii]  # the keys
        frontier = self._frontier
        for pair in zip(vv.tolist(), ii.tolist()):
            heapq.heappush(frontier, pair)


def dijkstra_all(adj: List[Mapping[int, float]], source: int
                 ) -> Tuple[List[float], List[int]]:
    """Eager single-source shortest paths over a dense adjacency list.

    The textbook ``heapq`` Dijkstra: returns ``(dist, pred)`` lists indexed
    by node, with ``inf`` / ``-1`` for unreachable nodes.
    """
    n = len(adj)
    dist = [math.inf] * n
    pred = [-1] * n
    done = [False] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u].items():
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred
