"""The library's resumable, replayable Dijkstra over flat adjacency rows.

Every shortest-path consumer of the engines — the local visibility graph's
``dijkstra_order`` (which CPLC, IOR and the ONN/range scans drive) and the
FULL baseline of :mod:`repro.baselines.global_vg` — runs on
:class:`ArrayTraversal`.  Underneath it is the textbook loop — a plain
``heapq`` frontier of ``(dist, node)`` pairs, one vectorized relaxation
per settled row — and two properties make it more than that:

* **Resumable.**  A consumer that stops early (an early-terminating
  ``shortest_distances``, Lemma 7's CPLC cutoff) leaves the heap and
  tentative distances intact; the next consumer continues expanding from
  the frontier instead of restarting.
* **Replayable.**  The settled prefix is recorded in order, so repeated
  traversals from the same source over an unchanged graph replay the
  memoized shortest-path tree for free.  Validity across graph mutations
  is the *owner's* responsibility: the visibility graph stamps each
  traversal with its mutation generation and discards mismatches.

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
    The frontier is a plain ``heapq`` list of ``(dist, node)`` pairs, so
    nodes settle in the order of a textbook binary-heap Dijkstra, ties
    broken by node id.

    Args:
        rows: flat adjacency callback: node -> ``(indices, weights)``
            arrays, invoked once per settled node.
        source: the source node.
        size: node-slot capacity to preallocate; the arrays grow on demand
            when the owning graph adds slots mid-traversal.
        alive: callback returning the owner's current alive mask, which
            covers every node id a row can hold; neighbors dead at
            relaxation time are not relaxed.
        prune_bound: with ``heur``, goal-directed relaxation pruning,
            applied when a relaxation would happen: an edge whose tentative
            distance lands at or past the bound, ``(dist + w) + heur[nbr]
            >= prune_bound``, is neither recorded nor pushed, so nodes
            beyond the bound are not settled.  (The source is never
            pushed: when ``heur[source] >= prune_bound`` it settles,
            records its entry and relaxes nothing.)  ``heur`` must be an
            admissible, 1-Lipschitz per-node lower bound on the remaining
            distance to the goal the caller cares about (a node id it does
            not cover counts as 0).  The safe set ``dist + heur <
            prune_bound`` is then prefix-closed along shortest paths
            (triangle inequality), so every node in it keeps its exact
            Dijkstra distance, predecessor and settled position; callers
            must still treat any ``dist + heur >= prune_bound`` entry as
            "beyond the bound" (a memoized traversal may serve a smaller
            bound than its own).  A bounded traversal also tells the owner how far
            a row needs to reach: it reads ``rows(node, reach)`` with
            ``reach = prune_bound - dist``, and the owner may leave out any
            entry whose ``w + h(nbr) > reach`` for an admissible,
            1-Lipschitz ``h`` (such an edge would be pruned anyway, and no
            safe node's shortest path uses it).  Unbounded traversals read
            ``rows(node)``.
        stamp: opaque validity token recorded for the owner.
        prefetch: optional hook ``prefetch(node, frontier)`` invoked right
            before each settled node's row read (``prefetch(node, frontier,
            reach)`` in a bounded traversal); ``frontier()`` lazily yields
            the not-yet-settled frontier node ids nearest-first, so the
            owner can materialize adjacency rows (and the visibility cells
            to transient nodes) for the whole top of the heap in one
            batched pass.  Purely a materialization hint — the traversal's
            own state is untouched, so settle order, distances and
            predecessors are unchanged.
        on_prune: optional hook ``on_prune(count)`` invoked after each row
            with the number of improving relaxations the bound declined
            (only when nonzero) — the owner's ``relaxations_pruned``
            counter.
    """

    __slots__ = ("_rows", "_alive", "source", "dist", "pred", "settled",
                 "_frontier", "_done", "stamp", "_lock", "prune_bound",
                 "_heur", "_prefetch", "_on_prune")

    def __init__(self, rows: ArrayAdjacency, source: int, size: int,
                 alive: Callable[[], np.ndarray],
                 prune_bound: float = math.inf,
                 heur: Optional[np.ndarray] = None,
                 stamp: Any = None,
                 prefetch: Optional[Callable[..., None]] = None,
                 on_prune: Optional[Callable[[int], None]] = None):
        self._rows = rows
        self._alive = alive
        self._prefetch = prefetch
        self._on_prune = on_prune
        self.prune_bound = prune_bound
        n = max(size, source + 1)
        # The heuristic covers every slot the state arrays do (zeros past
        # the caller's array), so the relax gathers it without a guard.
        self._heur = (_covering(heur, n)
                      if heur is not None and prune_bound < math.inf
                      else None)
        self.source = source
        self.dist = np.full(n, np.inf, dtype=np.float64)
        self.dist[source] = 0.0
        self.pred = np.full(n, -1, dtype=np.int64)
        self.settled: List[SettledEntry] = []
        self._frontier: List[Tuple[float, int]] = [(0.0, source)]
        self._done = np.zeros(n, dtype=bool)
        self.stamp = stamp
        self._lock = threading.Lock()

    @property
    def exhausted(self) -> bool:
        """True when no frontier remains (every reachable node settled)."""
        return not self._frontier

    def order(self, on_advance: Optional[Callable[[SettledEntry], None]]
              = None) -> Iterator[SettledEntry]:
        """Yield ``(dist, node, pred)`` ascending: replay, then extend.

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
        if self._heur is not None:
            self._heur = _covering(self._heur, n)

    def _frontier_ids(self, cap: int = 64) -> List[int]:
        """Not-yet-settled frontier node ids, nearest (tentative) first.

        The prefetch hook's view of the heap top: the heap's pairs sorted
        by ``(dist, node)``, settled nodes dropped and deduplicated.
        Advisory only — a stale entry (node already improved elsewhere)
        merely wastes a prefetch slot.  Called from inside :meth:`advance`
        (lock already held), so it must not lock.
        """
        done = self._done
        cand = [(d, v) for d, v in self._frontier if not done[v]]
        cand.sort()
        out: List[int] = []
        seen = set()
        for _d, v in cand:
            if v not in seen:
                seen.add(v)
                out.append(v)
                if len(out) >= cap:
                    break
        return out

    def advance(self) -> Optional[SettledEntry]:
        """Settle and record the next node; ``None`` when exhausted.

        Serialized by a per-traversal lock: a memoized traversal can be
        replayed-and-extended by several consumers (the settled prefix is
        the shared asset), and two threads racing the frontier would
        otherwise pop the heap and grow ``settled`` inconsistently.  The
        replay path of :meth:`order` stays lock-free — it only reads the
        append-only settled prefix.
        """
        with self._lock:
            frontier = self._frontier
            while frontier:
                d, node = heapq.heappop(frontier)
                if self._done[node]:
                    continue
                self._done[node] = True
                p = self.pred[node]
                entry = (d, node, None if p < 0 else int(p))
                self.settled.append(entry)
                if self._heur is None:
                    if self._prefetch is not None:
                        self._prefetch(node, self._frontier_ids)
                    idx, w = self._rows(node)
                else:
                    bound = self.prune_bound
                    if d + self._heur[node] >= bound:
                        return entry
                    reach = bound - d
                    if self._prefetch is not None:
                        self._prefetch(node, self._frontier_ids, reach)
                    idx, w = self._rows(node, reach)
                mask = self._alive()
                if mask.size > self.dist.size:
                    self._grow(mask.size)
                if not idx.size:
                    return entry
                nd = d + w
                improved = nd < self.dist[idx]
                improved &= mask[idx]
                ii = idx[improved]
                vv = nd[improved]
                if self._heur is not None and ii.size:
                    keep = vv + self._heur[ii] < bound
                    kept = int(np.count_nonzero(keep))
                    if kept < ii.size:
                        if self._on_prune is not None:
                            self._on_prune(ii.size - kept)
                        ii = ii[keep]
                        vv = vv[keep]
                if ii.size:
                    self.dist[ii] = vv
                    self.pred[ii] = node
                    for pair in zip(vv.tolist(), ii.tolist()):
                        heapq.heappush(frontier, pair)
                return entry
            return None


def _covering(heur: np.ndarray, n: int) -> np.ndarray:
    """``heur`` zero-padded to at least ``n`` slots (0 is admissible)."""
    if heur.size >= n:
        return heur
    out = np.zeros(n, dtype=np.float64)
    out[:heur.size] = heur
    return out


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
