"""The local visibility graph (Sections 1 and 4.1 of the paper).

Rather than materializing the global visibility graph over all obstacles
(``O(n^2)`` space, poor scalability — the paper's "FULL" yardstick), CONN
processing grows a *local* graph containing only the query segment endpoints,
the data point currently under evaluation, and the vertices of the obstacles
retrieved so far by IOR.

Two design points keep it fast at benchmark scale:

* **Lazy adjacency rows.**  The sight-line edges of a node are computed only
  when Dijkstra first settles it, with one vectorized pass over all nodes and
  all retrieved obstacles, and are then cached for every later traversal
  (the obstacle skeleton is shared by all evaluated data points).  Most
  obstacle vertices are never settled by any traversal, so most of the
  ``O(|VG|^2)`` edge work never happens.
* **Incremental repair.**  When IOR inserts obstacles, cached rows are
  repaired in place: entries blocked by the new obstacles are dropped (one
  vectorized test per batch) and sight lines to the new vertices are added
  (one pairwise kernel per batch).  Rows hold permanent nodes only; edges to
  transient data points are appended at read time from per-transient
  visibility cells, so binding and removing a point never touches a row.

The graph also caches each node's visible region ``VR_{v,q}`` with an
obstacle watermark, so a cached region is lazily narrowed by exactly the
shadows of obstacles added since it was computed.  A region miss fills
the shadows of every missing or stale region at once when they fit one
kernel tile (a *region wave*, see :meth:`visible_region_of`).

Traversals run on the library-wide resumable Dijkstra
(:class:`repro.routing.dijkstra.ArrayTraversal`) and are memoized per source:
a repeated ``dijkstra_order`` / ``shortest_path`` / ``shortest_distances``
call over an unchanged graph replays the settled shortest-path tree and
resumes the frontier instead of restarting from scratch.  Any mutation
(node added, obstacle inserted, transient point removed) bumps the graph's
generation and lazily invalidates the memo.

A graph may also be built *unanchored* (``qseg=None``): no endpoint nodes
exist until :meth:`bind` attaches a query segment's endpoints as transient
nodes, and :meth:`unbind` detaches them again.  This is the mode the
workspace-shared backend of :mod:`repro.routing` uses to keep one obstacle
skeleton alive across many queries.
"""

from __future__ import annotations

import math
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from ..geometry.interval import IntervalSet
from ..geometry.point import Point
from ..geometry.predicates import EPS
from ..geometry.segment import Segment
from ..geometry.vectorized import (
    BATCH_TILE_ELEMS,
    blocked_batch,
    primitive_bounds,
    primitive_kinds,
)
from ..routing.dijkstra import ArrayTraversal
from ..routing.stats import BackendStats
from .obstacle import Obstacle, ObstacleSet
from .shadow import shadow_gaps, viewpoint_shadows

_MAX_TRAVERSAL_MEMO = 64
"""Memoized shortest-path trees kept per graph (oldest dropped first)."""

FRONTIER_WAVE = 16
"""Frontier-wave width: when a traversal settles a node whose row is
missing, the rows of up to this many nodes (it and the nearest frontier
nodes) materialize in one batched pass; see
:meth:`LocalVisibilityGraph._prefetch_rows`.  Row content and settle order
do not depend on it, only the number of kernel launches does."""

_REACH_SLACK = 1e-9
"""Relative slack of :meth:`LocalVisibilityGraph._reach_row`'s ``np.hypot``
prefilter, far above the ulp it has to cover; the exact filter follows."""

# States of a (slot, transient) visibility cell, and their bytes: hot
# reads test a row of cells as ``bytes``, which is several times cheaper
# than a numpy reduction over a handful of elements.
_CELL_UNKNOWN = 0
_CELL_VISIBLE = 1
_CELL_BLOCKED = 2
_UNKNOWN_BYTE = bytes([_CELL_UNKNOWN])
_VISIBLE_BYTE = bytes([_CELL_VISIBLE])


def _segment_hits_box(vx: float, vy: float, tx, ty,
                      xlo: float, ylo: float, xhi: float, yhi: float):
    """Slab clip: do segments ``(vx, vy) -> (tx[i], ty[i])`` cross the box?

    ``tx`` / ``ty`` broadcast (arrays or scalars); returns a boolean of
    their shape.  Used by removal repair to keep only absent pairs the
    removed obstacle could actually have been blocking: a blocking
    decision implies the sight segment runs through the obstacle, hence
    through its mbr — and the box arrives pre-padded by the kernel
    tolerance bound, which also dominates this clip's own rounding.  Zero
    direction components are replaced by a denormal so the slab division
    yields correctly signed infinities instead of NaNs.
    """
    dx = tx - vx
    dy = ty - vy
    dxs = np.where(dx == 0.0, 1e-300, dx)
    dys = np.where(dy == 0.0, 1e-300, dy)
    t1 = (xlo - vx) / dxs
    t2 = (xhi - vx) / dxs
    u1 = (ylo - vy) / dys
    u2 = (yhi - vy) / dys
    lo = np.maximum(np.minimum(t1, t2), np.minimum(u1, u2))
    hi = np.minimum(np.maximum(t1, t2), np.maximum(u1, u2))
    return np.maximum(lo, 0.0) <= np.minimum(hi, 1.0)


class LocalVisibilityGraph:
    """An incrementally grown visibility graph tied to one query segment.

    Args:
        qseg: the query segment the graph is anchored to, or ``None`` for
            an unanchored skeleton that queries :meth:`bind` to later.
        obstacles: optional already-retrieved obstacle skeleton to seed the
            graph with (e.g. from a :class:`~repro.service.ObstacleCache`);
            equivalent to calling :meth:`add_obstacles` right after
            construction.

    Adjacency is stored as flat CSR-style arrays — one pooled
    ``indices``/``weights`` slab plus a per-node span map — cut by the
    batched visibility kernels and traversed by
    :class:`~repro.routing.dijkstra.ArrayTraversal`.
    """

    def __init__(self, qseg: Optional[Segment] = None,
                 obstacles: Optional[Iterable[Obstacle]] = None):
        self.qseg = qseg
        self.obstacles = ObstacleSet()
        self._obstacle_keys: Set[Obstacle] = set()
        # obstacle -> the node ids its vertices registered as, so removal
        # repair can delete exactly that obstacle's own nodes.
        self._obstacle_nodes: Dict[Obstacle, List[int]] = {}
        self._xy: List[Tuple[float, float]] = []
        self._alive: List[bool] = []
        self._transient: List[bool] = []
        # Each cached row's staleness watermark (rect rows, seg rows,
        # polys, permanent nodes); see _row_mark.
        self._row_marks: Dict[int, Tuple[int, int, int, int]] = {}
        # Epoch stamps backing the O(1) staleness checks of the hot paths:
        # _struct_epoch advances on every structural insertion (obstacles,
        # permanent nodes) and never on transient bind/unbind churn, so a
        # row or visible region whose recorded epoch matches is current
        # without rebuilding and comparing count tuples.
        self._struct_epoch = 0
        self._row_epochs: Dict[int, int] = {}
        # Adjacency rows as spans into one pooled flat slab — *permanent*
        # targets only.  A row's entries sit at
        # _indices[s:e] / _weights[s:e] with (s, e) = _indptr[node];
        # shrinks happen in place, growth relocates the row to the end of
        # the pool (compact() repacks).  Edges to the short-lived transient
        # nodes never enter the slab: they are appended at read time from
        # the transient visibility cells below, so binding a query's
        # endpoints/data point does not invalidate a single cached row.
        self._indices = np.empty(0, dtype=np.int64)
        self._weights = np.empty(0, dtype=np.float64)
        self._pool_used = 0
        self._indptr: Dict[int, Tuple[int, int]] = {}
        # Permanent-node slot ids in insertion order: the row watermark
        # counts these (transients never invalidate rows).
        self._perm_ids: List[int] = []
        # Currently-bound transient slot ids in binding order, and the
        # same ids as an array (what row reads append).
        self._live_transients: List[int] = []
        self._tids = np.empty(0, dtype=np.int64)
        # Numpy mirrors of _xy/_alive/_transient (capacity-doubling, first
        # len(_xy) entries valid) feeding the batch kernels.
        self._coords_np = np.empty((16, 2), dtype=np.float64)
        self._alive_np = np.zeros(16, dtype=bool)
        self._transient_np = np.zeros(16, dtype=bool)
        # (slot, transient) visibility cells, filled only
        # when a row read asks for them (see _fill_cells).  Column j
        # belongs to _live_transients[j]; rows follow the mirrors'
        # capacity.  A cell is _CELL_UNKNOWN until filled, then
        # _CELL_VISIBLE (weight in _cell_w) or _CELL_BLOCKED; a
        # transient's own cell is blocked from the start.  Cells hold
        # for the obstacle watermark _cell_omark, checked whenever the
        # struct epoch moved past _cell_epoch.
        self._cell_state = np.zeros((16, 4), dtype=np.int8)
        self._cell_w = np.zeros((16, 4), dtype=np.float64)
        self._cell_omark = (0, 0, 0)
        self._cell_epoch = 0
        # node -> (visible region as of its last read, (rect rows, seg
        # rows, polys) watermark, struct epoch at which that watermark was
        # recorded, shadows filled since the last read or None); see
        # visible_region_of.
        self._vr_cache: Dict[int, tuple] = {}
        # Per-node Euclidean distance to the bound query segment, the
        # admissible heuristic behind bounded-traversal pruning.  Lazily
        # extended as nodes appear; reset when the anchor segment changes
        # (identity check) or coordinates are remapped by compact().
        self._h_np = np.empty(0, dtype=np.float64)
        self._h_len = 0
        self._h_qseg: Optional[Segment] = None
        # Work counters since the block was last taken: whoever needs a
        # share (a backend session, a maintenance step) swaps in a fresh
        # block and keeps the old one.
        self.work = BackendStats()
        # (rect, seg, polygon rows) watermark -> primitive-bounds slabs for
        # the batch kernel's bbox prefilter; obstacle arrays are append-only
        # (removal drops the cache), so the counts key validity.
        self._bounds_cache: Optional[Tuple[Tuple[int, int, int],
                                           Tuple[np.ndarray, ...]]] = None
        self._generation = 0
        self._traversals: Dict[int, ArrayTraversal] = {}
        self.S = -1
        self.E = -1
        if qseg is not None:
            self.S = self._new_node(qseg.ax, qseg.ay, transient=False)
            self.E = self._new_node(qseg.bx, qseg.by, transient=False)
        if obstacles is not None:
            self.add_obstacles(obstacles)

    # -------------------------------------------------------------- binding
    def bind(self, qseg: Segment) -> None:
        """Anchor an unanchored graph to one query segment.

        The endpoints enter as *transient* nodes, so a workspace-shared
        skeleton serves a sequence of queries by bind/unbind pairs without
        accumulating permanent per-query state.  Cached visible regions are
        dropped (they are relative to the previous anchor).
        """
        if self.qseg is not None:
            raise RuntimeError("graph is already bound to a query segment; "
                               "unbind() first")
        self.qseg = qseg
        self._vr_cache.clear()
        self.S = self.add_point(qseg.ax, qseg.ay)
        self.E = self.add_point(qseg.bx, qseg.by)

    def unbind(self) -> None:
        """Detach the endpoints attached by :meth:`bind`."""
        if self.qseg is None:
            raise RuntimeError("graph is not bound")
        if not self._transient[self.S]:
            raise RuntimeError("graph was anchored at construction; only "
                               "bind()-attached endpoints can be detached")
        self.remove_point(self.E)
        self.remove_point(self.S)
        self.S = self.E = -1
        self.qseg = None
        self._vr_cache.clear()

    # ---------------------------------------------------------------- nodes
    def _new_node(self, x: float, y: float, transient: bool) -> int:
        node = len(self._xy)
        self._xy.append((x, y))
        self._alive.append(True)
        self._transient.append(transient)
        if not transient:
            self._perm_ids.append(node)
            self._struct_epoch += 1
        if node >= self._alive_np.size:
            self._grow_mirrors(2 * self._alive_np.size)
        self._coords_np[node, 0] = x
        self._coords_np[node, 1] = y
        self._alive_np[node] = True
        self._transient_np[node] = transient
        if transient:
            self._bind_cells(node)
        self._generation += 1
        return node

    def _grow_mirrors(self, cap: int) -> None:
        coords = np.empty((cap, 2), dtype=np.float64)
        coords[:self._coords_np.shape[0]] = self._coords_np
        self._coords_np = coords
        alive = np.zeros(cap, dtype=bool)
        alive[:self._alive_np.size] = self._alive_np
        self._alive_np = alive
        transient = np.zeros(cap, dtype=bool)
        transient[:self._transient_np.size] = self._transient_np
        self._transient_np = transient
        rows, cols = self._cell_state.shape
        state = np.zeros((cap, cols), dtype=np.int8)
        state[:rows] = self._cell_state
        self._cell_state = state
        cw = np.zeros((cap, cols), dtype=np.float64)
        cw[:rows] = self._cell_w
        self._cell_w = cw

    def _rebuild_mirrors(self) -> None:
        """Rebuild the numpy mirrors from the lists; cells start over."""
        n = len(self._xy)
        cap = max(16, n)
        self._coords_np = np.empty((cap, 2), dtype=np.float64)
        if n:
            self._coords_np[:n] = np.asarray(self._xy, dtype=np.float64)
        self._alive_np = np.zeros(cap, dtype=bool)
        self._alive_np[:n] = self._alive
        self._transient_np = np.zeros(cap, dtype=bool)
        self._transient_np[:n] = self._transient
        cols = max(4, len(self._live_transients))
        self._cell_state = np.zeros((cap, cols), dtype=np.int8)
        self._cell_w = np.zeros((cap, cols), dtype=np.float64)
        self._tids = np.asarray(self._live_transients, dtype=np.int64)
        self._reset_cells()

    # ------------------------------------------------------ transient cells
    def _bind_cells(self, node: int) -> None:
        """Give a new transient an all-unknown column (own cell blocked)."""
        j = len(self._live_transients)
        self._live_transients.append(node)
        self._tids = np.asarray(self._live_transients, dtype=np.int64)
        rows, cols = self._cell_state.shape
        if j >= cols:
            state = np.zeros((rows, 2 * cols), dtype=np.int8)
            state[:, :cols] = self._cell_state
            self._cell_state = state
            cw = np.zeros((rows, 2 * cols), dtype=np.float64)
            cw[:, :cols] = self._cell_w
            self._cell_w = cw
        self._cell_state[:, j] = _CELL_UNKNOWN
        self._cell_state[node, j] = _CELL_BLOCKED

    def _unbind_cells(self, node: int) -> None:
        """Drop a removed transient's column, shifting later ones left."""
        try:
            j = self._live_transients.index(node)
        except ValueError:
            return
        del self._live_transients[j]
        t = len(self._live_transients)
        self._tids = np.asarray(self._live_transients, dtype=np.int64)
        self._cell_state[:, j:t] = self._cell_state[:, j + 1:t + 1]
        self._cell_w[:, j:t] = self._cell_w[:, j + 1:t + 1]

    def _reset_cells(self) -> None:
        """Forget every filled cell (the obstacle set changed)."""
        t = len(self._live_transients)
        self._cell_state[:, :t] = _CELL_UNKNOWN
        self._cell_state[self._tids, np.arange(t)] = _CELL_BLOCKED
        self._cell_omark = (self.obstacles.rects.shape[0],
                            self.obstacles.segs.shape[0],
                            len(self.obstacles.polys))
        self._cell_epoch = self._struct_epoch

    def _sync_cells(self) -> None:
        """Drop the cells if obstacles arrived since they were filled."""
        if self._cell_epoch != self._struct_epoch:
            omark = (self.obstacles.rects.shape[0],
                     self.obstacles.segs.shape[0],
                     len(self.obstacles.polys))
            if omark != self._cell_omark:
                self._reset_cells()
            self._cell_epoch = self._struct_epoch

    def _fill_cells(self, rows: Iterable[int]) -> None:
        """Decide the unknown cells of ``rows`` in one batched launch.

        When all unknown cells of the alive slots fit in one kernel tile
        (cells x primitives <= ``BATCH_TILE_ELEMS``), they all fill at
        once instead.  A graph whose traversals already cover most slots
        then pays one launch per new transient, like cutting its whole
        column, while a large graph read a few rows at a time fills only
        what its traversals reach.  Sight lines run from the row owner v
        to the transient t and weights go through
        ``math.hypot(vx - tx, vy - ty)``, exactly like a materialized row,
        so a cell is bit-identical to the edge a full row would hold.
        """
        t = len(self._live_transients)
        n = len(self._xy)
        alive = self._alive_np[:n]
        prims = self._prims_now()
        unknown = self._cell_state[:n, :t] == _CELL_UNKNOWN
        unknown &= alive[:, None]
        if np.count_nonzero(unknown) * prims <= BATCH_TILE_ELEMS:
            src, ji = np.nonzero(unknown)
        else:
            ids = np.fromiter(rows, dtype=np.int64)
            ri, ji = np.nonzero(unknown[ids])
            src = ids[ri]
        if not src.size:
            return
        tgt = self._tids[ji]
        tally: dict = {}
        blocked = blocked_batch(self._coords_np[src], self._coords_np[tgt],
                                self.obstacles.rects, self.obstacles.segs,
                                self.obstacles.poly_slab,
                                bounds=self._prim_bounds(), tally=tally)
        self._count_batch(src.size, prims, tally)
        self._cell_state[src, ji] = np.where(blocked, _CELL_BLOCKED,
                                             _CELL_VISIBLE)
        vis = ~blocked
        src, ji, tgt = src[vis], ji[vis], tgt[vis]
        hypot = math.hypot
        xy = self._xy
        w = np.empty(src.size, dtype=np.float64)
        for k, (v, u) in enumerate(zip(src.tolist(), tgt.tolist())):
            vx, vy = xy[v]
            tx, ty = xy[u]
            w[k] = hypot(vx - tx, vy - ty)
        self._cell_w[src, ji] = w

    def _alive_view(self) -> np.ndarray:
        """The current alive mask (dead neighbors are never relaxed)."""
        return self._alive_np[:len(self._xy)]

    def _alive_ids(self) -> List[int]:
        return [i for i in range(len(self._xy)) if self._alive[i]]

    def node_point(self, node: int) -> Point:
        x, y = self._xy[node]
        return Point(x, y)

    def add_point(self, x: float, y: float) -> int:
        """Add a transient data point; pair with :meth:`remove_point`.

        No edges are computed here: the point's own row materializes when a
        traversal first settles it, and other rows pick the point up through
        their node watermarks on next access.
        """
        return self._new_node(x, y, transient=True)

    def remove_point(self, node: int) -> None:
        """Remove a transient node added by :meth:`add_point`."""
        if not self._transient[node]:
            raise ValueError(f"node {node} is not transient")
        # Slab rows never hold transient targets, so only the node's own
        # row and its cell column go.
        self._indptr.pop(node, None)
        self._row_marks.pop(node, None)
        self._row_epochs.pop(node, None)
        self._unbind_cells(node)
        self._alive[node] = False
        self._alive_np[node] = False
        self._vr_cache.pop(node, None)
        self._generation += 1

    @property
    def num_nodes(self) -> int:
        """Alive node count (S, E, obstacle vertices, transient points)."""
        return sum(self._alive)

    @property
    def dead_slots(self) -> int:
        """Node slots held by removed transient nodes (compaction candidates)."""
        return len(self._xy) - sum(self._alive)

    def compact(self) -> int:
        """Reclaim dead node slots, remapping live node ids.

        Transient removal (:meth:`remove_point`, :meth:`unbind`) leaves
        dead append-only slots behind; a long-lived shared graph serving
        thousands of queries would otherwise grow without bound and scan
        the dead history on every fresh adjacency row.  Compaction remaps
        the alive nodes onto a dense prefix while *keeping every cached
        adjacency row* — the expensive pairwise sight-line tests survive;
        only traversal memos and visible-region caches are dropped.

        Caller contract: all node ids held outside the graph (session
        endpoints, transient data points) are invalidated — only call
        between queries, with no transient nodes attached.

        Returns:
            Number of slots reclaimed (0 when already dense).
        """
        dead = self.dead_slots
        if dead == 0:
            return 0
        old_len = len(self._xy)
        remap: Dict[int, int] = {}
        alive_ids: List[int] = []
        for i, alive in enumerate(self._alive):
            if alive:
                remap[i] = len(alive_ids)
                alive_ids.append(i)
        self._xy = [self._xy[i] for i in alive_ids]
        self._alive = [True] * len(alive_ids)
        self._transient = [self._transient[i] for i in alive_ids]
        # Row marks count permanent insertions, which compaction never
        # removes — only the row's key needs remapping.
        self._row_marks = {remap[v]: m for v, m in self._row_marks.items()}
        self._row_epochs = {remap[v]: e
                            for v, e in self._row_epochs.items()}
        self._perm_ids = [remap[i] for i in self._perm_ids]
        self._live_transients = [remap[t] for t in self._live_transients
                                 if t in remap]
        # Repack the flat slab densely in one pass: rows only reference
        # alive permanent nodes, so the vectorized id remap is total.
        if self._indptr:
            remap_np = np.full(old_len, -1, dtype=np.int64)
            remap_np[np.asarray(alive_ids, dtype=np.int64)] = \
                np.arange(len(alive_ids), dtype=np.int64)
            total = sum(e - s for s, e in self._indptr.values())
            new_idx = np.empty(total, dtype=np.int64)
            new_w = np.empty(total, dtype=np.float64)
            new_ptr: Dict[int, Tuple[int, int]] = {}
            pos = 0
            for v, (s, e) in self._indptr.items():
                k = e - s
                new_idx[pos:pos + k] = remap_np[self._indices[s:e]]
                new_w[pos:pos + k] = self._weights[s:e]
                new_ptr[remap[v]] = (pos, pos + k)
                pos += k
            self._indices, self._weights = new_idx, new_w
            self._pool_used = pos
            self._indptr = new_ptr
        else:
            self._indices = np.empty(0, dtype=np.int64)
            self._weights = np.empty(0, dtype=np.float64)
            self._pool_used = 0
        self._obstacle_nodes = {o: [remap[i] for i in ids]
                                for o, ids in self._obstacle_nodes.items()}
        if self.S >= 0:
            self.S = remap[self.S]
            self.E = remap[self.E]
        self._vr_cache.clear()
        self._traversals.clear()
        self._h_len = 0  # node ids moved; heuristic values recompute lazily
        self._rebuild_mirrors()
        self._generation += 1
        return dead

    @property
    def svg_size(self) -> int:
        """|SVG|: vertices of the local visibility graph (paper's metric)."""
        return sum(1 for a, t in zip(self._alive, self._transient) if a and not t)

    def clone_skeleton(self) -> "LocalVisibilityGraph":
        """Replicate this graph's obstacle skeleton into a fresh graph.

        The clone carries the obstacles, the node table, *and every cached
        adjacency row* — the expensive pairwise sight-line tests — but none
        of the per-anchor state (visible-region caches, traversal memos,
        endpoint binding).  This is how the shared routing backend
        pre-provisions per-worker graphs for a parallel batch: each worker
        binds its own endpoints to its own clone and traverses without
        ever touching another worker's graph.

        Caller contract: the graph must be unbound (no query endpoints
        attached); the source is compacted first, so node ids held outside
        the graph are invalidated exactly as :meth:`compact` documents.
        """
        if self.qseg is not None:
            raise RuntimeError("clone_skeleton needs an unbound graph; "
                               "unbind() first")
        self.compact()
        clone = LocalVisibilityGraph()
        clone.obstacles = ObstacleSet(self.obstacles)
        clone._obstacle_keys = set(self._obstacle_keys)
        clone._obstacle_nodes = {o: list(ids)
                                 for o, ids in self._obstacle_nodes.items()}
        clone._xy = list(self._xy)
        clone._alive = list(self._alive)
        clone._transient = list(self._transient)
        clone._indices = self._indices[:self._pool_used].copy()
        clone._weights = self._weights[:self._pool_used].copy()
        clone._pool_used = self._pool_used
        clone._indptr = dict(self._indptr)
        clone._row_marks = dict(self._row_marks)
        clone._row_epochs = dict(self._row_epochs)
        clone._struct_epoch = self._struct_epoch
        clone._perm_ids = list(self._perm_ids)
        clone._live_transients = list(self._live_transients)
        clone._rebuild_mirrors()
        return clone

    # ------------------------------------------------------------ obstacles
    def add_obstacles(self, batch: Iterable[Obstacle]) -> int:
        """Insert obstacles and register their vertices as graph nodes.

        Cached adjacency rows are *not* repaired here; each row repairs
        itself lazily on next access (see :meth:`neighbors`), so obstacle
        insertion costs nothing for the (typically large) majority of rows
        no later traversal touches again.

        Obstacles already present are skipped, so caching layers may re-offer
        a mixed batch freely without double-inserting vertices.

        Returns:
            Number of obstacles actually inserted (duplicates excluded).
        """
        batch = [o for o in batch if o not in self._obstacle_keys]
        if not batch:
            return 0
        self._obstacle_keys.update(batch)
        self.obstacles.add_many(batch)
        self._struct_epoch += 1
        for o in batch:
            self._obstacle_nodes[o] = [
                self._new_node(vx, vy, transient=False)
                for vx, vy in o.vertices()]
        return len(batch)

    def remove_obstacle(self, obstacle: Obstacle) -> Optional[int]:
        """Surgically delete ``obstacle``, repairing cached state in place.

        Removal only *adds* visibility: a cached row entry was visible
        despite the obstacle, so it stays visible without it — nothing
        currently cached becomes wrong.  The only repair needed is
        re-opening sight lines the obstacle alone was blocking, and every
        such absent pair's segment must overlap the obstacle's bbox padded
        by the kernels' tolerance bound (a blocking decision implies a
        crossing point on the segment inside the padded box — the same
        bound the batch kernel's bbox prefilter relies on).  So the repair

        1. brings stale cached rows current (obstacle counts are still
           monotone until the deletion lands),
        2. deletes the obstacle's own vertices (their rows die with
           them) and scrubs them from surviving rows,
        3. re-tests, in one batched launch, exactly the absent
           (row, candidate) pairs whose sight segment's bbox overlaps the
           removed obstacle's padded bbox, appending the newly visible
           ones, and
        4. normalizes every surviving row's watermark to the post-removal
           counts (removal breaks count monotonicity; normalization
           restores it for everything cached).

        Count-keyed side caches that cannot be normalized in place
        (visible regions — lazy narrowing cannot widen — transient
        visibility cells, primitive bounds) are dropped and recompute
        lazily.  Memoized traversals survive when the repair re-opened
        nothing and they never reached a deleted node; everything else
        invalidates via the generation bump.

        Returns:
            The number of absent pairs re-tested, or ``None`` when the
            obstacle is not resident (nothing referenced it; the graph is
            already correct without repair).
        """
        if obstacle not in self._obstacle_keys:
            return None
        # (1) Stale rows must repair against the *pre-removal* obstacle
        # arrays: their recorded counts index into those arrays.
        self._refresh_rows_bulk(self._indptr)
        mbr = obstacle.mbr()
        removed = self._obstacle_nodes.pop(obstacle, [])
        removed_set = set(removed)
        self._obstacle_keys.discard(obstacle)
        self.obstacles.remove(obstacle)
        # (2) The obstacle's own nodes die; their cached state goes with
        # them.
        for nid in removed:
            self._alive[nid] = False
            self._alive_np[nid] = False
            self._indptr.pop(nid, None)
            self._row_marks.pop(nid, None)
            self._row_epochs.pop(nid, None)
            self._traversals.pop(nid, None)
        if removed_set:
            self._perm_ids = [i for i in self._perm_ids
                              if i not in removed_set]
        self._reset_cells()
        self._vr_cache.clear()
        self._bounds_cache = None
        # (3) + (4)
        generation_was = self._generation
        retested, reopened = self._reopen_rows(removed_set, mbr)
        self.work.graph_repairs += 1
        self.work.repair_retested_pairs += retested
        # A memoized traversal's tree is untouched iff no sight line
        # re-opened (edge set of survivors unchanged) and it never relaxed
        # a now-deleted node (dist through one would be stale).
        survivors: List[ArrayTraversal] = []
        if reopened == 0:
            for src, t in self._traversals.items():
                if t.stamp != generation_was:
                    continue
                ids = [r for r in removed_set if r < t.dist.size]
                reached = bool(ids) and bool(
                    np.isfinite(t.dist[np.asarray(ids)]).any())
                if not reached:
                    survivors.append(t)
        self._struct_epoch += 1
        epoch = self._struct_epoch
        for v in self._indptr:
            self._row_epochs[v] = epoch
        self._generation += 1
        for t in survivors:
            t.stamp = self._generation
        return retested

    def _reopen_rows(self, removed_set: Set[int],
                     mbr) -> Tuple[int, int]:
        """Scrub deleted nodes from cached rows and re-open sight lines.

        Every cached row is already current (pre-removal counts); this
        re-tests, against the post-removal obstacle set, the absent pairs
        whose sight segment actually crosses ``mbr`` padded by the kernel
        tolerance bound (a slab clip, not just bbox overlap — a pair the
        removed obstacle blocked must run through its padded box, while
        most absent pairs in a dense scene merely *span* it), and stamps
        all rows with the post-removal watermark.

        Returns:
            ``(pairs re-tested, pairs re-opened)``.
        """
        n = len(self._xy)
        if n == 0:
            return 0, 0
        coords = self._coords_np[:n]
        # The pad must dominate the kernels' tolerant comparisons for any
        # pair we filter; a scale over *all* alive coordinates bounds every
        # per-pair scale blocked_batch would have used.
        alive = self._alive_np[:n]
        scale = 1.0
        if alive.any():
            scale += float(np.abs(coords[alive]).max())
        pad = 8.0 * EPS * scale
        xlo, ylo = mbr.xlo - pad, mbr.ylo - pad
        xhi, yhi = mbr.xhi + pad, mbr.yhi + pad
        mark_now = self._row_mark()
        hypot = math.hypot
        xy = self._xy
        removed_np = (np.fromiter(removed_set, dtype=np.int64)
                      if removed_set else np.empty(0, dtype=np.int64))
        cand_all = np.nonzero(alive & ~self._transient_np[:n])[0]
        rows_list = list(self._indptr)
        nrows = len(rows_list)
        if nrows == 0:
            return 0, 0
        rows_arr = np.asarray(rows_list, dtype=np.int64)

        def _slab_snapshot():
            spans = np.asarray([self._indptr[v] for v in rows_list],
                               dtype=np.int64).reshape(nrows, 2)
            lens = spans[:, 1] - spans[:, 0]
            if int(lens.sum()):
                ids = np.concatenate(
                    [self._indices[s:e] for s, e in spans])
            else:
                ids = np.empty(0, dtype=np.int64)
            return lens, ids

        lens, idsall = _slab_snapshot()
        # Scrub deleted targets: one membership pass over the whole
        # slab finds the rows that lost entries; only those compact.
        if removed_np.size and idsall.size:
            gone = np.isin(idsall, removed_np)
            if gone.any():
                row_rep = np.repeat(np.arange(nrows), lens)
                lost = np.bincount(row_rep[gone], minlength=nrows)
                starts = np.zeros(nrows + 1, dtype=np.int64)
                np.cumsum(lens, out=starts[1:])
                for ri in np.nonzero(lost)[0].tolist():
                    v = rows_list[ri]
                    s, e = self._indptr[v]
                    keep = ~gone[starts[ri]:starts[ri + 1]]
                    k = int(keep.sum())
                    self._indices[s:s + k] = self._indices[s:e][keep]
                    self._weights[s:s + k] = self._weights[s:e][keep]
                    self._indptr[v] = (s, s + k)
                lens, idsall = _slab_snapshot()
        # Absent pairs in one scatter: presence[r, c] marks cached
        # entries, the row's own id and non-candidates are masked, the
        # rest is exactly the setdiff the per-row path computed —
        # row-major nonzero keeps each row's candidates ascending,
        # matching the sorted order setdiff1d produced.
        pres = np.zeros((nrows, n), dtype=bool)
        if idsall.size:
            pres[np.repeat(np.arange(nrows), lens), idsall] = True
        base = np.zeros(n, dtype=bool)
        base[cand_all] = True
        absent = ~pres
        absent &= base[None, :]
        absent[np.arange(nrows), rows_arr] = False
        ri, ci = np.nonzero(absent)
        # Keep only pairs whose sight segment crosses the removed
        # obstacle's padded box (the slab clip); everything else
        # cannot have been blocked by it alone.
        if ri.size:
            hit = _segment_hits_box(coords[rows_arr[ri], 0],
                                    coords[rows_arr[ri], 1],
                                    coords[ci, 0], coords[ci, 1],
                                    xlo, ylo, xhi, yhi)
            ri, ci = ri[hit], ci[hit]
        for v in rows_list:
            self._row_marks[v] = mark_now
        retested = int(ri.size)
        reopened = 0
        if retested:
            # Early-terminating bulk launch: most retested pairs are
            # still blocked by some surviving obstacle and drop out
            # after the first chunk or two.  (_blocked_bulk ticks the
            # batch counters itself.)
            blocked = self._blocked_bulk(coords[rows_arr[ri]],
                                         coords[ci])
            self.work.bulk_pair_launches += 1
            ok = ~blocked
            ri2, ci2 = ri[ok], ci[ok]
            reopened = int(ri2.size)
            if reopened:
                edges = np.searchsorted(ri2, np.arange(nrows + 1))
                for rix in np.unique(ri2).tolist():
                    v = rows_list[rix]
                    vis = ci2[edges[rix]:edges[rix + 1]]
                    vx, vy = xy[v]
                    add_w = np.empty(vis.size, dtype=np.float64)
                    for j, i in enumerate(vis.tolist()):
                        tx, ty = xy[i]
                        add_w[j] = hypot(vx - tx, vy - ty)
                    s, e = self._indptr[v]
                    self._row_write(
                        v,
                        np.concatenate([self._indices[s:e],
                                        vis.astype(np.int64,
                                                   copy=False)]),
                        np.concatenate([self._weights[s:e], add_w]))
        return retested, reopened

    # ------------------------------------------------------------ adjacency
    def _row_mark(self) -> Tuple[int, int, int, int]:
        """Row watermark: the node component counts *permanent* nodes only,
        so bind/unbind churn never invalidates a cached flat row."""
        return (self.obstacles.rects.shape[0], self.obstacles.segs.shape[0],
                len(self.obstacles.polys), len(self._perm_ids))

    def _prims_now(self) -> int:
        return (self.obstacles.rects.shape[0] + self.obstacles.segs.shape[0]
                + len(self.obstacles.polys))

    def _prim_bounds(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached primitive-bounds slabs for the batch kernel's prefilter."""
        rects = self.obstacles.rects
        segs = self.obstacles.segs
        slab = self.obstacles.poly_slab
        key = (rects.shape[0], segs.shape[0], len(slab))
        cached = self._bounds_cache
        if cached is None or cached[0] != key:
            cached = (key, primitive_bounds(rects, segs, slab))
            self._bounds_cache = cached
        return cached[1]

    def _count_batch(self, edges: int, prims: int,
                     tally: Optional[dict] = None) -> None:
        self.work.batch_visibility_calls += 1
        if tally is not None:
            tested = tally["tested"]
            self.work.kernel_pruned_edges += tally["pruned"]
        else:
            tested = edges * prims
        self.work.batched_edges_tested += tested
        self.work.visibility_tests += tested

    def _count_bulk_push(self) -> None:
        self.work.heap_bulk_pushes += 1

    def _row_write(self, node: int, idx: np.ndarray, w: np.ndarray) -> None:
        """Place a row in the slab: in place when it fits, else appended."""
        span = self._indptr.get(node)
        n = idx.size
        if span is not None and n <= span[1] - span[0]:
            s = span[0]
        else:
            if self._pool_used + n > self._indices.size:
                cap = max(256, self._pool_used + n, 2 * self._indices.size)
                grown_i = np.empty(cap, dtype=np.int64)
                grown_i[:self._pool_used] = self._indices[:self._pool_used]
                grown_w = np.empty(cap, dtype=np.float64)
                grown_w[:self._pool_used] = self._weights[:self._pool_used]
                self._indices, self._weights = grown_i, grown_w
            s = self._pool_used
            self._pool_used += n
        self._indices[s:s + n] = idx
        self._weights[s:s + n] = w
        self._indptr[node] = (s, s + n)

    def _materialize_row(self, node: int,
                         mark_now: Tuple[int, int, int, int]
                         ) -> Tuple[np.ndarray, np.ndarray]:
        x, y = self._xy[node]
        n = len(self._xy)
        # Rows hold *permanent* endpoints only; transient edges are appended
        # at read time from the transient visibility cells (row_arrays),
        # so bind/unbind churn never touches the slab.
        mask = self._alive_np[:n] & ~self._transient_np[:n]
        mask[node] = False
        cand = np.nonzero(mask)[0]
        if cand.size:
            sources = np.empty((cand.size, 2), dtype=np.float64)
            sources[:, 0] = x
            sources[:, 1] = y
            tally: dict = {}
            blocked = blocked_batch(sources, self._coords_np[cand],
                                    self.obstacles.rects, self.obstacles.segs,
                                    self.obstacles.poly_slab,
                                    bounds=self._prim_bounds(), tally=tally)
            self._count_batch(cand.size, self._prims_now(), tally)
            vis = cand[~blocked]
        else:
            vis = cand
        idx = vis.astype(np.int64, copy=False)
        # Weights go through math.hypot, not np.hypot: the two differ in
        # the last ulp on ~0.5% of inputs, and every path that cuts a row
        # (per node, bulk, repair, transient cells) must agree bit for bit.
        w = np.empty(idx.size, dtype=np.float64)
        xy = self._xy
        for j, i in enumerate(idx.tolist()):
            tx, ty = xy[i]
            w[j] = math.hypot(x - tx, y - ty)
        self._row_marks[node] = mark_now
        self._row_write(node, idx, w)
        s, e = self._indptr[node]
        return self._indices[s:e], self._weights[s:e]

    # ------------------------------------------------------- adjacency (bulk)
    def _blocked_bulk(self, sources: np.ndarray,
                      targets: np.ndarray) -> np.ndarray:
        """Early-terminating bulk visibility: blocked mask over M pairs.

        The bulk counterpart of one full :func:`blocked_batch` launch,
        organized for dense scenes: primitives are processed in chunks
        ordered nearest-the-pair-cloud-first, and pairs already proven
        blocked drop out of every later chunk.  A sight line crossed by
        many obstacles — the common case in a lattice — is decided by the
        first chunk or two instead of being broadcast against the whole
        primitive set, so the effective element count is far below
        ``M x N``.  Blocking is a union over primitives and the kernels
        are elementwise, so the mask is bit-identical to the unchunked
        launch; chunking (like tiling) only changes the cost.

        Accounts one batched-call tick with everything not evaluated by a
        kernel (bbox-pruned or dropped by early termination) counted as
        pruned.  Callers still tick ``work.bulk_pair_launches`` once per
        logical bulk pass.
        """
        m = sources.shape[0]
        blocked = np.zeros(m, dtype=bool)
        if m == 0:
            return blocked
        kinds = primitive_kinds(self.obstacles.rects, self.obstacles.segs,
                                self.obstacles.poly_slab, self._prim_bounds())
        sx_all = np.ascontiguousarray(sources[:, 0])
        sy_all = np.ascontiguousarray(sources[:, 1])
        tx_all = np.ascontiguousarray(targets[:, 0])
        ty_all = np.ascontiguousarray(targets[:, 1])
        # Pair bboxes and the prune pad are computed once up front; the
        # per-chunk work below is only the overlap join, the gather, and
        # the kernel itself.  The pad scales eps by the whole batch's
        # coordinate magnitude, which bounds every per-pair scale, so the
        # prune stays sound (same argument as blocked_batch's own).
        exlo = np.minimum(sx_all, tx_all)
        exhi = np.maximum(sx_all, tx_all)
        eylo = np.minimum(sy_all, ty_all)
        eyhi = np.maximum(sy_all, ty_all)
        scale = 1.0 + max(float(np.abs(sources).max()),
                          float(np.abs(targets).max()))
        pad = 8.0 * EPS * scale
        cx = 0.5 * (float(sx_all.mean()) + float(tx_all.mean()))
        cy = 0.5 * (float(sy_all.mean()) + float(ty_all.mean()))
        alive = np.arange(m)
        tested = full = 0
        for kernel, prims, pb, cost in kinds:
            full += m * len(prims)
            order = np.argsort((0.5 * (pb[:, 0] + pb[:, 2]) - cx) ** 2
                               + (0.5 * (pb[:, 1] + pb[:, 3]) - cy) ** 2,
                               kind="stable")
            pos = 0
            axlo = exlo[:, None]
            axhi = exhi[:, None]
            aylo = eylo[:, None]
            ayhi = eyhi[:, None]
            while pos < order.size and alive.size:
                if alive.size < m:
                    axlo = exlo[alive, None]
                    axhi = exhi[alive, None]
                    aylo = eylo[alive, None]
                    ayhi = eyhi[alive, None]
                # A polygon pair walks ``cost`` edges, so its chunks hold
                # proportionally fewer primitives.
                chunk = max(1, max(8, BATCH_TILE_ELEMS // alive.size) // cost)
                sel = order[pos:pos + chunk]
                pos += chunk
                boxes = pb[sel]
                overlap = axlo <= boxes[None, :, 2] + pad
                overlap &= axhi >= boxes[None, :, 0] - pad
                overlap &= aylo <= boxes[None, :, 3] + pad
                overlap &= ayhi >= boxes[None, :, 1] - pad
                ei, oi = overlap.nonzero()
                if not ei.size:
                    continue
                tested += ei.size
                pi = alive[ei]
                # A one-primitive chunk broadcasts that primitive instead
                # of gathering a copy of it per pair.
                sub = prims[sel] if sel.size == 1 else prims[sel[oi]]
                pair_hit = kernel(sx_all[pi], sy_all[pi],
                                  tx_all[pi], ty_all[pi], sub, EPS)
                if pair_hit.any():
                    blocked[pi[pair_hit]] = True
                    alive = alive[~blocked[alive]]
        self._count_batch(m, self._prims_now(),
                          {"tested": tested, "pruned": full - tested})
        return blocked

    def materialize_rows(self, nodes: Iterable[int]) -> int:
        """Cut the missing adjacency rows of ``nodes`` in one batched pass.

        The cold-path counterpart of :meth:`_materialize_row`: the
        candidate (source, target) pairs of every still-unmaterialized row
        are concatenated and decided by a single tiled
        :func:`~repro.geometry.vectorized.blocked_batch` launch (bbox
        prefilter included) instead of one launch per row.  The per-pair
        kernels are elementwise — decisions are independent of how pairs
        are batched — and weights go through the same ``math.hypot``, so
        each resulting row is byte-identical (ids, order, weights, marks)
        to what the per-node path would have produced.

        Rows already materialized (even stale ones — they repair lazily on
        access, as always) and dead nodes are skipped.

        Returns:
            Number of rows materialized.
        """
        todo = [v for v in dict.fromkeys(nodes)
                if self._alive[v] and v not in self._indptr]
        if not todo:
            return 0
        mark_now = self._row_mark()
        epoch = self._struct_epoch
        n = len(self._xy)
        base = self._alive_np[:n] & ~self._transient_np[:n]
        cand_all = np.nonzero(base)[0]
        m = cand_all.size
        todo_arr = np.asarray(todo, dtype=np.int64)
        # Row-major candidate ids: every row sees cand_all minus itself.
        # cand_all is ascending (nonzero order), so one searchsorted finds
        # each row's own slot; np.delete drops them all in one allocation
        # instead of one boolean-mask pass per row.
        if m:
            pos_v = np.searchsorted(cand_all, todo_arr)
            present = cand_all[np.minimum(pos_v, m - 1)] == todo_arr
            tgt_idx = np.tile(cand_all, len(todo))
            drop = np.arange(len(todo), dtype=np.int64)[present] * m \
                + pos_v[present]
            if drop.size:
                tgt_idx = np.delete(tgt_idx, drop)
            counts = np.full(len(todo), m, dtype=np.int64) - present
        else:
            tgt_idx = np.zeros(0, dtype=np.int64)
            counts = np.zeros(len(todo), dtype=np.int64)
        total = int(tgt_idx.size)
        blocked = np.zeros(0, dtype=bool)
        if total:
            sources = np.repeat(self._coords_np[todo_arr], counts, axis=0)
            blocked = self._blocked_bulk(sources, self._coords_np[tgt_idx])
            self.work.bulk_pair_launches += 1
        # One pass builds every row's visible-id block and weight block in
        # flat arrays; rows then slab-write slices of them.  Weights go
        # element-by-element through math.hypot — np.hypot rounds the last
        # ulp differently on ~0.5% of inputs, which would break the
        # byte-identity contract with the per-node path.
        visall = ~blocked if total else np.zeros(0, dtype=bool)
        vis_idx_all = tgt_idx[visall] if total else tgt_idx
        src_rep = np.repeat(np.arange(len(todo), dtype=np.int64), counts)
        row_vis = np.bincount(src_rep[visall], minlength=len(todo))
        w_all = np.empty(vis_idx_all.size, dtype=np.float64)
        hypot = math.hypot
        xy = self._xy
        vis_list = vis_idx_all.tolist()
        pos = 0
        for v, c in zip(todo, row_vis.tolist()):
            x, y = xy[v]
            for j in range(pos, pos + c):
                tx, ty = xy[vis_list[j]]
                w_all[j] = hypot(x - tx, y - ty)
            self._row_marks[v] = mark_now
            self._row_write(v, vis_idx_all[pos:pos + c], w_all[pos:pos + c])
            self._row_epochs[v] = epoch
            pos += c
        self.work.rows_bulk_materialized += len(todo)
        return len(todo)

    def _repair_rows_bulk(self, rows: List[int],
                          mark: Tuple[int, int, int, int],
                          mark_now: Tuple[int, int, int, int]) -> None:
        """Repair cached rows sharing one watermark in two batched launches.

        The one row repair path, in two phases: drop
        entries blocked by obstacles added since ``mark``, then wire up
        permanent vertices added since ``mark`` (appended in id order) —
        each over the concatenated pairs of every row, so a refresh of R
        stale rows costs 2 launches instead of 2R.  Kernel decisions are
        elementwise, so a row's result does not depend on which rows it
        was batched with, nor on whether growth was repaired in one step
        or several: surviving entries keep their order and additions land
        in insertion order either way.
        """
        n_rects, n_segs, n_polys, n_perm = mark
        new_rects = self.obstacles.rects[n_rects:]
        new_segs = self.obstacles.segs[n_segs:]
        new_polys = self.obstacles.poly_slab[n_polys:]
        hypot = math.hypot
        xy = self._xy
        if new_rects.size or new_segs.size or len(new_polys):
            holders: List[int] = []
            spans: List[Tuple[int, int]] = []
            for v in rows:
                s, e = self._indptr[v]
                if e > s:
                    holders.append(v)
                    spans.append((s, e))
            if holders:
                tgt_idx = np.concatenate(
                    [self._indices[s:e] for s, e in spans])
                counts = [e - s for s, e in spans]
                sources = np.repeat(
                    self._coords_np[np.asarray(holders, dtype=np.int64)],
                    counts, axis=0)
                rb, sb, pb = self._prim_bounds()
                tally: dict = {}
                blocked = blocked_batch(sources, self._coords_np[tgt_idx],
                                        new_rects, new_segs, new_polys,
                                        bounds=(rb[n_rects:], sb[n_segs:],
                                                pb[n_polys:]),
                                        tally=tally)
                self._count_batch(tgt_idx.size, new_rects.shape[0]
                                  + new_segs.shape[0] + len(new_polys), tally)
                self.work.bulk_pair_launches += 1
                pos = 0
                for v, (s, e) in zip(holders, spans):
                    dead = blocked[pos:pos + (e - s)]
                    pos += e - s
                    if dead.any():
                        ids = self._indices[s:e]
                        keep = ~dead
                        k = int(keep.sum())
                        self._indices[s:s + k] = ids[keep]
                        self._weights[s:s + k] = self._weights[s:e][keep]
                        self._indptr[v] = (s, s + k)
        perm_tail = self._perm_ids[n_perm:]
        if perm_tail:
            srcs: List[int] = []
            per_row: List[List[int]] = []
            for v in rows:
                fresh = [i for i in perm_tail if i != v]
                per_row.append(fresh)
                srcs.extend([v] * len(fresh))
            total = len(srcs)
            if total:
                tgt_idx = np.asarray(
                    [i for fresh in per_row for i in fresh], dtype=np.int64)
                tally = {}
                blocked = blocked_batch(
                    self._coords_np[np.asarray(srcs, dtype=np.int64)],
                    self._coords_np[tgt_idx],
                    self.obstacles.rects, self.obstacles.segs,
                    self.obstacles.poly_slab,
                    bounds=self._prim_bounds(), tally=tally)
                self._count_batch(total, self._prims_now(), tally)
                self.work.bulk_pair_launches += 1
                pos = 0
                for v, fresh in zip(rows, per_row):
                    x, y = xy[v]
                    add_ids: List[int] = []
                    add_w: List[float] = []
                    for i, dead in zip(fresh,
                                       blocked[pos:pos + len(fresh)].tolist()):
                        if not dead:
                            tx, ty = xy[i]
                            add_ids.append(i)
                            add_w.append(hypot(x - tx, y - ty))
                    pos += len(fresh)
                    if add_ids:
                        s, e = self._indptr[v]
                        merged_idx = np.concatenate(
                            [self._indices[s:e],
                             np.asarray(add_ids, dtype=np.int64)])
                        merged_w = np.concatenate(
                            [self._weights[s:e],
                             np.asarray(add_w, dtype=np.float64)])
                        self._row_write(v, merged_idx, merged_w)
        for v in rows:
            self._row_marks[v] = mark_now

    def _refresh_rows_bulk(self, rows: Iterable[int]) -> int:
        """Bring the cached slab rows among ``rows`` current, by watermark.

        Rows stale against different watermarks (possible when inserts
        landed between accesses) repair in separate grouped launches; rows
        sharing a watermark — the overwhelmingly common case — share one
        pair of launches.  Missing rows and dead nodes are skipped.
        Returns the number of rows repaired.
        """
        mark_now = self._row_mark()
        epoch = self._struct_epoch
        groups: Dict[Tuple[int, int, int, int], List[int]] = {}
        for v in rows:
            if not self._alive[v] or v not in self._indptr:
                continue
            m = self._row_marks[v]
            if m != mark_now:
                groups.setdefault(m, []).append(v)
        for mark, vs in groups.items():
            self._repair_rows_bulk(vs, mark, mark_now)
            for v in vs:
                self._row_epochs[v] = epoch
        return sum(len(vs) for vs in groups.values())

    def build_all(self) -> int:
        """Eagerly materialize (and refresh) every alive node's row.

        The bulk warm-up behind cold shared-backend builds, clone spare
        provisioning and merged shard environments: missing rows cut in
        one batched launch, stale rows repaired in grouped launches.
        Returns the number of rows freshly materialized.
        """
        made = self.materialize_rows(self._alive_ids())
        self._refresh_rows_bulk(self._indptr)
        return made

    def _row_stale(self, node: int) -> bool:
        """Is ``node``'s cached row behind the obstacles / permanent nodes?

        The struct epoch is the O(1) check; only when it moved does the
        count watermark decide.  A row found current is re-stamped with the
        epoch, so the next check is O(1) again.
        """
        epoch = self._struct_epoch
        if self._row_epochs.get(node) == epoch:
            return False
        if self._row_marks[node] != self._row_mark():
            return True
        self._row_epochs[node] = epoch
        return False

    def _prefetch_rows(self, node: int,
                       frontier: "Callable[[], List[int]]",
                       reach: float = math.inf) -> None:
        """Array-traversal hook: fill a frontier wave before a row read.

        Invoked before each settle's row read; a no-op unless ``node``'s
        row is missing or stale or one of its transient cells is unknown,
        so the frontier gather (a sort of the heap contents) is only paid
        once per wave, not once per settle.  Then, in at most one launch
        each: missing rows of the node and of frontier nodes, up to
        :data:`FRONTIER_WAVE` rows, materialize; stale rows of the node and the gathered frontier
        repair (one pair of launches per watermark group); unknown cells of
        the node and the gathered frontier fill.  A transient node without
        a cached row read under a finite ``reach`` gets a reach-limited row
        from :meth:`row_arrays`, so its own row and cells are left to that
        read; the frontier is handled as above.
        """
        if not self._alive[node]:
            return
        row_missing = node not in self._indptr
        own = not (row_missing and reach < math.inf
                   and self._transient[node])
        row_stale = not row_missing and self._row_stale(node)
        t = len(self._live_transients)
        cells_missing = False
        if t:
            self._sync_cells()
            cells_missing = (_UNKNOWN_BYTE
                             in self._cell_state[node, :t].tobytes())
        if not (row_missing or row_stale or cells_missing):
            return
        front = [nb for nb in frontier() if nb != node and self._alive[nb]]
        if row_missing:
            wave = [node]
            for nb in front:
                if len(wave) >= FRONTIER_WAVE:
                    break
                if nb not in self._indptr:
                    wave.append(nb)
            if not own:
                wave = wave[1:]
            if wave:
                self.materialize_rows(wave)
        if row_stale:
            self._refresh_rows_bulk([node] + front)
        if cells_missing and (own or front):
            self._fill_cells([node] + front if own else front)

    def row_arrays(self, node: int, reach: float = math.inf
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """The flat adjacency row of ``node``: ``(ids, weights)``.

        Rows materialize lazily on first read and repair incrementally
        after growth (entries blocked by newer obstacles drop, sight lines
        to newer permanent nodes join), one batched kernel call per step,
        and feed the traversal without building a dict.

        The slab row covers permanent endpoints only and is keyed on a
        watermark that ignores transients, so steady-state query traffic
        (bind endpoints, route, unbind) never repairs a row.  Edges to the
        currently bound transients are appended here at read time from
        the row's transient visibility cells, filling any still unknown
        (:meth:`_fill_cells`); when none are bound the returned arrays are
        zero-copy slab views.

        A bounded traversal passes ``reach``, how far past the node's
        distance its prune bound lies.  A transient node without a cached
        row then gets an uncached row holding only the edges that can land
        inside it (:meth:`_reach_row`): a data point under evaluation is
        read once per bounded traversal, and nearly all of its full row
        would be pruned at push time.  Permanent rows and cached transient
        rows are returned in full whatever ``reach`` says.
        """
        epoch = self._struct_epoch
        span = self._indptr.get(node)
        if span is None:
            if reach < math.inf and self._transient[node]:
                return self._reach_row(node, reach)
            idx, w = self._materialize_row(node, self._row_mark())
            self._row_epochs[node] = epoch
        else:
            if self._row_stale(node):
                self._refresh_rows_bulk((node,))
                span = self._indptr[node]
            s, e = span
            idx, w = self._indices[s:e], self._weights[s:e]
        t = len(self._live_transients)
        if t:
            self._sync_cells()
            state = self._cell_state[node, :t]
            key = state.tobytes()
            if _UNKNOWN_BYTE in key:
                self._fill_cells((node,))
                key = state.tobytes()
            if key == _VISIBLE_BYTE * t:
                # Every bound transient visible (the vast majority of
                # settles on an open corridor): append without a gather.
                return (np.concatenate([idx, self._tids]),
                        np.concatenate([w, self._cell_w[node, :t]]))
            vis = state == _CELL_VISIBLE
            if vis.any():
                idx = np.concatenate([idx, self._tids[vis]])
                w = np.concatenate([w, self._cell_w[node, :t][vis]])
        return idx, w

    def _reach_row(self, node: int, reach: float
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """The full row of ``node`` filtered by ``w + h(target) <= reach``.

        ``h`` is the segment heuristic.  Candidates are the alive permanent
        nodes (ids ascending) then the bound transients (binding order),
        narrowed by ``np.hypot`` with a small relative slack (a superset of
        the exact filter: ``np.hypot`` and ``math.hypot`` differ by an ulp)
        and decided in one :func:`blocked_batch` launch, none when no
        candidate is left.  Sight lines run from ``node`` to the target and
        weights go through ``math.hypot``, as in a full row, so the result
        is the full row filtered by reach, bit for bit.  The filter keeps
        every edge a push could keep: ``(d + w) + h < bound`` implies
        ``w + h <= bound - d`` in floating point too.  Nothing is cached.
        """
        self.work.bounded_rows += 1
        n = len(self._xy)
        h = self._segment_heuristic()
        x, y = self._xy[node]
        coords = self._coords_np
        near = np.hypot(coords[:n, 0] - x, coords[:n, 1] - y)
        near += h
        near = near <= reach * (1.0 + _REACH_SLACK)
        near &= self._alive_np[:n]
        near[node] = False
        tids = self._tids[near[self._tids]]
        near[self._transient_np[:n]] = False
        cand = np.flatnonzero(near)
        if tids.size:
            cand = np.concatenate([cand, tids])
        if cand.size:
            tally: dict = {}
            blocked = blocked_batch(np.full((cand.size, 2), (x, y)),
                                    coords[cand],
                                    self.obstacles.rects, self.obstacles.segs,
                                    self.obstacles.poly_slab,
                                    bounds=self._prim_bounds(), tally=tally)
            self._count_batch(cand.size, self._prims_now(), tally)
            cand = cand[~blocked]
        hypot = math.hypot
        xy = self._xy
        ids: List[int] = []
        ws: List[float] = []
        for i, hv in zip(cand.tolist(), h[cand].tolist()):
            tx, ty = xy[i]
            w = hypot(x - tx, y - ty)
            if w + hv <= reach:
                ids.append(i)
                ws.append(w)
        return (np.array(ids, dtype=np.int64),
                np.array(ws, dtype=np.float64))

    def neighbors(self, node: int) -> Dict[int, float]:
        """The adjacency row of ``node`` as ``{neighbor: weight}``.

        A dict view of :meth:`row_arrays` (same lazy materialization and
        repair, transient edges included) for the non-hot-path consumers:
        tests, the session surface and diagnostics.
        """
        idx, w = self.row_arrays(node)
        return dict(zip(idx.tolist(), w.tolist()))

    def num_edges(self, materialize: bool = False) -> int:
        """Count sight-line edges (cached rows only, unless ``materialize``)."""
        if materialize:
            # Bulk path: one batched launch for all missing rows instead of
            # one kernel launch per node (diagnostics used to dominate
            # small-benchmark profiles through exactly this loop).
            self.build_all()
        seen = set()
        for v, (s, e) in self._indptr.items():
            if not self._alive[v]:
                continue
            for n in self._indices[s:e].tolist():
                seen.add((v, n) if v < n else (n, v))
        # Slab rows cover permanent endpoints only; fold in the bound
        # transients' edges from their visibility cells.
        t = len(self._live_transients)
        if t:
            self._sync_cells()
            alive_ids = self._alive_ids()
            if materialize:
                self._fill_cells(alive_ids)
            vs, js = np.nonzero(
                self._cell_state[alive_ids, :t] == _CELL_VISIBLE)
            for v, u in zip(np.asarray(alive_ids)[vs].tolist(),
                            self._tids[js].tolist()):
                seen.add((v, u) if v < u else (u, v))
        return len(seen)

    # ------------------------------------------------------ visible regions
    def visible_region_of(self, node: int) -> IntervalSet:
        """Cached ``VR_{node,q}``, narrowed lazily as obstacles arrive.

        A miss fills shadows in a wave: every alive node whose region is
        missing or behind the obstacle watermark gets the shadows of the
        obstacles it has not seen, from one prefiltered pair grid per
        obstacle kind (see
        :func:`~repro.obstacles.shadow.viewpoint_shadows`), when the
        wave's node x primitive x gap elements fit one
        ``BATCH_TILE_ELEMS`` tile; otherwise just ``node`` does.

        Filled shadows stay *pending* until their node is read, and a
        read subtracts all of its pending shadows as one
        :class:`IntervalSet`.  So each read computes exactly what it
        would have without waves: the full segment minus every shadow on
        the first read, the last read's region minus the shadows of the
        obstacles since then on a later one.  (Narrowing a wave-filled
        region early instead would not be exact: ``(full - A) - B`` can
        keep a sliver that ``full - (A + B)`` coalesces away when an
        ``A`` and a ``B`` interval meet within ``MERGE_EPS``.)
        """
        epoch = self._struct_epoch
        cached = self._vr_cache.get(node)
        if cached is not None and cached[2] == epoch and cached[3] is None:
            return cached[0]
        mark = (self.obstacles.rects.shape[0], self.obstacles.segs.shape[0],
                len(self.obstacles.polys))
        if cached is None or cached[1] != mark:
            wave = self._region_wave(mark)
            if wave is None:
                wave = [node]
            else:
                self.work.region_waves += 1
            self._fill_regions(wave, mark, epoch)
            cached = self._vr_cache[node]
        region, _mark, _epoch, pending = cached
        if pending is not None:
            region = region.subtract(IntervalSet(pending))
        self._vr_cache[node] = (region, mark, epoch, None)
        return region

    def _region_wave(self, mark: Tuple[int, int, int]) -> Optional[List[int]]:
        """Alive nodes whose region is missing or stale, if they fit a tile.

        A node costs (primitives since its watermark) x (candidate gaps
        per primitive) elements, a missing node counting every primitive;
        ``None`` when the wave exceeds ``BATCH_TILE_ELEMS``.  The node
        scan is skipped when the missing regions alone cannot fit (cached
        regions belong to alive nodes only, so they number
        ``alive - cached``).
        """
        gaps = shadow_gaps(self.obstacles.poly_slab)

        def cost(since: Tuple[int, int, int]) -> int:
            return sum((n - w) * g for n, w, g in zip(mark, since, gaps))

        full = cost((0, 0, 0))
        alive = np.flatnonzero(self._alive_view()).tolist()
        total = (len(alive) - len(self._vr_cache)) * full
        if total > BATCH_TILE_ELEMS:
            return None
        total = 0
        wave = []
        for v in alive:
            cached = self._vr_cache.get(v)
            if cached is None:
                total += full
            elif cached[1] != mark:
                total += cost(cached[1])
            else:
                continue
            wave.append(v)
        return wave if total <= BATCH_TILE_ELEMS else None

    def _fill_regions(self, nodes: List[int], mark: Tuple[int, int, int],
                      epoch: int) -> None:
        """Add to the pending shadows of ``nodes`` those of the obstacles
        past each node's watermark (all of them for a missing region), in
        one pair grid per kind for each watermark group."""
        groups: Dict[Tuple[int, int, int], List[int]] = {}
        for v in nodes:
            cached = self._vr_cache.get(v)
            groups.setdefault((0, 0, 0) if cached is None else cached[1],
                              []).append(v)
        rects = self.obstacles.rects
        segs = self.obstacles.segs
        polys = self.obstacles.poly_slab
        bounds = self._prim_bounds()
        full = IntervalSet.full(0.0, self.qseg.length)
        coords = self._coords_np
        for (r, s, p), members in groups.items():
            ids = np.asarray(members, dtype=np.int64)
            shadows = viewpoint_shadows(
                coords[ids, 0], coords[ids, 1], self.qseg,
                rects[r:], segs[s:], polys[p:],
                (bounds[0][r:], bounds[1][s:], bounds[2][p:]))
            for v, blocked in zip(members, shadows):
                cached = self._vr_cache.get(v)
                if cached is None:
                    region, pending = full, blocked
                else:
                    region, pending = cached[0], cached[3]
                    pending = blocked if pending is None else pending + blocked
                self._vr_cache[v] = (region, mark, epoch, pending)
        self.work.regions_computed += len(nodes)

    # -------------------------------------------------------------- dijkstra
    def _segment_heuristic(self) -> np.ndarray:
        """Per-node Euclidean distance to the bound query segment.

        The admissible heuristic behind bounded-traversal pruning.  Values
        equal, bit for bit, the scalar ``qseg.dist_point`` that CPLC's
        Euclidean prefilter calls: the clamp parameter and the closest
        point are computed with numpy ufuncs in ``point_seg_dist``'s
        operation order (elementwise IEEE doubles round like Python
        floats), and the distance goes through ``math.hypot``, not
        ``np.hypot`` (they differ in the last ulp on some inputs).  So the
        traversal's prune test and CPLC's ``dist + dist(v, q) >= bound``
        skip agree exactly — a node the traversal declines to relax is
        guaranteed to be skipped (not trusted) downstream.  Extended lazily
        as nodes appear; dead slots keep stale values harmlessly (their
        coordinates never change).  Returns a view covering exactly the
        current node slots.
        """
        q = self.qseg
        n = len(self._xy)
        if self._h_qseg is not q:
            self._h_qseg = q
            self._h_len = 0
        lo = self._h_len
        if lo < n:
            if self._h_np.size < n:
                grown = np.empty(max(n, 2 * self._h_np.size, 64),
                                 dtype=np.float64)
                grown[:lo] = self._h_np[:lo]
                self._h_np = grown
            px = self._coords_np[lo:n, 0]
            py = self._coords_np[lo:n, 1]
            ax, ay = q.ax, q.ay
            abx = q.bx - ax
            aby = q.by - ay
            denom = abx * abx + aby * aby
            if denom <= 0.0:
                dx = px - ax
                dy = py - ay
            else:
                t = ((px - ax) * abx + (py - ay) * aby) / denom
                t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
                dx = px - (ax + t * abx)
                dy = py - (ay + t * aby)
            self._h_np[lo:n] = list(map(math.hypot, dx.tolist(),
                                        dy.tolist()))
            self._h_len = n
        return self._h_np[:n]

    def _traversal(self, source: int,
                   prune_bound: float = math.inf) -> ArrayTraversal:
        """The memoized traversal for ``source``, rebuilt when stale.

        A traversal is valid exactly while the graph is unchanged since it
        started (generation match): node insertion can open shorter paths,
        obstacle insertion can cut edges, and transient removal can kill
        settled nodes — any of which falsifies the recorded tree.  A pruned
        traversal additionally only serves requests with an equal or
        *smaller* bound (it settles a superset of their safe set); a larger
        bound forces a rebuild.
        """
        if prune_bound < math.inf and self.qseg is None:
            prune_bound = math.inf  # no segment, no heuristic to prune with
        t = self._traversals.get(source)
        if t is not None and t.stamp == self._generation \
                and t.prune_bound >= prune_bound:
            self.work.dijkstra_replays += 1
            return t
        if len(self._traversals) >= _MAX_TRAVERSAL_MEMO:
            gen = self._generation
            self._traversals = {s: tr for s, tr in self._traversals.items()
                                if tr.stamp == gen}
            while len(self._traversals) >= _MAX_TRAVERSAL_MEMO:
                self._traversals.pop(next(iter(self._traversals)))
        heur = (self._segment_heuristic() if prune_bound < math.inf
                else None)
        t = ArrayTraversal(self.row_arrays, source, len(self._xy),
                           alive=self._alive_view,
                           prune_bound=prune_bound, heur=heur,
                           on_bulk_push=self._count_bulk_push,
                           stamp=self._generation,
                           prefetch=self._prefetch_rows,
                           on_prune=self._count_pruned)
        self._traversals[source] = t
        self.work.dijkstra_runs += 1
        return t

    def dijkstra_order(self, source: int, prune_bound: float = math.inf
                       ) -> Iterator[Tuple[float, int, Optional[int]]]:
        """Yield ``(dist, node, predecessor)`` in ascending settled order.

        This is the traversal CPLC consumes; the caller breaks out when
        Lemma 7's cutoff fires.  Predecessor is the node visited right before
        on the shortest path (``u`` of Lemma 5), ``None`` for the source.
        Only settled nodes ever compute their adjacency rows, and repeated
        traversals from one source over an unchanged graph replay the
        memoized shortest-path tree instead of restarting (the cost that
        used to make ``shortest_path`` re-run a full Dijkstra per call).

        ``prune_bound`` enables goal-directed relaxation pruning toward the
        bound query segment (see
        :class:`~repro.routing.dijkstra.ArrayTraversal`):
        yielded nodes with ``dist + dist(node, qseg) < prune_bound`` are
        exact — distance, predecessor and position.  The bound is applied
        when an edge would be relaxed, so nodes beyond it are normally not
        yielded at all (a transient source's row is even cut only as far
        as the bound reaches, see :meth:`row_arrays`); whatever beyond it
        does arrive may be late or inflated, so callers must discard
        contributions at or past the bound (CPLC's global-bound skip does).
        """
        t = self._traversal(source, prune_bound)
        return t.order(on_advance=self._count_settle)

    def settled_traversal(self, source: int, prune_bound: float = math.inf):
        """The raw resumable traversal behind :meth:`dijkstra_order`.

        Returns ``(traversal, on_settle)``: hot consumers (CPLC's main
        loop) walk ``traversal.settled`` / call ``traversal.advance()``
        directly — same entries in the same order as the generator, minus
        one generator resume per settled node — and must invoke
        ``on_settle(entry)`` once per *fresh* advance so the graph's
        ``work.nodes_settled`` stays identical to the generator path.
        """
        return self._traversal(source, prune_bound), self._count_settle

    def _count_settle(self, _entry: Tuple[float, int, Optional[int]]) -> None:
        self.work.nodes_settled += 1

    def _count_pruned(self, count: int) -> None:
        self.work.relaxations_pruned += count

    def shortest_distances(self, source: int, targets: Iterable[int],
                           cutoff: float = math.inf,
                           prune_bound: float = math.inf) -> Dict[int, float]:
        """Early-terminating Dijkstra: distances to ``targets`` (inf if cut off).

        ``cutoff`` additionally stops the traversal once settled distances
        exceed it; targets not yet settled report ``inf``.  The underlying
        traversal stays resumable, so a later call with a larger cutoff
        continues where this one stopped.

        ``prune_bound`` opts into goal-directed relaxation pruning (see
        :meth:`dijkstra_order`): only safe for targets *on* the query
        segment (IOR's S and E, whose heuristic is zero) — their reported
        distance is exact whenever it is below the bound, and any target
        cut off by pruning reports at or above it (``inf`` when, as
        usual, it was never settled).
        """
        remaining = set(targets)
        out = {t: math.inf for t in remaining}
        # Consume the traversal directly rather than through the
        # dijkstra_order generator: this loop touches every settled entry
        # of every warm-corridor Dijkstra, and the generator resume per
        # entry profiled at several percent of the arm.  Replay-cursor
        # discipline matches ArrayTraversal.order, including the re-check
        # after an exhausted advance (a concurrent consumer may have
        # settled the tail between the length check and the locked
        # advance).
        tr = self._traversal(source, prune_bound)
        settled = tr.settled
        i = 0
        while True:
            if i < len(settled):
                d, node, _pred = settled[i]
                i += 1
            else:
                if tr.advance() is None:
                    if i < len(settled):
                        continue
                    break
                self.work.nodes_settled += 1
                continue
            if d > cutoff:
                break
            if node in remaining:
                out[node] = d
                remaining.discard(node)
                if not remaining:
                    break
        return out

    def shortest_path(self, source: int, target: int) -> Tuple[float, List[int]]:
        """Distance and node path from ``source`` to ``target`` (inf, [] if none)."""
        preds: Dict[int, Optional[int]] = {}
        for d, node, pred in self.dijkstra_order(source):
            preds[node] = pred
            if node == target:
                path = [node]
                while preds[path[-1]] is not None:
                    path.append(preds[path[-1]])  # type: ignore[arg-type]
                path.reverse()
                return d, path
        return math.inf, []
