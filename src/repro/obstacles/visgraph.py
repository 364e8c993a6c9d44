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
  repaired in place on their next read: entries blocked by the new
  obstacles are dropped (one vectorized test per batch) and sight lines to
  the new vertices are added (one pairwise kernel per batch).  Obstacle
  removal is just as lazy: it only remaps each row's watermark and logs
  the removed obstacle's box, and the row re-opens the sight lines the
  box may have been blocking when it is next read.  Rows hold permanent
  nodes only; edges to transient data points are appended at read time
  from per-transient visibility cells, so binding and removing a point
  never touches a row.

Every sight line the graph decides — row cuts, insert repair, removal
re-opens, transient cells and ring rows — goes through one launch site,
:meth:`LocalVisibilityGraph._blocked_bulk`, which calls the one
early-terminating batched test
:func:`~repro.geometry.vectorized.blocked_batch` and counts the launch
once.  Edge weights all come from one helper,
:meth:`LocalVisibilityGraph._pair_weights` (``math.hypot``), so a row is
byte-identical however it was cut.

The graph also caches each node's visible region ``VR_{v,q}`` with an
obstacle watermark, so a cached region is lazily narrowed by exactly the
shadows of obstacles added since it was computed.  A region miss fills
the shadows of every missing or stale region at once when they fit one
kernel tile (a *region wave*, see :meth:`visible_region_of`).

Traversals run on the library-wide resumable traversal
(:class:`repro.routing.dijkstra.ArrayTraversal`) and are memoized per
source and aim: a repeated ``dijkstra_order`` / ``shortest_path`` /
``shortest_distances`` call (Dijkstra order) or ``aimed_traversal`` call
(A* order toward the query segment) over an unchanged graph replays the
settled shortest-path tree and resumes the frontier instead of restarting
from scratch.  Any mutation (node added, obstacle inserted, transient
point removed) bumps the graph's generation and lazily invalidates the
memo.

A graph may also be built *unanchored* (``qseg=None``): no endpoint nodes
exist until :meth:`bind` attaches a query segment's endpoints as transient
nodes, and :meth:`unbind` detaches them again.  This is the mode the
workspace-shared backend of :mod:`repro.routing` uses to keep one obstacle
skeleton alive across many queries.
"""

from __future__ import annotations

import bisect
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
)
from ..routing.dijkstra import ArrayTraversal
from ..routing.stats import BackendStats
from .obstacle import Obstacle, ObstacleSet
from .shadow import shadow_gaps, viewpoint_shadows

Mark = Tuple[int, int, int, int, int]
"""A row watermark: see :meth:`LocalVisibilityGraph._row_mark`."""

_MAX_TRAVERSAL_MEMO = 64
"""Memoized shortest-path trees kept per graph (oldest dropped first)."""

FRONTIER_WAVE = 16
"""Frontier-wave width: when a traversal settles a node whose row is
missing, the rows of up to this many nodes (it and the nearest frontier
nodes) materialize in one batched pass; see
:meth:`LocalVisibilityGraph._prefetch_rows`.  Row content and settle order
do not depend on it, only the number of kernel launches does."""

_RING_SLACK = 1e-9
"""Relative slack of :meth:`LocalVisibilityGraph._ring_row`'s ``np.hypot``
prefilter, far above the rounding it has to cover; the exact filter
follows."""

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
        # polys, permanent nodes, removals); see _row_mark.
        self._row_marks: Dict[int, Mark] = {}
        # Boxes of the removed obstacles some cached row has not yet
        # re-opened its sight lines for, oldest first; entry k is removal
        # number _log_base + k (see remove_obstacle).
        self._removal_log: List[Tuple[float, float, float, float]] = []
        self._log_base = 0
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
        # Numpy mirrors of _xy/_alive/_transient (capacity grows 2x, first
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
        # heuristic that aims IOR's and CPLC's traversals at it.  Lazily
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
        self._traversals: Dict[Tuple[int, bool], ArrayTraversal] = {}
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
        blocked = self._blocked_bulk(self._coords_np[src],
                                     self._coords_np[tgt])
        self._cell_state[src, ji] = np.where(blocked, _CELL_BLOCKED,
                                             _CELL_VISIBLE)
        vis = ~blocked
        src, ji = src[vis], ji[vis]
        self._cell_w[src, ji] = self._pair_weights(src, tgt[vis])

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
        # Row marks count the live permanent nodes of _perm_ids (removal
        # already dropped the dead ones from it), whose order compaction
        # keeps — only the row's key needs remapping.
        self._row_marks = {remap[v]: m for v, m in self._row_marks.items()}
        self._row_epochs = {remap[v]: e
                            for v, e in self._row_epochs.items()}
        self._perm_ids = [remap[i] for i in self._perm_ids]
        self._live_transients = [remap[t] for t in self._live_transients
                                 if t in remap]
        # Repack the flat slab densely in one pass.  A row that has not
        # caught up with an obstacle removal may still hold the removed
        # obstacle's dead vertices: they remap to -1 and are scrubbed
        # here, as its catch-up would have.
        if self._indptr:
            remap_np = np.full(old_len, -1, dtype=np.int64)
            remap_np[np.asarray(alive_ids, dtype=np.int64)] = \
                np.arange(len(alive_ids), dtype=np.int64)
            owners = list(self._indptr)
            spans = [self._indptr[v] for v in owners]
            flat = np.concatenate([remap_np[self._indices[s:e]]
                                   for s, e in spans])
            flat_w = np.concatenate([self._weights[s:e] for s, e in spans])
            keep = flat >= 0
            lens = np.bincount(
                np.repeat(np.arange(len(owners)),
                          [e - s for s, e in spans])[keep],
                minlength=len(owners))
            ends = np.cumsum(lens).tolist()
            self._indices, self._weights = flat[keep], flat_w[keep]
            self._pool_used = int(self._indices.size)
            self._indptr = {remap[v]: (e - k, e) for v, k, e
                            in zip(owners, lens.tolist(), ends)}
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
        adjacency row* — the expensive pairwise sight-line tests — with
        its watermark and the removal log it has yet to catch up on, but none
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
        clone._removal_log = list(self._removal_log)
        clone._log_base = self._log_base
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
        no later traversal touches again.  :meth:`remove_obstacle` works
        the same way.

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

    def remove_obstacle(self, obstacle: Obstacle) -> bool:
        """Delete ``obstacle``; cached rows catch up on their next read.

        Removal only *adds* visibility: a cached row entry was visible
        despite the obstacle, so it stays visible without it.  What a row
        misses are the sight lines the obstacle alone was blocking, and
        every such absent pair's segment crosses the obstacle's bbox
        padded by the kernels' tolerance bound (a blocking decision
        implies a crossing point inside the padded box — the bound the
        batch kernel's bbox prefilter relies on).  So removal does no
        row-level work beyond bookkeeping and launches no kernel:

        1. the obstacle's own vertices die, with their rows;
        2. every cached row's watermark is remapped onto the shrunken
           arrays (:meth:`_remap_marks`), so a row stale against
           insertions stays exactly as stale;
        3. the obstacle's bbox joins the removal log, which every row's
           watermark indexes into; a row that never considered the
           obstacle and is not behind the log skips the entry.

        A row behind the log catches up on its next read
        (:meth:`_repair_rows_bulk`): it scrubs dead ids and re-tests the
        absent pairs among the candidates it had considered whose sight
        segment crosses a pending box, against the current obstacles.
        The log keeps no more entries than the graph has obstacles (at
        least one): a row behind a trimmed entry is dropped and
        rematerializes when read.

        Count-keyed side caches that cannot be remapped (visible regions
        — lazy narrowing cannot widen — transient visibility cells,
        primitive bounds) are dropped and recompute lazily, and the
        generation bump invalidates every memoized traversal.

        Returns:
            ``True`` when the obstacle was resident and is gone, ``False``
            when it was not (the graph is already correct without it).
        """
        if obstacle not in self._obstacle_keys:
            return False
        box = obstacle.mbr()
        removed = self._obstacle_nodes.pop(obstacle, [])
        self._obstacle_keys.discard(obstacle)
        kind, index = self.obstacles.remove(obstacle)
        for nid in removed:
            self._alive[nid] = False
            self._alive_np[nid] = False
            self._indptr.pop(nid, None)
            self._row_marks.pop(nid, None)
            self._row_epochs.pop(nid, None)
        dead = set(removed)
        gone = [k for k, i in enumerate(self._perm_ids) if i in dead]
        self._perm_ids = [i for i in self._perm_ids if i not in dead]
        self._removal_log.append((box.xlo, box.ylo, box.xhi, box.yhi))
        self._struct_epoch += 1
        self._remap_marks(kind, index, gone)
        self._reset_cells()
        self._vr_cache.clear()
        self._bounds_cache = None
        self._generation += 1
        self.work.graph_repairs += 1
        return True

    def _remap_marks(self, kind: int, index: int, gone: List[int]) -> None:
        """Re-key every row watermark after one obstacle's removal.

        ``kind``/``index`` locate the deleted primitive row
        (:meth:`ObstacleSet.remove`) and ``gone`` holds the positions the
        deleted vertices had in ``_perm_ids`` (ascending).  A watermark
        that covered the primitive drops by one, and its permanent-node
        count drops by the deleted vertices it covered, so the row's
        counts again name exactly the primitives and candidates it has
        considered.  A row that never considered the primitive and had
        re-opened for every earlier removal skips the new log entry, as
        nothing it holds was blocked by the obstacle; such a row may be
        current again (an obstacle added and removed while the row was
        not read), and only rows current after the remap are stamped with
        the new struct epoch.  Rows sharing a watermark share the remap.
        Then the removal log is trimmed to the entries some row still
        needs, and to at most one entry per resident obstacle (at least
        one): rows behind a trimmed entry are dropped.
        """
        now = self._row_mark()
        end = now[4]
        epoch = self._struct_epoch
        remapped: Dict[Mark, Mark] = {}
        marks = self._row_marks
        for v, m in marks.items():
            nm = remapped.get(m)
            if nm is None:
                counts = list(m)
                if index < counts[kind]:
                    counts[kind] -= 1
                elif counts[4] == end - 1:
                    counts[4] = end
                counts[3] -= bisect.bisect_left(gone, counts[3])
                nm = remapped[m] = tuple(counts)
            marks[v] = nm
            if nm == now:
                self._row_epochs[v] = epoch
        oldest = min((m[4] for m in remapped.values()), default=end)
        floor = max(oldest, end - max(1, len(self.obstacles)))
        if floor > self._log_base:
            if floor > oldest:
                for v in [v for v, m in marks.items() if m[4] < floor]:
                    del marks[v]
                    del self._indptr[v]
                    self._row_epochs.pop(v, None)
            del self._removal_log[:floor - self._log_base]
            self._log_base = floor

    # ------------------------------------------------------------ adjacency
    def _row_mark(self) -> Mark:
        """The current row watermark.

        A row's watermark says what its entries are exact for: the first
        rect, seg and polygon rows of the obstacle arrays, the first
        ``_perm_ids`` as candidates (permanent nodes only, so bind/unbind
        churn never invalidates a cached row), and the number of
        obstacle removals whose sight lines it has re-opened.
        """
        return (self.obstacles.rects.shape[0], self.obstacles.segs.shape[0],
                len(self.obstacles.polys), len(self._perm_ids),
                self._log_base + len(self._removal_log))

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

    def _count_batch(self, edges: int, prims: int, tested: int) -> None:
        """Count one launch of ``edges`` sight lines x ``prims`` primitives."""
        self.work.batch_visibility_calls += 1
        self.work.batched_edges_tested += tested
        self.work.visibility_tests += tested
        self.work.kernel_pruned_edges += edges * prims - tested

    def _pair_weights(self, src, tgt: np.ndarray) -> np.ndarray:
        """Edge weights ``math.hypot(v - u)`` for node ids ``src`` -> ``tgt``.

        ``src`` is an id array aligned with ``tgt`` or one id.  The
        coordinate differences are taken in numpy (IEEE subtraction rounds
        as Python's does) and the distance goes through ``math.hypot``:
        ``np.hypot`` rounds the last ulp differently on ~0.5% of inputs,
        and every row must be byte-identical however it was cut.
        """
        dx, dy = (self._coords_np[src] - self._coords_np[tgt]).T.tolist()
        return np.fromiter(map(math.hypot, dx, dy), np.float64, len(dx))

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

    # ------------------------------------------------------- adjacency (bulk)
    def _blocked_bulk(self, sources: np.ndarray, targets: np.ndarray,
                      since: Tuple[int, int, int] = (0, 0, 0)) -> np.ndarray:
        """Blocked mask of M sight lines against the cached obstacles.

        The graph's one kernel launch site: every sight line it decides
        goes through one :func:`blocked_batch` call here, which counts as
        one batched call.  ``since`` holds the (rect, seg, polygon) counts
        to skip, so insert repair tests only the obstacles added past a
        row watermark.  Callers still tick ``work.bulk_pair_launches``
        once per logical bulk pass.
        """
        obs = self.obstacles
        prims = (obs.rects, obs.segs, obs.poly_slab)
        bounds = self._prim_bounds()
        if any(since):
            prims = tuple(a[k:] for a, k in zip(prims, since))
            bounds = tuple(b[k:] for b, k in zip(bounds, since))
        blocked, tested = blocked_batch(sources, targets, *prims, bounds)
        self._count_batch(sources.shape[0],
                          len(prims[0]) + len(prims[1]) + len(prims[2]),
                          tested)
        return blocked

    def materialize_rows(self, nodes: Iterable[int]) -> int:
        """Cut the missing adjacency rows of ``nodes`` in one batched pass.

        The one path that cuts a cached row, whether a traversal's
        prefetch wave asks for many or :meth:`row_arrays` reads one: the
        candidate (source, target) pairs of every still-unmaterialized row
        are concatenated and decided by one :meth:`_blocked_bulk` launch
        instead of one launch per row.  The per-pair kernels are
        elementwise — decisions are independent of how pairs are batched —
        and weights go through ``math.hypot``, so each row is
        byte-identical (ids, order, weights, marks) however many rows the
        pass cuts together.

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
        # flat arrays; rows then slab-write slices of them.
        visall = ~blocked if total else np.zeros(0, dtype=bool)
        vis_idx_all = tgt_idx[visall] if total else tgt_idx
        src_rep = np.repeat(np.arange(len(todo), dtype=np.int64), counts)
        row_vis = np.bincount(src_rep[visall], minlength=len(todo))
        w_all = self._pair_weights(todo_arr[src_rep[visall]], vis_idx_all)
        pos = 0
        for v, c in zip(todo, row_vis.tolist()):
            self._row_marks[v] = mark_now
            self._row_write(v, vis_idx_all[pos:pos + c], w_all[pos:pos + c])
            self._row_epochs[v] = epoch
            pos += c
        self.work.rows_bulk_materialized += len(todo)
        return len(todo)

    def _repair_rows_bulk(self, rows: List[int],
                          counts: Tuple[int, int, int, int],
                          mark_now: Mark) -> None:
        """Catch up cached rows sharing one watermark's counts with growth.

        Two phases: drop entries blocked by obstacles added since
        ``counts``, then wire up permanent vertices added since ``counts``
        (appended in id order) — each over the concatenated pairs of every
        row, so a refresh of R stale rows costs 2 launches instead of 2R.
        Kernel decisions are elementwise, so a row's result does not
        depend on which rows it was batched with, nor on whether growth
        was repaired in one step or several: surviving entries keep their
        order and additions land in insertion order either way.
        """
        since, n_perm = counts[:3], counts[3]
        if any(k < now for k, now in zip(since, mark_now)):
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
                blocked = self._blocked_bulk(
                    sources, self._coords_np[tgt_idx], since)
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
        perm_tail = np.asarray(self._perm_ids[n_perm:], dtype=np.int64)
        if perm_tail.size:
            # Row-major (row, fresh vertex) pairs, minus each row's own id.
            rows_arr = np.asarray(rows, dtype=np.int64)
            ri = np.repeat(np.arange(len(rows)), perm_tail.size)
            ci = np.tile(perm_tail, len(rows))
            keep = rows_arr[ri] != ci
            ri, ci = ri[keep], ci[keep]
            if ri.size:
                blocked = self._blocked_bulk(self._coords_np[rows_arr[ri]],
                                             self._coords_np[ci])
                self.work.bulk_pair_launches += 1
                self._append_visible(rows, ri[~blocked], ci[~blocked])
        for v in rows:
            self._row_marks[v] = mark_now

    def _scrub_dead(self, rows: List[int]) -> None:
        """Drop the entries of ``rows`` that point at removed vertices."""
        alive = self._alive_np
        for v in rows:
            s, e = self._indptr[v]
            keep = alive[self._indices[s:e]]
            if not keep.all():
                k = int(keep.sum())
                self._indices[s:s + k] = self._indices[s:e][keep]
                self._weights[s:s + k] = self._weights[s:e][keep]
                self._indptr[v] = (s, s + k)

    def _reopen_rows(self, rows: List[int], marks: List[Mark]) -> None:
        """Re-open the sight lines removed obstacles may have been blocking.

        Row ``rows[r]`` with watermark ``marks[r]`` is exact, against every
        obstacle it has considered, for its first ``marks[r][3]``
        candidates (``_perm_ids`` order), and the removal-log entries from
        ``marks[r][4]`` on are the bboxes of the obstacles removed since.
        An absent pair one of those obstacles was blocking crosses its
        bbox padded by the kernel tolerance bound (a slab clip behind a
        bbox-overlap prefilter: most absent pairs in a dense scene merely
        *span* a box), so only those pairs of all the rows are re-tested
        against the current obstacles, in one early-terminating launch;
        the visible ones are appended.  The pad scales with every node
        coordinate, which bounds the per-pair scale of any kernel
        decision about an alive pair.
        """
        n = len(self._xy)
        coords = self._coords_np[:n]
        nrows = len(rows)
        rows_arr = np.asarray(rows, dtype=np.int64)
        # rank[c] is c's position in _perm_ids (n for non-candidates), so
        # row r's candidates are the c with rank[c] < its count.
        perm = np.asarray(self._perm_ids, dtype=np.int64)
        rank = np.full(n, n, dtype=np.int64)
        rank[perm] = np.arange(perm.size)
        counts = np.asarray([m[3] for m in marks], dtype=np.int64)
        absent = rank[None, :] < counts[:, None]
        spans = [self._indptr[v] for v in rows]
        lens = [e - s for s, e in spans]
        if sum(lens):
            absent[np.repeat(np.arange(nrows), lens),
                   np.concatenate([self._indices[s:e]
                                   for s, e in spans])] = False
        absent[np.arange(nrows), rows_arr] = False
        ri, ci = np.nonzero(absent)
        if not ri.size:
            return
        sx = coords[rows_arr[ri], 0]
        sy = coords[rows_arr[ri], 1]
        tx = coords[ci, 0]
        ty = coords[ci, 1]
        first = min(m[4] for m in marks)
        boxes = np.asarray(self._removal_log[first - self._log_base:],
                           dtype=np.float64)
        pad = 8.0 * EPS * (1.0 + float(np.abs(coords).max()))
        boxes[:, :2] -= pad
        boxes[:, 2:] += pad
        # (pair, pending box) candidates, one tile of them at a time: the
        # box is pending for the pair's row and overlaps the pair's bbox;
        # the slab clip decides.
        since = np.asarray([m[4] - first for m in marks],
                           dtype=np.int64)[ri]
        pending = np.arange(len(boxes))[None, :]
        hit = np.zeros(ri.size, dtype=bool)
        step = max(1, BATCH_TILE_ELEMS // len(boxes))
        for lo in range(0, ri.size, step):
            t = slice(lo, lo + step)
            near = since[t, None] <= pending
            near &= np.minimum(sx[t], tx[t])[:, None] <= boxes[None, :, 2]
            near &= np.maximum(sx[t], tx[t])[:, None] >= boxes[None, :, 0]
            near &= np.minimum(sy[t], ty[t])[:, None] <= boxes[None, :, 3]
            near &= np.maximum(sy[t], ty[t])[:, None] >= boxes[None, :, 1]
            pi, bi = np.nonzero(near)
            pi += lo
            crosses = _segment_hits_box(sx[pi], sy[pi], tx[pi], ty[pi],
                                        boxes[bi, 0], boxes[bi, 1],
                                        boxes[bi, 2], boxes[bi, 3])
            hit[pi[crosses]] = True
        ri, ci = ri[hit], ci[hit]
        if not ri.size:
            return
        self.work.repair_retested_pairs += int(ri.size)
        blocked = self._blocked_bulk(coords[rows_arr[ri]], coords[ci])
        self.work.bulk_pair_launches += 1
        self._append_visible(rows, ri[~blocked], ci[~blocked])

    def _append_visible(self, rows: List[int], ri: np.ndarray,
                        ci: np.ndarray) -> None:
        """Append target ``ci[k]`` to row ``rows[ri[k]]``, ``ri`` ascending.

        Each row's new entries keep their order in ``ci``, after the
        entries it already holds.
        """
        if not ri.size:
            return
        rows_arr = np.asarray(rows, dtype=np.int64)
        w = self._pair_weights(rows_arr[ri], ci)
        edges = np.searchsorted(ri, np.arange(len(rows) + 1))
        for rix in np.flatnonzero(np.diff(edges)).tolist():
            v = rows[rix]
            lo, hi = edges[rix], edges[rix + 1]
            s, e = self._indptr[v]
            self._row_write(v, np.concatenate([self._indices[s:e],
                                               ci[lo:hi]]),
                            np.concatenate([self._weights[s:e], w[lo:hi]]))

    def _refresh_rows_bulk(self, rows: Iterable[int]) -> int:
        """Bring the cached slab rows among ``rows`` current, by watermark.

        Rows behind the removal log scrub their dead ids first.  Then
        rows stale against different counts (possible when inserts landed
        between accesses) catch up with growth in separate grouped
        launches (:meth:`_repair_rows_bulk`); rows sharing counts — the
        overwhelmingly common case — share one pair of launches.  Last,
        every row behind the log re-opens its sight lines in one joint
        launch (:meth:`_reopen_rows`), over the candidates it had before
        the vertices just wired, which it never re-tests.  Missing rows
        and dead nodes are skipped.  Returns the number of rows repaired.
        """
        mark_now = self._row_mark()
        epoch = self._struct_epoch
        groups: Dict[Tuple[int, int, int, int], List[int]] = {}
        behind: List[int] = []
        behind_marks: List[Mark] = []
        repaired = 0
        for v in dict.fromkeys(rows):
            if not self._alive[v] or v not in self._indptr:
                continue
            m = self._row_marks[v]
            if m != mark_now:
                repaired += 1
                groups.setdefault(m[:4], []).append(v)
                if m[4] < mark_now[4]:
                    behind.append(v)
                    behind_marks.append(m)
        if behind:
            self._scrub_dead(behind)
        for counts, vs in groups.items():
            self._repair_rows_bulk(vs, counts, mark_now)
            for v in vs:
                self._row_epochs[v] = epoch
        if behind:
            self._reopen_rows(behind, behind_marks)
        return repaired

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
                       rings: bool = False) -> None:
        """Array-traversal hook: fill a frontier wave before a row read.

        Invoked before each settle's row read; a no-op unless ``node``'s
        row is missing or stale or one of its transient cells is unknown,
        so the frontier gather (a sort of the heap entries below the
        traversal's limit) is only paid once per wave, not once per
        settle.  Then, in at most one launch each: missing rows of the
        node and of frontier nodes, up to :data:`FRONTIER_WAVE` rows,
        materialize; stale rows of the node and the gathered frontier
        repair (one pair of launches per watermark group); unknown cells
        of the node and the gathered frontier fill.  In a traversal that
        cuts rings (``rings``), transient nodes without a cached row are
        left to :meth:`_ring_row`: the node's own row and cells, and such
        frontier nodes' rows.
        """
        if not self._alive[node]:
            return
        row_missing = node not in self._indptr
        whole = not (rings and row_missing and self._transient[node])
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
                if nb not in self._indptr and not (rings
                                                   and self._transient[nb]):
                    wave.append(nb)
            if not whole:
                wave = wave[1:]
            if wave:
                self.materialize_rows(wave)
        if row_stale:
            self._refresh_rows_bulk([node] + front)
        if cells_missing and (whole or front):
            self._fill_cells([node] + front if whole else front)

    def row_arrays(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
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
        """
        if node not in self._indptr:
            self.materialize_rows((node,))
        elif self._row_stale(node):
            self._refresh_rows_bulk((node,))
        s, e = self._indptr[node]
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

    def _ring_row(self, node: int, d: float, lo: float,
                  view: Callable[[], float]
                  ) -> Optional[Tuple[np.ndarray, np.ndarray, float]]:
        """The ``ring`` cutter of aimed traversals: a ring of ``node``'s row.

        A transient node without a cached row (a data point under
        evaluation, or a bound endpoint) is cut in rings, since an aimed
        traversal rarely needs more of it than the part near ``q``; any
        other node gets ``None`` and is read whole.  A ring holds the
        entries keyed ``(d + w) + h(target)`` in ``(lo, hi]``: the first
        reaches ``d + R`` for ``R`` the node's farther direct sight line to
        S or E, the next the traversal's limit ``view()``, and a ring past
        which no candidate lies ends the row (``hi`` is ``inf``).

        Candidates are the alive permanent nodes (ids ascending) then the
        bound transients (binding order), narrowed by ``np.hypot`` with a
        small relative slack (``np.hypot`` and ``math.hypot`` differ by an
        ulp) and decided in one :meth:`_blocked_bulk` launch.  Sight lines,
        ``math.hypot`` weights and keys are computed as for a full row and
        in the traversal, so the rings partition the full row bit for bit.
        Nothing is cached.
        """
        if lo == -math.inf:
            if node in self._indptr or not self._transient[node]:
                return None
            x, y = self._xy[node]
            q = self.qseg
            hi = min(d + max(math.hypot(x - q.ax, y - q.ay),
                             math.hypot(x - q.bx, y - q.by)), view())
        else:
            hi = view()
            hi = hi if hi > lo else math.inf
        self.work.bounded_rows += 1
        n = len(self._xy)
        h = self._segment_heuristic()
        x, y = self._xy[node]
        coords = self._coords_np
        near = np.hypot(coords[:n, 0] - x, coords[:n, 1] - y)
        near += h
        near += d
        pad = _RING_SLACK * (1.0 + (hi if hi < math.inf else max(lo, d)))
        sel = self._alive_np[:n].copy()
        sel[node] = False
        if lo > -math.inf:
            sel &= near > lo - pad
        if (sel & (near > hi - pad)).any():
            sel &= near <= hi + pad
        else:
            hi = math.inf  # nothing lies past this ring: it ends the row
        tids = self._tids[sel[self._tids]]
        sel[self._transient_np[:n]] = False
        cand = np.flatnonzero(sel)
        if tids.size:
            cand = np.concatenate([cand, tids])
        if cand.size:
            blocked = self._blocked_bulk(np.full((cand.size, 2), (x, y)),
                                         coords[cand])
            cand = cand[~blocked]
        w = self._pair_weights(node, cand)
        key = (d + w) + h[cand]
        keep = key <= hi
        if lo > -math.inf:
            keep &= key > lo
        return cand[keep], w[keep], hi

    def neighbors(self, node: int) -> Dict[int, float]:
        """The adjacency row of ``node`` as ``{neighbor: weight}``.

        A dict view of :meth:`row_arrays` (same lazy materialization and
        repair, transient edges included) for the non-hot-path consumers:
        tests, the session surface and diagnostics.
        """
        idx, w = self.row_arrays(node)
        return dict(zip(idx.tolist(), w.tolist()))

    def num_edges(self, materialize: bool = False) -> int:
        """Count sight-line edges (cached rows only, unless ``materialize``).

        Cached rows are brought current first, so a row that has not yet
        caught up with an insertion or removal counts what it will hold.
        """
        if materialize:
            # Bulk path: one batched launch for all missing rows instead of
            # one kernel launch per node (diagnostics used to dominate
            # small-benchmark profiles through exactly this loop).
            self.build_all()
        else:
            self._refresh_rows_bulk(list(self._indptr))
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

        The consistent heuristic that aims IOR's and CPLC's traversals at
        ``q`` (it is 1-Lipschitz).  Values equal, bit for bit, the scalar
        ``qseg.dist_point`` that CPLC's Euclidean bounds call: the clamp
        parameter and the closest point are computed with numpy ufuncs in
        ``point_seg_dist``'s operation order (elementwise IEEE doubles
        round like Python floats), and the distance goes through
        ``math.hypot``, not ``np.hypot`` (they differ in the last ulp on
        some inputs).  So an aimed traversal's key ``d + h`` is exactly
        the lower bound ``dist_v + dist(v, q)`` of everything node ``v``
        can contribute on ``q``.  Extended lazily as nodes appear; dead
        slots keep stale values harmlessly (their coordinates never
        change).  Returns a view covering exactly the current node slots.
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

    def _traversal(self, source: int, aimed: bool) -> ArrayTraversal:
        """The memoized traversal for ``source`` and aim, rebuilt when stale.

        A traversal is valid exactly while the graph is unchanged since it
        started (generation match): node insertion can open shorter paths,
        obstacle insertion can cut edges, and transient removal can kill
        settled nodes — any of which falsifies the recorded tree.  One
        traversal serves every limit its consumers stop at.  An aimed
        traversal on a graph with no query segment is a plain one.
        """
        aimed = aimed and self.qseg is not None
        key = (source, aimed)
        t = self._traversals.get(key)
        if t is not None and t.stamp == self._generation:
            self.work.dijkstra_replays += 1
            return t
        if len(self._traversals) >= _MAX_TRAVERSAL_MEMO:
            gen = self._generation
            self._traversals = {k: tr for k, tr in self._traversals.items()
                                if tr.stamp == gen}
            while len(self._traversals) >= _MAX_TRAVERSAL_MEMO:
                self._traversals.pop(next(iter(self._traversals)))
        t = ArrayTraversal(self.row_arrays, source, len(self._xy),
                           alive=self._alive_view,
                           aim=self._segment_heuristic if aimed else None,
                           ring=self._ring_row if aimed else None,
                           stamp=self._generation,
                           prefetch=self._prefetch_rows)
        self._traversals[key] = t
        self.work.dijkstra_runs += 1
        return t

    def dijkstra_order(self, source: int
                       ) -> Iterator[Tuple[float, int, Optional[int]]]:
        """Yield ``(dist, node, predecessor)`` in ascending settled order.

        Plain Dijkstra order (no heuristic), which the ONN/range scans
        and the joins consume.  Predecessor is the node visited right
        before on the shortest path, ``None`` for the source.  Only
        settled nodes ever compute their adjacency rows, and repeated
        traversals from one source over an unchanged graph replay the
        memoized shortest-path tree instead of restarting (the cost that
        used to make ``shortest_path`` re-run a full Dijkstra per call).
        """
        t = self._traversal(source, False)
        return t.order(on_advance=self._count_settle)

    def aimed_traversal(self, source: int):
        """The raw resumable traversal from ``source`` aimed at ``q``.

        The traversal IOR and CPLC share: it settles in ``f = d +
        dist(v, q)`` order (A* with the segment heuristic), each node at
        its exact distance with an exact predecessor, and records each
        settled node's ``f`` in ``traversal.keys``.  A transient source's
        row is cut in rings as the traversal reaches out
        (:meth:`_ring_row`).  Consumers pass their current limit to
        ``traversal.advance(limit)``; one memoized traversal per source
        serves them all, IOR's rounds and CPLC after them.

        Returns ``(traversal, on_settle)``: consumers walk
        ``traversal.settled`` / call ``traversal.advance(limit)`` directly
        and must invoke ``on_settle(entry)`` once per *fresh* advance so
        the graph's ``work.nodes_settled`` counts every settle.
        """
        return self._traversal(source, True), self._count_settle

    def _count_settle(self, _entry: Tuple[float, int, Optional[int]]) -> None:
        self.work.nodes_settled += 1

    def shortest_distances(self, source: int, targets: Iterable[int]
                           ) -> Dict[int, float]:
        """Early-terminating Dijkstra: distances to ``targets`` (inf if
        unreachable).  The underlying traversal stays resumable, so a
        later call from the same source continues where this one
        stopped."""
        return self._traversal(source, False).distances(
            targets, on_advance=self._count_settle)

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
