"""Pluggable obstructed-distance backends.

The CONN/COkNN/ONN/range engines treat the obstructed-distance oracle as a
black box: they need a graph surface to attach query endpoints and data
points to, traverse in Dijkstra order, and feed retrieved obstacles into.
This module makes that surface an explicit protocol
(:class:`ObstructedDistanceBackend`) with two implementations:

* :class:`PerQueryVGBackend` — today's behavior: one fresh
  :class:`~repro.obstacles.visgraph.LocalVisibilityGraph` per query,
  discarded afterwards.  Right for cold one-shot workspaces, and the
  reference semantics every other backend must match.
* :class:`SharedVGBackend` — a workspace-owned *persistent* visibility
  graph.  The obstacle skeleton (vertices plus the lazily materialized,
  expensive-to-test adjacency rows) survives across queries; each query
  attaches its endpoints as transient nodes via the graph's
  ``bind``/``unbind`` and detaches them on completion.  Announced
  workspace updates patch the graph in place (inserts) or repair it
  surgically (removals); a version guard against the backing R*-tree
  catches unannounced mutations at attach time.

Both backends hand the engine a :class:`VGSession`: the engine-facing view
of one query's graph.  A session tracks the obstacles *admitted by this
query* separately from what the underlying (possibly shared) graph holds,
so the paper's NOE and |SVG| metrics — and the cache counters derived from
them — are identical across backends.

Correctness of sharing: a shared graph may contain obstacles beyond the
ones a query's retrieval admitted.  Every such obstacle is real (it came
from the same dataset), so distances computed on the superset are sandwiched
between the per-query value and the true obstructed distance — and the
engine's retrieval fixpoint (Lemma 3) drives both to the same true value.
Results are therefore identical; only intermediate retrieval rounds (an
I/O pattern, not an answer) may differ.
"""

from __future__ import annotations

import math
import threading
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
    runtime_checkable,
)

from .stats import BackendStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stats import QueryStats
    from ..geometry.interval import IntervalSet
    from ..geometry.point import Point
    from ..geometry.segment import Segment
    from ..index.rstar import RStarTree
    from ..obstacles.obstacle import Obstacle
    from ..obstacles.visgraph import LocalVisibilityGraph

PER_QUERY_VG = "per-query-vg"
"""Backend name: one throwaway local visibility graph per query."""

SHARED_VG = "shared-vg"
"""Backend name: the workspace-shared incremental visibility graph."""


def _take_work(graph: "LocalVisibilityGraph") -> BackendStats:
    """Take a graph's work block whole, leaving a fresh one in its place.

    A graph hosts one session at a time and maintenance runs under the
    workspace write lock, so whoever takes the block (a detaching session,
    a maintenance step) gets exactly the work done since the last take.
    Sessions and maintenance steps also take it when they start, dropping
    work that is nobody's share (endpoint binding, release bookkeeping).
    """
    work, graph.work = graph.work, BackendStats()
    return work


@runtime_checkable
class ObstructedGraph(Protocol):
    """The graph surface the engines consume (a graph or a session)."""

    qseg: Any
    S: int
    E: int

    def add_point(self, x: float, y: float) -> int: ...  # pragma: no cover
    def remove_point(self, node: int) -> None: ...  # pragma: no cover
    def node_point(self, node: int) -> "Point": ...  # pragma: no cover
    def add_obstacles(self, batch: Iterable["Obstacle"]) -> int: ...  # pragma: no cover
    def dijkstra_order(self, source: int, prune_bound: float = math.inf
                       ) -> Iterator[Tuple[float, int, Optional[int]]]: ...  # pragma: no cover
    def shortest_distances(self, source: int, targets: Iterable[int],
                           cutoff: float = math.inf,
                           prune_bound: float = math.inf
                           ) -> Dict[int, float]: ...  # pragma: no cover
    def visible_region_of(self, node: int) -> "IntervalSet": ...  # pragma: no cover


class VGSession:
    """One query's engine-facing view of a backend's visibility graph.

    Presents exactly the :class:`ObstructedGraph` surface the engines and
    obstacle feeds already consume, while translating between per-query
    semantics and the (possibly shared, longer-lived) underlying graph:

    * obstacle admission is tracked per session, so ``add_obstacles``
      returns the count *new to this query* and ``svg_size`` reports this
      query's |SVG| even when the shared graph already held everything;
    * the graph's work block is taken at attach (what came before is not
      this query's) and again on :meth:`detach`, which flushes it into
      both the backend's cumulative
      :class:`~repro.routing.stats.BackendStats` and the query's own
      stats block.
    """

    def __init__(self, backend: "ObstructedDistanceBackend",
                 graph: "LocalVisibilityGraph", qseg: "Segment",
                 qstats: Optional["QueryStats"], *, shared: bool,
                 built: bool, build_time_s: float = 0.0,
                 spawned: bool = False):
        self._backend = backend
        self.graph = graph
        self.qseg = qseg
        self._qstats = qstats
        self.shared = shared
        self._built = built
        self._spawned = spawned
        self._build_time_s = build_time_s
        self.S = graph.S
        self.E = graph.E
        self._admitted: Set["Obstacle"] = set()
        self._svg_vertices = 0
        _take_work(graph)
        self._closed = False

    # ------------------------------------------------------- graph surface
    def add_point(self, x: float, y: float) -> int:
        return self.graph.add_point(x, y)

    def remove_point(self, node: int) -> None:
        self.graph.remove_point(node)

    def node_point(self, node: int) -> "Point":
        return self.graph.node_point(node)

    def neighbors(self, node: int) -> Dict[int, float]:
        return self.graph.neighbors(node)

    def dijkstra_order(self, source: int, prune_bound: float = math.inf
                       ) -> Iterator[Tuple[float, int, Optional[int]]]:
        return self.graph.dijkstra_order(source, prune_bound)

    def settled_traversal(self, source: int, prune_bound: float = math.inf):
        return self.graph.settled_traversal(source, prune_bound)

    def shortest_distances(self, source: int, targets: Iterable[int],
                           cutoff: float = math.inf,
                           prune_bound: float = math.inf) -> Dict[int, float]:
        return self.graph.shortest_distances(source, targets, cutoff,
                                             prune_bound)

    def shortest_path(self, source: int, target: int
                      ) -> Tuple[float, List[int]]:
        return self.graph.shortest_path(source, target)

    def visible_region_of(self, node: int) -> "IntervalSet":
        return self.graph.visible_region_of(node)

    def add_obstacles(self, batch: Iterable["Obstacle"]) -> int:
        """Admit obstacles into this query's view (and the graph).

        Returns the number new *to this session* — on a shared graph an
        obstacle may already be resident from an earlier query, but it
        still counts toward this query's NOE exactly as the per-query
        backend would have counted it.
        """
        fresh = [o for o in batch if o not in self._admitted]
        if not fresh:
            return 0
        self._admitted.update(fresh)
        self._svg_vertices += sum(len(o.vertices()) for o in fresh)
        self.graph.add_obstacles(fresh)
        return len(fresh)

    # ----------------------------------------------------------- accounting
    @property
    def svg_size(self) -> int:
        """|SVG| of this query: endpoints plus admitted obstacle vertices."""
        return 2 + self._svg_vertices

    # ------------------------------------------------------------ lifecycle
    def detach(self) -> None:
        """End the session: flush counters, release the graph.

        Idempotent; on a shared backend this unbinds the query endpoints so
        the next query can attach.
        """
        if self._closed:
            return
        self._closed = True
        work = _take_work(self.graph)
        work.sessions = 1
        work.graphs_built = int(self._built)
        work.graph_reuses = int(self.shared and not self._built)
        work.graph_spawns = int(self._spawned)
        work.build_time_s = self._build_time_s
        # The block merges under the backend's stats lock: parallel
        # sessions detaching together must not race the shared integers.
        self._backend._merge_stats(work)
        if self._qstats is not None:
            self._qstats.backend.merge(work)
            self._qstats.visibility_tests += work.visibility_tests
            self._qstats.backend_name = self._backend.name
        self._backend._release(self)

    def __enter__(self) -> "VGSession":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.detach()


@runtime_checkable
class ObstructedDistanceBackend(Protocol):
    """What the planner and executor need from a distance backend."""

    name: str
    stats: BackendStats

    def attach_endpoints(self, qseg: "Segment",
                         stats: Optional["QueryStats"] = None
                         ) -> VGSession: ...  # pragma: no cover

    def note_obstacle_insert(self, obstacle: "Obstacle") -> None: ...  # pragma: no cover

    def note_obstacle_remove(self, obstacle: "Obstacle") -> None: ...  # pragma: no cover


class _BackendBase:
    """Shared protocol plumbing: the stats block and no-op maintenance."""

    name = "backend"

    def __init__(self) -> None:
        self.stats = BackendStats()
        self._stats_lock = threading.Lock()

    def _merge_stats(self, delta: BackendStats) -> None:
        """Fold one session's or maintenance step's work into the
        cumulative block."""
        with self._stats_lock:
            self.stats.merge(delta)

    def note_obstacle_insert(self, obstacle: "Obstacle") -> None:
        """Announced obstacle insert; stateless backends ignore it."""

    def note_obstacle_remove(self, obstacle: "Obstacle") -> None:
        """Announced obstacle removal; stateless backends ignore it."""

    def _release(self, session: VGSession) -> None:
        """Session teardown hook (the per-query graph just gets dropped)."""


class PerQueryVGBackend(_BackendBase):
    """One throwaway local visibility graph per query (the paper's mode).

    Stateless across queries: every :meth:`attach_endpoints` builds a fresh
    anchored graph, so a cold one-shot pays exactly the seed algorithm's
    cost and nothing lingers afterwards.
    """

    name = PER_QUERY_VG

    def attach_endpoints(self, qseg: "Segment",
                         stats: Optional["QueryStats"] = None) -> VGSession:
        """Open a session on a fresh graph anchored at ``qseg``."""
        from ..obstacles.visgraph import LocalVisibilityGraph

        t0 = time.perf_counter()
        graph = LocalVisibilityGraph(qseg)
        return VGSession(self, graph, qseg, stats, shared=False, built=True,
                         build_time_s=time.perf_counter() - t0)


class SharedVGBackend(_BackendBase):
    """A workspace-owned persistent visibility graph shared across queries.

    Args:
        obstacle_tree: the R*-tree whose ``version`` counter guards the
            graph against unannounced mutations (the obstacle tree on 2T,
            the unified tree on 1T).
        cache: the workspace's obstacle cache; graphs are seeded lazily
            from its resident obstacles (the capsules' contents) and grow
            further as queries retrieve past the cached footprint.
        max_pool: idle graphs kept for concurrent sessions beyond the
            primary (spares above the bound are dropped on release).

    The *primary* graph is built on first attach and reused by every later
    serial session — exactly the pre-concurrency behavior, same stats.
    Under concurrency the backend holds a small **pool**: a session that
    attaches while every resident graph is busy gets its own graph —
    either a pre-provisioned clone of the primary skeleton
    (:meth:`prepare_sessions`, cached adjacency rows included) or a fresh
    build from the obstacle cache — and returns it to the pool on detach.
    Each graph serves exactly one session at a time, so no query ever
    traverses a graph another thread is mutating, and the work block a
    session takes from its graph is its own.

    Maintenance runs with the workspace write lock held (no session in
    flight): ``note_obstacle_insert`` patches every resident graph in
    place (adjacency rows self-repair lazily, exactly as IOR insertion
    always has); ``note_obstacle_remove`` repairs every resident graph
    surgically — removal only *adds* visibility, so only the absent pairs
    the removed obstacle's padded bbox could have been blocking are
    re-tested, in one batched launch per graph.  A tree version
    mismatch at attach time means someone mutated the index behind the
    workspace's back: every graph is dropped, never served stale.  Each
    drop bumps :attr:`generation`, the freshness token workspace
    snapshots pin; repairs leave it untouched (nothing was dropped).
    """

    name = SHARED_VG

    def __init__(self, obstacle_tree: "RStarTree", cache: Any = None,
                 max_pool: int = 8):
        super().__init__()
        self.tree = obstacle_tree
        self.cache = cache
        self.max_pool = max_pool
        self._graph: Optional["LocalVisibilityGraph"] = None
        self._primary_busy = False
        self._idle: List["LocalVisibilityGraph"] = []
        self._tree_version = obstacle_tree.version
        self.generation = 0
        """Bumped whenever resident graphs are dropped (invalidation,
        announced removal).  Workspace snapshots pin it; pooled spares
        stamped with an older generation are discarded instead of served."""
        self._stamps: Dict[int, int] = {}
        self._lock = threading.RLock()

    # ---------------------------------------------------------- maintenance
    @property
    def ready(self) -> bool:
        """True when the primary graph is built (the planner's warm signal)."""
        return self._graph is not None

    @property
    def resident_obstacles(self) -> int:
        """Obstacles resident in the primary graph (0 when down)."""
        return len(self._graph.obstacles) if self._graph is not None else 0

    @property
    def pooled_graphs(self) -> int:
        """Idle spare graphs currently pooled for concurrent sessions."""
        return len(self._idle)

    def _drop(self) -> None:
        self._graph = None
        self._primary_busy = False
        self._idle.clear()
        self._stamps.clear()
        self.generation += 1

    def invalidate(self) -> None:
        """Drop every resident graph (rebuilds lazily on next attach)."""
        with self._lock:
            if self._graph is not None or self._idle:
                with self._stats_lock:
                    self.stats.invalidations += 1
            self._drop()

    def sync_tree_version(self) -> None:
        """Adopt the tree's version for mutations that cannot affect the
        graph (data-point updates on a 1T unified tree)."""
        with self._lock:
            self._tree_version = self.tree.version

    def _absorb_announced_mutation(self) -> bool:
        """Version bookkeeping shared by the two ``note_obstacle_*`` hooks.

        Mirrors the obstacle cache's guard: surgical repair is only sound
        when the announced mutation is the *only* thing that happened to
        the tree since the last sync.
        """
        if self.tree.version != self._tree_version + 1:
            self.invalidate()
            self._tree_version = self.tree.version
            return False
        self._tree_version = self.tree.version
        return True

    def note_obstacle_insert(self, obstacle: "Obstacle") -> None:
        """Patch an announced insert into every resident graph.

        Vertices register immediately; cached adjacency rows repair
        themselves lazily on next access (the same incremental mechanism
        IOR insertion uses), so the patch is O(vertices) per graph.  Called
        under the workspace write lock, so no graph is mid-traversal.
        """
        with self._lock:
            if not self._absorb_announced_mutation():
                return
            patched = False
            for graph in self._resident_graphs():
                graph.add_obstacles([obstacle])
                patched = True
            if patched:
                with self._stats_lock:
                    self.stats.patched += 1

    def note_obstacle_remove(self, obstacle: "Obstacle") -> None:
        """Absorb an announced removal into every resident graph.

        Each resident graph repairs itself surgically — the obstacle's own
        vertices are deleted and only the absent sight-line pairs its
        padded bbox could have been blocking are re-tested, in one batched
        launch per graph
        (see :meth:`~repro.obstacles.visgraph.LocalVisibilityGraph.remove_obstacle`).
        Cached rows, traversal memos for unaffected sources, and pooled
        spares all survive; :attr:`generation` does **not** bump, because
        no graph was dropped.  Called under the workspace write lock, so
        no graph is mid-traversal.
        """
        with self._lock:
            if not self._absorb_announced_mutation():
                return
            for graph in self._resident_graphs():
                _take_work(graph)
                graph.remove_obstacle(obstacle)
                self._merge_stats(_take_work(graph))

    def _resident_graphs(self) -> Iterator["LocalVisibilityGraph"]:
        if self._graph is not None:
            yield self._graph
        yield from self._idle

    def warm(self, obstacles: Optional[Iterable["Obstacle"]] = None) -> int:
        """Build the primary graph now, optionally over extra obstacles.

        The eager-warmup entry point: cold shared workspaces and the shard
        router's freshly merged environments call it so the first query
        lands on a fully materialized skeleton instead of paying
        per-settle kernel launches: every missing row is cut in one
        batched pass.  ``obstacles`` beyond the cache's resident set are
        admitted first, so a merged environment can warm exactly the
        union its shards contributed.  Also flips :attr:`ready`, which
        the planner reads as the auto-mode warm signal.

        Returns:
            Number of obstacles resident in the primary graph afterwards.
        """
        with self._lock:
            if self.tree.version != self._tree_version:
                self.invalidate()
                self._tree_version = self.tree.version
            if self._graph is None:
                self._graph, build_time = self._build_graph(extra=obstacles)
                with self._stats_lock:
                    self.stats.graphs_built += 1
                    self.stats.build_time_s += build_time
                # _build_graph already admitted the extra obstacles and
                # materialized every row.
                return len(self._graph.obstacles)
            graph = self._graph
            t0 = time.perf_counter()
            _take_work(graph)
            if obstacles is not None:
                graph.add_obstacles(obstacles)
            graph.build_all()
            work = _take_work(graph)
            work.build_time_s = time.perf_counter() - t0
            self._merge_stats(work)
            return len(self._graph.obstacles)

    # ------------------------------------------------------------- sessions
    def _build_graph(self, extra: Optional[Iterable["Obstacle"]] = None
                     ) -> Tuple["LocalVisibilityGraph", float]:
        """A fresh graph seeded from the obstacle cache, with build time.

        Every adjacency row of the seeded skeleton is cut eagerly in one
        batched pass (``build_all``) — the cold-start cost moves from one
        kernel launch per settled node to a handful per build.  The build's
        work is taken from the fresh graph and merged straight into the
        backend stats, so a session that triggered the build does not
        count it again.
        """
        from ..obstacles.visgraph import LocalVisibilityGraph

        t0 = time.perf_counter()
        if self.cache is not None:
            seed = (self.cache.resident() if hasattr(self.cache, "resident")
                    else list(self.cache.obstacles))
        else:
            seed = []
        graph = LocalVisibilityGraph(obstacles=seed)
        if extra is not None:
            graph.add_obstacles(extra)
        if len(graph.obstacles):
            graph.build_all()
            self._merge_stats(_take_work(graph))
        return graph, time.perf_counter() - t0

    def prepare_sessions(self, n: int) -> int:
        """Pre-provision graphs so ``n`` sessions can attach concurrently.

        Clones the primary skeleton — cached adjacency rows included, the
        asset a cold spawn from the obstacle cache would lose — until the
        primary plus idle spares cover ``n`` concurrent sessions (bounded
        by ``max_pool``).  A no-op while the backend is cold: spawning
        graphs nobody may use would charge builds to workloads that never
        go parallel.

        Returns:
            Number of clones created.
        """
        with self._lock:
            if self._graph is None or self._primary_busy:
                return 0
            want = min(n - 1, self.max_pool) - len(self._idle)
            if want > 0:
                # Warm the primary's full row set once, in bulk, so every
                # clone carries a complete adjacency cache instead of each
                # worker paying the per-settle launches separately.
                _take_work(self._graph)
                self._graph.build_all()
                self._merge_stats(_take_work(self._graph))
            made = 0
            for _ in range(max(0, want)):
                clone = self._graph.clone_skeleton()
                self._stamps[id(clone)] = self.generation
                self._idle.append(clone)
                made += 1
            if made:
                with self._stats_lock:
                    self.stats.graph_clones += made
            return made

    def attach_endpoints(self, qseg: "Segment",
                         stats: Optional["QueryStats"] = None) -> VGSession:
        """Bind a query's endpoints to a resident graph.

        The primary graph serves when idle (the serial fast path).  While
        it is busy — a concurrent query, or a nested sub-query inside one
        session — the session gets a pooled spare, or a freshly spawned
        graph seeded from the obstacle cache when no spare is idle.  Every
        graph hosts one session at a time; results are identical on any of
        them (the superset-soundness argument in the module docstring).
        """
        with self._lock:
            if self.tree.version != self._tree_version:
                self.invalidate()
                self._tree_version = self.tree.version
            built = spawned = False
            build_time = 0.0
            if self._graph is None:
                self._graph, build_time = self._build_graph()
                built = True
                graph = self._graph
                self._primary_busy = True
            elif not self._primary_busy:
                graph = self._graph
                self._primary_busy = True
            else:
                while self._idle:
                    candidate = self._idle.pop()
                    if self._stamps.get(id(candidate)) == self.generation:
                        graph = candidate
                        break
                    self._stamps.pop(id(candidate), None)
                else:
                    graph, build_time = self._build_graph()
                    self._stamps[id(graph)] = self.generation
                    built = spawned = True
            graph.bind(qseg)
        return VGSession(self, graph, qseg, stats, shared=True,
                         built=built, build_time_s=build_time,
                         spawned=spawned)

    def _release(self, session: VGSession) -> None:
        graph = session.graph
        with self._lock:
            if graph.qseg is not None:
                graph.unbind()
            # Every query leaves its transient endpoints and evaluated data
            # points behind as dead append-only slots; compact once they
            # outnumber the live skeleton so a long-lived workspace stays
            # O(obstacle vertices), not O(queries ever served).  Cached
            # adjacency rows — the amortized asset — survive compaction.
            if graph.dead_slots > max(64, graph.num_nodes):
                graph.compact()
                with self._stats_lock:
                    self.stats.compactions += 1
            if graph is self._graph:
                self._primary_busy = False
                return
            if (self._stamps.get(id(graph)) == self.generation
                    and len(self._idle) < self.max_pool):
                self._idle.append(graph)
            else:
                self._stamps.pop(id(graph), None)
