"""The :class:`Workspace` facade and :class:`QueryService`.

A workspace owns the indexes of one dataset — the 2T layout's separate data
and obstacle R*-trees, or the 1T unified tree — plus a per-dataset
:class:`~repro.service.cache.ObstacleCache`, and is the execution target of
the declarative query API (:mod:`repro.query`):

* :meth:`Workspace.plan` turns a typed query description into a
  :class:`~repro.query.planner.QueryPlan` (algorithm + layout selection,
  capsule-based obstacle-I/O estimate, human-readable ``explain()``);
* :meth:`Workspace.execute` runs one query through
  :mod:`repro.query.executor`, :meth:`Workspace.stream` runs a lazy
  sequence, and :meth:`Workspace.execute_many` runs a batch reordered by
  spatial locality with capsule-driven prefetches — results always come
  back in submission order;
* the classic convenience methods (``conn``, ``coknn``, ``onn``, ``range``,
  ``batch``, ``trajectory``) and the free functions of :mod:`repro.core`
  are thin shims over ``execute()``, so the planner is the single code
  path for every query in the library;
* :class:`QueryService` is the asynchronous front (``serve`` / ``submit``)
  over ``execute()``.

Build a workspace whenever more than one query hits the same dataset::

    ws = Workspace.from_trees(data_tree, obstacle_tree)
    print(ws.plan(CoknnQuery(seg, knn=3)).explain())
    results = ws.execute_many([CoknnQuery(s) for s in segments])
    print(ws.cache_stats.hit_rate, results[0].stats.obstacle_reads)
"""

from __future__ import annotations

import threading

from typing import (
    Any,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)


from ..core.config import ConnConfig
from ..core.conn_1t import build_unified_tree
from ..core.engine import ConnResult
from ..core.stats import QueryStats
from ..core.trajectory import TrajectoryResult
from ..geometry.point import require_finite_points
from ..geometry.rectangle import Rect
from ..geometry.segment import Segment
from ..index.rstar import RStarTree
from ..obstacles.obstacle import Obstacle, require_blocking
from ..query.executor import execute as _execute
from ..query.executor import execute_many as _execute_many
from ..query.planner import QueryPlan, build_plan
from ..query.queries import (
    CoknnQuery,
    ConnQuery,
    OnnQuery,
    Query,
    RangeQuery,
    TrajectoryQuery,
    as_query_point,
    as_range_args,
)
from ..query.results import QueryResult
from ..routing.backends import (
    PER_QUERY_VG,
    SHARED_VG,
    ObstructedDistanceBackend,
    PerQueryVGBackend,
    SharedVGBackend,
)
from .cache import CacheStats, ObstacleCache
from .concurrency import ReadWriteLock
from .snapshot import WorkspaceSnapshot
from .updates import (
    AddObstacle,
    AddSite,
    RemoveObstacle,
    RemoveSite,
    Update,
)


class Workspace:
    """Shared state for answering many queries over one dataset.

    Args:
        data_tree: R*-tree over data points (2T layout).
        obstacle_tree: R*-tree over obstacles (2T layout).
        unified_tree: one R*-tree holding both (1T layout); mutually
            exclusive with the pair above.
        backend: obstructed-distance backend policy — ``"auto"`` (default:
            the workspace-shared graph when a query plans warm or the
            shared graph is already built, a per-query graph for cold
            one-shots), or ``"shared"`` / ``"per-query"`` to force one.
            Answers are identical either way; only where the visibility
            graph work lands changes.
    """

    def __init__(self, data_tree: Optional[RStarTree] = None,
                 obstacle_tree: Optional[RStarTree] = None,
                 unified_tree: Optional[RStarTree] = None, *,
                 backend: str = "auto"):
        if unified_tree is not None:
            if data_tree is not None or obstacle_tree is not None:
                raise ValueError("pass either unified_tree or the "
                                 "data/obstacle tree pair, not both")
            self.layout = "1T"
        else:
            if data_tree is None or obstacle_tree is None:
                raise ValueError("the 2T layout needs both data_tree and "
                                 "obstacle_tree")
            self.layout = "2T"
        self.data_tree = data_tree
        self.obstacle_tree = obstacle_tree
        self.unified_tree = unified_tree
        self.backend = backend
        backing = obstacle_tree if obstacle_tree is not None else unified_tree
        self.cache = ObstacleCache(backing)
        self.routing = SharedVGBackend(backing, self.cache)
        """The workspace-shared obstructed-distance backend: one persistent
        visibility graph, patched by :meth:`apply` and selected by the
        planner for warm queries (see :mod:`repro.routing`)."""
        self.per_query_backend = PerQueryVGBackend()
        """The throwaway-graph backend cold one-shot queries run on."""
        self._service = QueryService(self)
        self.version = 0
        """Workspace mutation counter: bumped by every applied update.
        Prepared :class:`~repro.query.planner.QueryPlan` objects record the
        version they were planned at; the executor re-plans any plan whose
        recorded version no longer matches."""
        self._monitors = None
        self._rw = ReadWriteLock()
        self.snapshots_taken = 0
        """Snapshots handed out by :meth:`snapshot` (a concurrency-stats
        input)."""

    # ----------------------------------------------------------- constructors
    @classmethod
    def from_trees(cls, data_tree: RStarTree, obstacle_tree: RStarTree,
                   **kwargs: Any) -> "Workspace":
        """A 2T workspace over existing trees."""
        return cls(data_tree=data_tree, obstacle_tree=obstacle_tree, **kwargs)

    @classmethod
    def from_unified(cls, tree: RStarTree, **kwargs: Any) -> "Workspace":
        """A 1T workspace over a tree built by ``build_unified_tree``."""
        return cls(unified_tree=tree, **kwargs)

    @classmethod
    def from_points(cls, points: Iterable[Tuple[Any, Tuple[float, float]]],
                    obstacles: Iterable[Obstacle], layout: str = "2T",
                    page_size: int = 4096, **kwargs: Any) -> "Workspace":
        """Bulk-load fresh indexes from raw points and obstacles.

        Args:
            points: iterable of ``(payload, (x, y))``.
            obstacles: iterable of :class:`~repro.obstacles.obstacle.Obstacle`.
            layout: ``"2T"`` (separate trees, the paper's default) or
                ``"1T"`` (one unified tree).

        Raises:
            ValueError: on a site with a NaN or infinite coordinate, or a
                zero-area :class:`~repro.obstacles.obstacle.RectObstacle`.
        """
        points = list(points)
        require_finite_points("site", (xy for _payload, xy in points))
        obstacles = list(obstacles)
        for o in obstacles:
            require_blocking(o)
        if layout == "1T":
            return cls.from_unified(
                build_unified_tree(points, obstacles, page_size=page_size),
                **kwargs)
        if layout != "2T":
            raise ValueError(f"unknown layout {layout!r}")
        data_tree = RStarTree.bulk_load(
            ((pid, Rect.point(x, y)) for pid, (x, y) in points),
            page_size=page_size)
        obstacle_tree = RStarTree.bulk_load(
            ((o, o.mbr()) for o in obstacles), page_size=page_size)
        return cls.from_trees(data_tree, obstacle_tree, **kwargs)

    # ------------------------------------------------------------ snapshots
    def read_lock(self):
        """The workspace's shared read hold (a context manager).

        Every query execution runs inside one; acquire it directly to pin
        the workspace across *several* operations — e.g. a parallel batch
        followed by a serial verification pass over the same state.
        Re-entrant per thread; updates (:meth:`apply`) wait until all read
        holds drain.
        """
        return self._rw.read()

    def snapshot(self) -> "WorkspaceSnapshot":
        """Pin the current workspace version for isolated execution.

        Cheap (a few integers; nothing is copied).  The returned
        :class:`~repro.service.snapshot.WorkspaceSnapshot` executes
        queries against exactly this version and raises
        :class:`~repro.service.concurrency.SnapshotExpired` once the
        workspace has moved on.
        """
        return WorkspaceSnapshot(self)

    @property
    def epoch_waits(self) -> int:
        """Times an update had to wait for in-flight snapshot queries."""
        return self._rw.write_waits

    # -------------------------------------------------------------- warm-up
    def prefetch(self, rect: Rect, margin: float = 0.0) -> int:
        """Warm the obstacle cache for a rectangular region of interest."""
        return self.cache.prefetch(rect, margin=margin)

    def prefetch_segment(self, segment: Segment, radius: float) -> int:
        """Warm the cache for everything within ``radius`` of ``segment``."""
        return self.cache.prefetch_segment(segment, radius)

    def prefetch_all(self) -> int:
        """Load the entire obstacle set; no query reads the tree afterwards."""
        return self.cache.prefetch_all()

    @property
    def cache_stats(self) -> CacheStats:
        """Cumulative obstacle-cache counters across every query so far."""
        return self.cache.stats

    # -------------------------------------------------------------- mutation
    @property
    def monitors(self):
        """The continuous-query registry bound to this workspace.

        Created on first access; see :mod:`repro.monitor`.  Registered
        monitors receive incremental repair on every applied update.
        """
        if self._monitors is None:
            from ..monitor.registry import MonitorRegistry

            self._monitors = MonitorRegistry(self)
        return self._monitors

    def add_site(self, payload: Any, x, y: Optional[float] = None) -> bool:
        """Insert a data point; accepts ``(payload, x, y)`` or a point-like."""
        pt = as_query_point(x, y)
        return self._apply_one(AddSite(payload, pt.x, pt.y))

    def remove_site(self, payload: Any, x,
                    y: Optional[float] = None) -> bool:
        """Delete a data point; True when it was found and removed."""
        pt = as_query_point(x, y)
        return self._apply_one(RemoveSite(payload, pt.x, pt.y))

    def add_obstacle(self, obstacle: Obstacle) -> bool:
        """Insert an obstacle, surgically patching the obstacle cache."""
        return self._apply_one(AddObstacle(obstacle))

    def remove_obstacle(self, obstacle: Obstacle) -> bool:
        """Delete an obstacle, evicting it from the obstacle cache.

        Returns:
            True when it was found and removed.
        """
        return self._apply_one(RemoveObstacle(obstacle))

    def apply(self, updates: Iterable[Update]) -> List[bool]:
        """Apply a batch of typed updates in order.

        Each update routes to the layout's R*-trees, maintains the obstacle
        cache surgically (insert patch / remove evict — never a silent
        stale serve), bumps :attr:`version`, and triggers incremental
        repair of every registered monitor.

        Returns:
            Per-update success flags (False only for removals that found
            nothing to remove).
        """
        return [self._apply_one(u) for u in updates]

    def _apply_one(self, update: Update) -> bool:
        """Route one update; returns False for a no-match removal.

        The index mutation, the cache/routing maintenance, and the version
        bump happen atomically under the workspace **write lock** — an
        update waits for in-flight snapshot queries to drain (an epoch
        wait) and no query can start until the trees, the obstacle cache,
        and the shared visibility graph have moved to the new version
        together.  Monitor repair runs *after* the write releases: repair
        executes queries of its own, which take read holds on the freshly
        published version.

        Raises:
            ValueError: on an obstacle insert that could block nothing (a
                zero-area rect), before anything is mutated.
        """
        if isinstance(update, AddObstacle):
            require_blocking(update.obstacle)
        with self._rw.write():
            if isinstance(update, (AddSite, RemoveSite)):
                tree = (self.data_tree if self.layout == "2T"
                        else self.unified_tree)
                if isinstance(update, AddSite):
                    tree.insert_point(update.payload, update.x, update.y)
                    applied = True
                else:
                    applied = tree.delete(update.payload,
                                          Rect.point(update.x, update.y))
                # On 1T the cache's backing tree just changed version, but
                # data points are invisible to obstacle coverage: adopt,
                # don't drop.
                if applied and self.layout == "1T":
                    self.cache.sync_tree_version()
                    self.routing.sync_tree_version()
            elif isinstance(update, (AddObstacle, RemoveObstacle)):
                tree = (self.obstacle_tree if self.layout == "2T"
                        else self.unified_tree)
                if isinstance(update, AddObstacle):
                    tree.insert(update.obstacle, update.obstacle.mbr())
                    self.cache.note_obstacle_insert(update.obstacle)
                    self.routing.note_obstacle_insert(update.obstacle)
                    applied = True
                else:
                    applied = tree.delete(update.obstacle,
                                          update.obstacle.mbr())
                    if applied:
                        self.cache.note_obstacle_remove(update.obstacle)
                        self.routing.note_obstacle_remove(update.obstacle)
            else:
                raise TypeError(
                    f"unknown update type {type(update).__name__}")
            if applied:
                self.version += 1
        if applied and self._monitors is not None:
            self._monitors.notify(update)
        return applied

    # ------------------------------------------------- declarative interface
    @property
    def service(self) -> "QueryService":
        """The asynchronous serving front bound to this workspace."""
        return self._service

    def backend_for(self, name: str) -> Optional[ObstructedDistanceBackend]:
        """Resolve a planned backend name to the workspace's instance.

        ``None`` for backends the engines do not attach (the joins'
        pairwise oracle manages its own graph).
        """
        if name == SHARED_VG:
            return self.routing
        if name == PER_QUERY_VG:
            return self.per_query_backend
        return None

    def plan(self, query: Query, backend: Optional[str] = None) -> QueryPlan:
        """Plan a typed query: algorithm, layout, backend, estimated I/O.

        The returned plan renders a human-readable transcript via
        ``plan.explain()`` and can be passed to :meth:`execute` to run
        exactly as planned.

        Args:
            backend: override the workspace's backend policy for this plan
                (``"shared"`` / ``"per-query"`` / ``"auto"``).
        """
        return build_plan(self, query, backend=backend)

    def execute(self, query: Query | QueryPlan) -> QueryResult:
        """Execute one typed query (or a prepared plan).

        Every result satisfies the unified protocol: ``.tuples()``,
        ``.stats``, and a ``.query`` back-reference to the submission.
        Execution runs inside a read hold, so a concurrent :meth:`apply`
        can never be observed mid-query.
        """
        with self._rw.read():
            return _execute(self, query)

    def execute_many(self, queries: Iterable[Query], *,
                     schedule: str = "locality", workers: int = 1,
                     mode: str = "thread") -> List[QueryResult]:
        """Execute a batch of typed queries, reordered for cache locality.

        With the default ``schedule="locality"`` the executor buckets
        queries by spatial proximity (grid + Hilbert order) and issues
        capsule-driven prefetches so cache hits compound across the batch;
        ``schedule="fifo"`` preserves submission order exactly.  Results
        are always returned in submission order.

        Args:
            workers: with ``workers > 1``, locality buckets are
                partitioned across a worker pool and executed in parallel
                against one snapshot of this workspace (results identical
                to serial execution; see :mod:`repro.query.parallel`).
            mode: ``"thread"`` (share this process's caches through their
                locks) or ``"fork"`` (fan out over forked worker
                processes — true multi-core parallelism; POSIX only).

        The whole batch runs under one read hold: concurrent updates wait
        for it to drain and every query of the batch sees the same
        workspace version.
        """
        if workers > 1:
            from ..query.parallel import execute_many_parallel

            # Snapshot *inside* the read hold: this entry point promises
            # plain thread-safety, so a concurrent apply() between pinning
            # and verification must wait for the batch rather than expire
            # it (explicit snapshots, which can expire, stay available via
            # WorkspaceSnapshot.execute_many).
            with self._rw.read():
                return execute_many_parallel(self.snapshot(), queries,
                                             schedule=schedule,
                                             workers=workers, mode=mode)
        with self._rw.read():
            return _execute_many(self, queries, schedule=schedule)

    def stream(self, queries: Iterable[Query]) -> Iterator[QueryResult]:
        """Lazily execute ``queries`` in submission order as an iterator.

        Each query takes its own read hold as the iterator advances —
        updates may interleave *between* queries of a stream (use
        :meth:`snapshot` + :meth:`~WorkspaceSnapshot.execute` to pin one
        version across a whole stream instead).
        """
        return (self.execute(q) for q in queries)

    # ------------------------------------------------------ legacy shortcuts
    def conn(self, query: Segment,
             config: Optional[ConnConfig] = None) -> ConnResult:
        """Continuous obstructed NN query (k = 1) on this workspace."""
        return self.execute(ConnQuery(query, config=config))

    def coknn(self, query: Segment, k: int = 1,
              config: Optional[ConnConfig] = None) -> ConnResult:
        """Continuous obstructed k-NN query on this workspace."""
        return self.execute(CoknnQuery(query, k, config=config))

    def onn(self, x, y: Optional[float] = None, k: int = 1,
            config: Optional[ConnConfig] = None
            ) -> Tuple[List[Tuple[Any, float]], QueryStats]:
        """Snapshot obstructed k-NN at a point on this workspace.

        The point may be given as bare floats ``onn(x, y)``, as one tuple
        ``onn((x, y))``, or as a :class:`~repro.geometry.point.Point`.
        """
        res = self.execute(OnnQuery(as_query_point(x, y), k, config=config))
        return res.tuples(), res.stats

    def range(self, x, y: Optional[float] = None,
              radius: Optional[float] = None
              ) -> Tuple[List[Tuple[Any, float]], QueryStats]:
        """Obstructed range query at a point on this workspace.

        Accepts ``range(x, y, radius)``, ``range((x, y), radius)``, or
        ``range(Point(x, y), radius)``.
        """
        point, r = as_range_args(x, y, radius)
        res = self.execute(RangeQuery(point, r))
        return res.tuples(), res.stats

    def batch(self, queries: Sequence[Segment], k: int = 1,
              config: Optional[ConnConfig] = None) -> List[ConnResult]:
        """Answer CONN/COkNN queries in submission order, sharing the cache.

        The legacy fifo batch; use :meth:`execute_many` for the
        locality-scheduled planner path.
        """
        return self.execute_many(
            [CoknnQuery(q, k, config=config) for q in queries],
            schedule="fifo")

    def trajectory(self, waypoints: Sequence[Tuple[float, float]], k: int = 1,
                   config: Optional[ConnConfig] = None) -> TrajectoryResult:
        """Trajectory CONN/COkNN; adjacent legs share retrieved obstacles."""
        return self.execute(TrajectoryQuery(tuple(waypoints), k,
                                            config=config))


class QueryService:
    """The asynchronous serving front of a workspace.

    :meth:`serve` starts a background worker pool and :meth:`submit`
    hands it typed queries, returning futures; each query runs through the
    workspace's own :meth:`~Workspace.execute`, so anything with an
    ``execute`` method (a :class:`Workspace` or a
    :class:`~repro.shard.ShardedWorkspace`) can sit behind it.
    """

    def __init__(self, workspace: Any):
        self._ws = workspace
        self._pool = None
        self._pool_workers = 0
        self._pool_lock = threading.Lock()

    def serve(self, workers: int = 2) -> "QueryService":
        """Start (or resize) the service's background worker pool.

        After ``serve``, :meth:`submit` dispatches queries to the pool and
        returns futures immediately.  Usable as a context manager::

            with ws.service.serve(workers=4) as svc:
                futures = [svc.submit(q) for q in queries]
                answers = [f.result() for f in futures]
        """
        from concurrent.futures import ThreadPoolExecutor

        with self._pool_lock:
            if self._pool is not None and self._pool_workers != workers:
                self._pool.shutdown(wait=True)
                self._pool = None
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-serve")
                self._pool_workers = workers
        return self

    def submit(self, query: Query):
        """Submit one typed query for asynchronous execution.

        Returns:
            A :class:`concurrent.futures.Future` resolving to the query's
            unified result.  Each submitted query executes under its own
            read hold (one consistent workspace version per query);
            submissions may interleave freely with :meth:`Workspace.apply`
            from other threads.  Starts a default pool on first use if
            :meth:`serve` was not called.
        """
        from concurrent.futures import ThreadPoolExecutor

        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=2, thread_name_prefix="repro-serve")
                self._pool_workers = 2
            return self._pool.submit(self._ws.execute, query)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the background pool (no-op when never started)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=wait)
                self._pool = None
                self._pool_workers = 0

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
