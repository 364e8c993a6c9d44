""":class:`ShardedWorkspace` — spatial partitioning with border expansion.

One :class:`~repro.service.workspace.Workspace` is one region on one
snapshot; a :class:`ShardedWorkspace` is many regions serving together.
Sites and obstacles are partitioned into per-shard workspaces by a
:class:`~repro.shard.partition.Partitioner` (grid or Hilbert ranges —
the executor's locality orders, promoted to ownership); a router sends
each query to its owning shard(s); and a **border-expansion protocol**
keeps answers byte-identical to the unsharded workspace.

Why expansion is sound.  Sites are owned by exactly the shard containing
their location, and an obstacle is *replicated* into every shard whose
region its MBR overlaps.  Executing a query against a shard set ``S``
therefore sees every site inside ``region(S)`` and every obstacle
touching it.  An obstructed path of length ``L`` from the query footprint
stays inside the Euclidean ball of radius ``L`` around it — the same
influence-ball argument behind the monitor subsystem's affected-tests
(:func:`~repro.monitor.monitor.influence_radius`).  So once the ball of
the answer's influence radius ``R`` lies inside ``region(S)``:

* every path of length <= ``R`` valid under ``S``'s obstacles is valid
  under *all* obstacles (all obstacles intersecting the ball are in
  ``S``), and vice versa — distances at or below ``R`` are exact;
* every site outside ``region(S)`` is Euclidean-farther than ``R`` and
  cannot enter the answer.

The router runs the query on its footprint's home shard(s), computes
``R`` from the answer, and — whenever the ball still crosses a shard
edge — widens ``S`` with the neighbors the ball touches and re-executes
on the merged environment (neighbor margins + home, obstacles deduped by
identity).  The shard set grows monotonically, so the loop terminates,
and at the fixpoint the answer equals the unsharded one bit for bit
(asserted by ``tests/test_shard_equivalence.py`` and
``tests/test_sharded_workspace.py``).

Updates fan out through :meth:`ShardedWorkspace.apply` only to affected
shards; per-shard snapshot isolation falls out of each shard's
:meth:`~repro.service.workspace.Workspace.snapshot`; and
:meth:`execute_many` schedules shard-local batches across the thread /
fork worker pool machinery of :mod:`repro.query.parallel`.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.config import ConnConfig
from ..geometry.point import require_finite_points
from ..geometry.rectangle import Rect
from ..geometry.segment import Segment
from ..monitor.monitor import influence_radius
from ..obstacles.obstacle import Obstacle
from ..query.executor import split_batch
from ..query.planner import QueryPlan
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
from ..service.concurrency import ReadWriteLock, SnapshotExpired
from ..service.updates import (
    AddObstacle,
    AddSite,
    RemoveObstacle,
    RemoveSite,
    Update,
)
from ..service.workspace import QueryService, Workspace
from .partition import GridPartitioner, Partitioner, bounds_of
from .stats import ShardStats

MERGE_CACHE_CAP = 32
"""Cross-shard merged environments kept warm before the oldest is dropped."""


class ShardedWorkspace:
    """Many per-region workspaces serving as one, with exact borders.

    Build one with :meth:`from_points` (fresh indexes, partitioned) or
    :meth:`from_workspace` (re-shard an existing 2T workspace).  The
    execution surface mirrors :class:`~repro.service.workspace.Workspace`
    — ``plan`` / ``execute`` / ``execute_many`` / ``stream``, the classic
    shorthands, ``apply`` and the update helpers, ``monitors``,
    ``snapshot()`` — so call sites can swap one in unchanged.

    Args:
        shards: the per-shard workspaces, indexed by shard id.
        partitioner: the ownership map the shards were split by.
        backend: the obstructed-distance backend policy of every shard and
            merged environment (see :class:`Workspace`).
    """

    def __init__(self, shards: Sequence[Workspace],
                 partitioner: Partitioner, *, backend: str = "auto"):
        if len(shards) != partitioner.num_shards:
            raise ValueError(
                f"partitioner expects {partitioner.num_shards} shards, "
                f"got {len(shards)}")
        for ws in shards:
            if ws.layout != "2T":
                raise ValueError("sharded workspaces require the 2T layout "
                                 "(per-shard obstacle trees)")
        self.shards = list(shards)
        self.partitioner = partitioner
        self.backend = backend
        self.layout = "2T"
        self.version = 0
        """Mutation counter: bumped by every applied update (the sharded
        analogue of :attr:`Workspace.version`)."""
        self.stats = ShardStats()
        """Cumulative :class:`~repro.shard.stats.ShardStats` across every
        routed query and applied update."""
        self.snapshots_taken = 0
        self._rw = ReadWriteLock()
        self._stats_lock = threading.Lock()
        self._merge_lock = threading.Lock()
        self._merged: "OrderedDict[FrozenSet[int], Workspace]" = OrderedDict()
        self._monitors = None
        self._service = QueryService(self)
        self._page_size = max((ws.obstacle_tree.page_size for ws in shards),
                              default=4096)

    # ----------------------------------------------------------- constructors
    @classmethod
    def from_points(cls, points: Iterable[Tuple[Any, Tuple[float, float]]],
                    obstacles: Iterable[Obstacle], *,
                    shards: int = 4,
                    partitioner: Optional[Partitioner] = None,
                    page_size: int = 4096,
                    backend: str = "auto") -> "ShardedWorkspace":
        """Partition raw points and obstacles into per-shard workspaces.

        Args:
            shards: shard count for the default grid partitioner (cut into
                the most-square ``nx`` x ``ny`` grid: 2 -> 2x1, 9 -> 3x3);
                ignored when an explicit ``partitioner`` is given.
            partitioner: ownership map; default is
                :meth:`GridPartitioner.square` over the data's bounds.

        Raises:
            ValueError: on a site with a NaN or infinite coordinate.
        """
        points = list(points)
        require_finite_points("site", (xy for _payload, xy in points))
        obstacles = list(obstacles)
        if partitioner is None:
            partitioner = GridPartitioner.square(
                bounds_of((xy for _p, xy in points),
                          (o.mbr() for o in obstacles)),
                shards)
        site_lists: List[List[Tuple[Any, Tuple[float, float]]]] = [
            [] for _ in range(partitioner.num_shards)]
        obstacle_lists: List[List[Obstacle]] = [
            [] for _ in range(partitioner.num_shards)]
        replicas = 0
        for payload, (x, y) in points:
            site_lists[partitioner.shard_of(float(x), float(y))].append(
                (payload, (float(x), float(y))))
        for o in obstacles:
            owners = partitioner.shards_for_rect(o.mbr())
            replicas += len(owners) - 1
            for sid in owners:
                obstacle_lists[sid].append(o)
        built = [Workspace.from_points(site_lists[sid], obstacle_lists[sid],
                                       layout="2T", page_size=page_size,
                                       backend=backend)
                 for sid in range(partitioner.num_shards)]
        sws = cls(built, partitioner, backend=backend)
        sws.stats.replicated_obstacles = replicas
        return sws

    @classmethod
    def from_workspace(cls, workspace: Workspace, *, shards: int = 4,
                       partitioner: Optional[Partitioner] = None
                       ) -> "ShardedWorkspace":
        """Re-shard an existing (2T) workspace's current contents."""
        if workspace.layout != "2T":
            raise ValueError("only 2T workspaces can be re-sharded")
        points = [(payload, (rect.xlo, rect.ylo))
                  for payload, rect in workspace.data_tree.items()]
        obstacles = [o for o, _mbr in workspace.obstacle_tree.items()]
        return cls.from_points(
            points, obstacles, shards=shards, partitioner=partitioner,
            page_size=workspace.obstacle_tree.page_size,
            backend=workspace.backend)

    # -------------------------------------------------------------- structure
    @property
    def num_shards(self) -> int:
        """Number of shards (== ``partitioner.num_shards``)."""
        return len(self.shards)

    @property
    def size(self) -> int:
        """Total sites across shards (sites are never replicated)."""
        return sum(ws.data_tree.size for ws in self.shards)

    def read_lock(self):
        """The sharded read hold (see :meth:`Workspace.read_lock`)."""
        return self._rw.read()

    def snapshot(self) -> "ShardedSnapshot":
        """Pin the current cross-shard version for isolated execution."""
        return ShardedSnapshot(self)

    @property
    def service(self) -> QueryService:
        """An async serving front (``serve`` / ``submit``) routing through
        this sharded workspace's :meth:`execute` — the same
        :class:`~repro.service.workspace.QueryService` single workspaces
        use."""
        return self._service

    # --------------------------------------------------------------- warm-up
    def prefetch(self, rect: Rect, margin: float = 0.0) -> int:
        """Warm the obstacle caches of every shard ``rect`` touches."""
        return sum(self.shards[sid].prefetch(rect, margin=margin)
                   for sid in sorted(self.partitioner.shards_for_rect(rect)))

    def prefetch_all(self) -> int:
        """Warm every shard's obstacle cache completely."""
        return sum(ws.prefetch_all() for ws in self.shards)

    # ---------------------------------------------------------------- routing
    def _initial_shards(self, query: Query) -> FrozenSet[int]:
        """Home shard set: everything the query footprint touches (all
        shards for non-spatial queries — the joins fan out globally)."""
        footprint = query.footprint()
        if footprint is None:
            return self.partitioner.all_shards()
        return self.partitioner.shards_for_rect(footprint)

    @staticmethod
    def _base_rect(query: Query) -> Optional[Rect]:
        """The query's *un-expanded* spatial anchor (``None`` = non-spatial).

        Unlike :meth:`Query.footprint`, a range query's anchor is the bare
        point — expansion adds the influence radius exactly once.
        """
        if isinstance(query, CoknnQuery):
            return Rect(*query.segment.bbox())
        if isinstance(query, (OnnQuery, RangeQuery)):
            return Rect.point(query.point.x, query.point.y)
        if isinstance(query, TrajectoryQuery):
            return Rect.from_points(query.waypoints)
        return None

    def _needed_shards(self, query: Query,
                       result: QueryResult) -> Optional[FrozenSet[int]]:
        """Shards the answer's influence ball touches (``None`` = no
        containment obligation — the query was already global)."""
        base = self._base_rect(query)
        if base is None:
            return None
        radius = influence_radius(query, result)
        if math.isinf(radius):
            return self.partitioner.all_shards()
        return self.partitioner.shards_for_rect(base.expanded(radius))

    def _environment(self, sids: FrozenSet[int]) -> Workspace:
        """The workspace answering for shard set ``sids``.

        A single shard answers directly; multi-shard sets get a merged
        workspace — member sites plus member obstacles deduped by obstacle
        identity (each boundary-straddling obstacle is replicated into
        every overlapping shard, so the union re-collapses to one copy) —
        cached and kept in sync by :meth:`apply` so repeated border
        crossings reuse one warm environment.
        """
        if len(sids) == 1:
            return self.shards[next(iter(sids))]
        key = frozenset(sids)
        with self._merge_lock:
            cached = self._merged.get(key)
            if cached is not None:
                self._merged.move_to_end(key)
                with self._stats_lock:
                    self.stats.merge_reuses += 1
                return cached
            points: List[Tuple[Any, Tuple[float, float]]] = []
            seen: Dict[Obstacle, None] = {}
            for sid in sorted(key):
                shard = self.shards[sid]
                points.extend((payload, (rect.xlo, rect.ylo))
                              for payload, rect in shard.data_tree.items())
                for obstacle, _mbr in shard.obstacle_tree.items():
                    seen.setdefault(obstacle)
            merged = Workspace.from_points(
                points, list(seen), layout="2T", page_size=self._page_size,
                backend=self.backend)
            # Warm the merged environment's shared graph eagerly: every
            # adjacency row over the member obstacles is cut in one bulk
            # pass now, so the border crossing that triggered this merge —
            # and every reuse after it — skips the per-settle cold start.
            merged.routing.warm(list(seen))
            self._merged[key] = merged
            if len(self._merged) > MERGE_CACHE_CAP:
                self._merged.popitem(last=False)
            with self._stats_lock:
                self.stats.merges_built += 1
            return merged

    def _route(self, query: Query | QueryPlan
               ) -> Tuple[QueryResult, ShardStats]:
        """Execute one query with border expansion; returns (result, block).

        The per-query :class:`ShardStats` block is attached to
        ``result.stats.shard`` but *not yet* merged into the cumulative
        workspace stats (callers differ: thread-mode execution merges here,
        fork-mode merges pickled blocks back in the parent).
        """
        backend = None
        if isinstance(query, QueryPlan):
            backend = query.backend_override
            query = query.query
        if not isinstance(query, Query):
            raise TypeError(
                f"expected a Query description, got {type(query)!r}")
        sids = self._initial_shards(query)
        expansions = 0
        env_t = route_t = reexec_t = 0.0
        clock = time.perf_counter
        while True:
            t0 = clock()
            env = self._environment(sids)
            t1 = clock()
            env_t += t1 - t0
            if backend is not None:
                result = env.execute(env.plan(query, backend=backend))
            else:
                result = env.execute(query)
            t2 = clock()
            if expansions:
                reexec_t += t2 - t1
            else:
                route_t += t2 - t1
            needed = self._needed_shards(query, result)
            if needed is None or needed <= sids:
                break
            sids = frozenset(sids | needed)
            expansions += 1
        block = ShardStats(queries=1,
                           by_shard={sid: 1 for sid in sorted(sids)},
                           border_expansions=expansions, fanout=len(sids),
                           route_time_s=route_t, reexec_time_s=reexec_t,
                           merge_build_time_s=env_t)
        result.stats.shard = block
        return result, block

    def _record(self, block: ShardStats) -> None:
        with self._stats_lock:
            self.stats.merge(block)

    # ------------------------------------------------- declarative interface
    def plan(self, query: Query, backend: Optional[str] = None) -> QueryPlan:
        """Plan ``query`` against its home shard set.

        The plan is built by the home environment's planner and annotated
        with the router's fan-out estimate: the shards the footprint
        touches, widened by the planner's retrieval-radius estimate —
        reported as ``est_shard_fanout`` and an extra ``explain()`` line.
        """
        with self._rw.read():
            sids = self._initial_shards(query)
            env = self._environment(sids)
            plan = env.plan(query, backend=backend)
            base = self._base_rect(query)
            predicted = sids
            if base is not None and math.isfinite(plan.est_radius):
                predicted = sids | self.partitioner.shards_for_rect(
                    base.expanded(plan.est_radius))
            plan.est_shard_fanout = len(predicted)
            plan.notes = plan.notes + (
                f"sharded: home shard(s) {sorted(sids)} of "
                f"{self.num_shards} ({self.partitioner.describe()}); "
                f"influence ball est. reaches {len(predicted)} shard(s)",)
            return plan

    def execute(self, query: Query | QueryPlan) -> QueryResult:
        """Execute one query through the border-expansion router.

        Answers are byte-identical to the unsharded workspace's; the
        routing that produced them is reported in ``result.stats.shard``.
        """
        with self._rw.read():
            result, block = self._route(query)
        self._record(block)
        return result

    def stream(self, queries: Iterable[Query]):
        """Lazily execute ``queries`` in submission order."""
        return (self.execute(q) for q in queries)

    def execute_many(self, queries: Iterable[Query], *,
                     workers: int = 1, mode: str = "thread"
                     ) -> List[QueryResult]:
        """Execute a batch as shard-local groups, optionally in parallel.

        Queries are grouped by home shard (the executor's locality
        scheduling, at shard granularity); each group runs through the
        router on one worker, so shard-local groups proceed concurrently
        while border-crossing queries still expand exactly as in
        :meth:`execute`.

        Args:
            workers: pool size; ``<= 1`` executes serially.
            mode: ``"thread"`` (share this process's shard caches through
                their locks) or ``"fork"`` (forked copy-on-write worker
                processes — true multi-core; POSIX only).

        Returns:
            Results in submission order, each with ``stats.shard`` filled.
        """
        from ..query.parallel import resolve_pool, run_groups

        qs = list(queries)
        workers, mode = resolve_pool(workers, mode)
        with self._rw.read():
            if workers <= 1 or len(qs) <= 1:
                out: List[QueryResult] = []
                for q in qs:
                    result, block = self._route(q)
                    self._record(block)
                    out.append(result)
                return out
            groups, tail = self._shard_groups(qs)
            results: List[Optional[QueryResult]] = [None] * len(qs)

            def run_group(group: List[int]
                          ) -> List[Tuple[int, QueryResult]]:
                return [(i, self._route(qs[i])[0]) for i in group]

            for done in run_groups(groups, run_group, workers, mode):
                for i, result in done:
                    results[i] = result
                    # The routing block rides on the result (a forked
                    # worker's own stats die with it).
                    self._record(result.stats.shard)
            for i in tail:  # non-spatial queries: submission order, inline
                results[i], block = self._route(qs[i])
                self._record(block)
        return results  # type: ignore[return-value]

    def _shard_groups(self, qs: List[Query]
                      ) -> Tuple[List[List[int]], List[int]]:
        """Group query indices by home shard; non-spatial indices tail."""
        spatial, tail = split_batch(qs)
        groups: Dict[int, List[int]] = {}
        for i, footprint in spatial:
            home = min(self.partitioner.shards_for_rect(footprint))
            groups.setdefault(home, []).append(i)
        return [groups[sid] for sid in sorted(groups)], tail

    # ------------------------------------------------------ legacy shortcuts
    def conn(self, query: Segment, config: Optional[ConnConfig] = None):
        """Continuous obstructed NN query (k = 1), routed across shards."""
        return self.execute(ConnQuery(query, config=config))

    def coknn(self, query: Segment, k: int = 1,
              config: Optional[ConnConfig] = None):
        """Continuous obstructed k-NN query, routed across shards."""
        return self.execute(CoknnQuery(query, k, config=config))

    def onn(self, x, y: Optional[float] = None, k: int = 1,
            config: Optional[ConnConfig] = None):
        """Snapshot obstructed k-NN at a point, routed across shards."""
        res = self.execute(OnnQuery(as_query_point(x, y), k, config=config))
        return res.tuples(), res.stats

    def range(self, x, y: Optional[float] = None,
              radius: Optional[float] = None):
        """Obstructed range query at a point, routed across shards."""
        point, r = as_range_args(x, y, radius)
        res = self.execute(RangeQuery(point, r))
        return res.tuples(), res.stats

    def trajectory(self, waypoints: Sequence[Tuple[float, float]],
                   k: int = 1, config: Optional[ConnConfig] = None):
        """Trajectory CONN/COkNN along a polyline, routed across shards."""
        return self.execute(TrajectoryQuery(tuple(waypoints), k,
                                            config=config))

    # -------------------------------------------------------------- mutation
    @property
    def monitors(self):
        """The sharded continuous-query registry (created on first access).

        Standing queries are pinned to their owning shard set and re-homed
        when a boundary-crossing update moves their influence ball; see
        :mod:`repro.shard.monitors`.
        """
        if self._monitors is None:
            from .monitors import ShardMonitorRegistry

            self._monitors = ShardMonitorRegistry(self)
        return self._monitors

    def add_site(self, payload: Any, x, y: Optional[float] = None) -> bool:
        """Insert a data point into its owning shard."""
        pt = as_query_point(x, y)
        return self._apply_one(AddSite(payload, pt.x, pt.y))

    def remove_site(self, payload: Any, x,
                    y: Optional[float] = None) -> bool:
        """Delete a data point from its owning shard."""
        pt = as_query_point(x, y)
        return self._apply_one(RemoveSite(payload, pt.x, pt.y))

    def add_obstacle(self, obstacle: Obstacle) -> bool:
        """Insert an obstacle into every shard its MBR overlaps."""
        return self._apply_one(AddObstacle(obstacle))

    def remove_obstacle(self, obstacle: Obstacle) -> bool:
        """Delete an obstacle (all replicas); True when it was found."""
        return self._apply_one(RemoveObstacle(obstacle))

    def apply(self, updates: Iterable[Update]) -> List[bool]:
        """Apply a batch of typed updates, fanning out to affected shards.

        Site updates route to the single owning shard; obstacle updates to
        every shard the obstacle's MBR overlaps (replicas stay in lock
        step).  Cached merged environments receive the same update once,
        so the border protocol keeps serving warm.  Registered sharded
        monitors refresh after each update, exactly like the unsharded
        registry.
        """
        return [self._apply_one(u) for u in updates]

    def _apply_one(self, update: Update) -> bool:
        with self._rw.write():
            if isinstance(update, (AddSite, RemoveSite)):
                sids = frozenset(
                    {self.partitioner.shard_of(update.x, update.y)})
            elif isinstance(update, (AddObstacle, RemoveObstacle)):
                sids = self.partitioner.shards_for_rect(
                    update.obstacle.mbr())
            else:
                raise TypeError(
                    f"unknown update type {type(update).__name__}")
            flags = [self.shards[sid]._apply_one(update)
                     for sid in sorted(sids)]
            applied = any(flags)
            if applied:
                if isinstance(update, AddObstacle):
                    self.stats.replicated_obstacles += len(sids) - 1
                elif isinstance(update, RemoveObstacle):
                    self.stats.replicated_obstacles -= sum(flags) - 1
                with self._merge_lock:
                    for key, merged in self._merged.items():
                        if key & sids:
                            merged._apply_one(update)
                self.version += 1
        if applied and self._monitors is not None:
            self._monitors.notify(update)
        return applied


class ShardedSnapshot:
    """A pinned cross-shard version (see :class:`WorkspaceSnapshot`).

    Pins the sharded mutation counter plus every shard's own version;
    execution re-verifies under the sharded read hold and raises
    :class:`~repro.service.concurrency.SnapshotExpired` once any shard has
    moved on.  Cheap — a tuple of integers.
    """

    def __init__(self, sharded: ShardedWorkspace):
        self._sws = sharded
        with sharded.read_lock():
            self.version = sharded.version
            self.shard_versions: Tuple[int, ...] = tuple(
                ws.version for ws in sharded.shards)
        sharded.snapshots_taken += 1

    @property
    def workspace(self) -> ShardedWorkspace:
        """The live sharded workspace this snapshot pins."""
        return self._sws

    @property
    def expired(self) -> bool:
        """True once any shard mutated past the pinned version."""
        return (self._sws.version != self.version
                or tuple(ws.version for ws in self._sws.shards)
                != self.shard_versions)

    def verify(self) -> None:
        """Raise :class:`SnapshotExpired` when :attr:`expired`."""
        if self.expired:
            raise SnapshotExpired(
                f"sharded workspace moved from version {self.version} to "
                f"{self._sws.version}; take a fresh snapshot")

    def execute(self, query: Query | QueryPlan) -> QueryResult:
        """Execute one query against the pinned cross-shard version."""
        with self._sws.read_lock():
            self.verify()
            return self._sws.execute(query)

    def execute_many(self, queries: Iterable[Query], *,
                     workers: int = 1, mode: str = "thread"
                     ) -> List[QueryResult]:
        """Execute a batch against the pinned version (one read hold)."""
        with self._sws.read_lock():
            self.verify()
            return self._sws.execute_many(queries, workers=workers,
                                          mode=mode)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "expired" if self.expired else "live"
        return (f"ShardedSnapshot(version={self.version}, "
                f"shards={self.shard_versions}, {state})")


__all__ = [
    "MERGE_CACHE_CAP",
    "ShardedSnapshot",
    "ShardedWorkspace",
]
