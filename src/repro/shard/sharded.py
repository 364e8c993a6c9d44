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
edge — widens ``S`` with the neighbors the ball touches and re-executes.
The shard set grows monotonically, so the loop terminates, and at the
fixpoint the answer equals the unsharded one bit for bit (asserted by
``tests/test_shard_equivalence.py`` and
``tests/test_sharded_workspace.py``).

A set of several shards is read in place, through the executor path a
single workspace runs on: the members' data scans merge by key, their
obstacle caches' views grow together, and a per-query visibility graph
(never a shard's shared one) supplies the distances.  Every page read is
charged to a member shard's tracker.

Updates fan out through :meth:`ShardedWorkspace.apply` only to affected
shards; ``snapshot()`` hands out the same
:class:`~repro.service.snapshot.WorkspaceSnapshot` a single workspace
does, pinning every shard's version and tree versions; and
:meth:`execute_many` schedules shard-local batches across the thread /
fork worker pool machinery of :mod:`repro.query.parallel`.
"""

from __future__ import annotations

import math
import threading
import time
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

from ..geometry.point import require_finite_points
from ..geometry.rectangle import Rect
from ..monitor.monitor import influence_radius
from ..obstacles.obstacle import Obstacle
from ..query.executor import _run_plan, split_batch
from ..query.planner import QueryPlan
from ..query.queries import (
    CoknnQuery,
    OnnQuery,
    Query,
    RangeQuery,
    TrajectoryQuery,
)
from ..query.results import QueryResult
from ..service.updates import (
    AddObstacle,
    AddSite,
    RemoveObstacle,
    RemoveSite,
    Update,
)
from ..service.workspace import Workspace, _ServingFront
from .partition import GridPartitioner, Partitioner, bounds_of
from .stats import ShardStats


class ShardedWorkspace(_ServingFront):
    """Many per-region workspaces serving as one, with exact borders.

    Build one with :meth:`from_points` (fresh indexes, partitioned) or
    :meth:`from_workspace` (re-shard an existing 2T workspace).  The
    serving front is the one :class:`~repro.service.workspace.Workspace`
    has — ``stream``, the classic shorthands, the update helpers,
    ``read_lock()``, ``snapshot()``, ``service`` and ``epoch_waits`` are
    shared, not copied — and ``plan`` / ``execute`` / ``execute_many`` /
    ``apply`` / ``monitors`` take the same arguments, so call sites can
    swap one in unchanged.

    Args:
        shards: the per-shard workspaces, indexed by shard id.
        partitioner: the ownership map the shards were split by.
        backend: the obstructed-distance backend policy of every shard (see
            :class:`Workspace`); border queries always run on a per-query
            graph.
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
        super().__init__()
        self.shards = list(shards)
        self.partitioner = partitioner
        self.backend = backend
        self.layout = "2T"
        self.stats = ShardStats()
        """Cumulative :class:`~repro.shard.stats.ShardStats` across every
        routed query and applied update."""
        self._stats_lock = threading.Lock()

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

    def _stamp(self, sids: FrozenSet[int]) -> Tuple[int, ...]:
        """Every member shard's version and tree versions, in shard order:
        what a plan over ``sids`` was built at (a single shard's plan
        records exactly its own)."""
        return tuple(v for sid in sorted(sids)
                     for v in self.shards[sid]._versions())

    def _versions(self) -> Tuple[int, ...]:
        """What a snapshot pins: :attr:`version`, then every shard's
        version and tree versions."""
        return (self.version,) + self._stamp(self.partitioner.all_shards())

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

    def _plan(self, sids: FrozenSet[int], query: Query,
              backend: Optional[str]) -> QueryPlan:
        """Plan ``query`` on the lowest shard of ``sids``.

        A set of several shards plans a per-query graph: a shard's shared
        graph would keep an obstacle of another shard that a later removal,
        routed only to the shards its MBR overlaps, never reaches.  Its
        cache and I/O estimates describe every member the run reads: the
        distinct obstacles their caches hold and their capsules, warm
        only when every member's coverage proves the footprint cached,
        and page reads summed over the member trees; its versions are
        every member's (:meth:`_stamp`).
        """
        if len(sids) == 1:
            return self.shards[min(sids)].plan(query, backend=backend)
        members = [self.shards[sid] for sid in sorted(sids)]
        plans = [m.plan(query, backend="per-query") for m in members]
        plan = plans[0]
        plan.tree_versions = self._stamp(sids)[1:]
        plan.cached_obstacles = len(set().union(
            *(m.cache.obstacles for m in members)))
        plan.capsules = sum(p.capsules for p in plans)
        plan.warm = all(p.warm for p in plans)
        plan.est_obstacle_io = sum(p.est_obstacle_io for p in plans)
        return plan

    def _route(self, query: Query | QueryPlan
               ) -> Tuple[QueryResult, ShardStats]:
        """Execute one query with border expansion; returns (result, block).

        The per-query :class:`ShardStats` block is attached to
        ``result.stats.shard`` but *not yet* merged into the cumulative
        workspace stats (callers differ: thread-mode execution merges here,
        fork-mode merges pickled blocks back in the parent).  A prepared
        plan runs as the first round while the home shards are still at
        the versions it was built at; a stale one re-plans under the same
        backend pin.
        """
        plan = backend = None
        if isinstance(query, QueryPlan):
            plan, backend, query = query, query.backend_override, query.query
        if not isinstance(query, Query):
            raise TypeError(
                f"expected a Query description, got {type(query)!r}")
        sids = self._initial_shards(query)
        if plan is not None and ((plan.workspace_version, *plan.tree_versions)
                                 != self._stamp(sids)):
            plan = None
        expansions = 0
        route_t = reexec_t = 0.0
        clock = time.perf_counter
        while True:
            t0 = clock()
            if plan is None:
                plan = self._plan(sids, query, backend)
            members = [self.shards[sid] for sid in sorted(sids)]
            # Several shards are read in place (see the module docstring).
            result = (members[0].execute(plan) if len(members) == 1
                      else _run_plan(members, plan))
            if expansions:
                reexec_t += clock() - t0
            else:
                route_t += clock() - t0
            needed = self._needed_shards(query, result)
            if needed is None or needed <= sids:
                break
            sids = frozenset(sids | needed)
            expansions += 1
            plan = None
        block = ShardStats(queries=1,
                           by_shard={sid: 1 for sid in sorted(sids)},
                           border_expansions=expansions, fanout=len(sids),
                           route_time_s=route_t, reexec_time_s=reexec_t)
        result.stats.shard = block
        return result, block

    def _record(self, block: ShardStats) -> None:
        with self._stats_lock:
            self.stats.merge(block)

    # ------------------------------------------------- declarative interface
    def plan(self, query: Query, backend: Optional[str] = None) -> QueryPlan:
        """Plan ``query`` against its home shard set.

        The plan is built by :meth:`_plan` and annotated with the router's
        fan-out estimate: the shards the footprint touches, widened by the
        planner's retrieval-radius estimate — reported as
        ``est_shard_fanout`` and an extra ``explain()`` line.  A home set
        of several shards adds a note that the border run opens a
        per-query graph over their feeds.
        """
        with self._rw.read():
            sids = self._initial_shards(query)
            plan = self._plan(sids, query, backend)
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
            if len(sids) > 1:
                plan.notes = plan.notes + (
                    f"border run: a per-query graph over {len(sids)} "
                    f"shards' feeds",)
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

    # -------------------------------------------------------------- mutation
    @property
    def monitors(self):
        """The sharded continuous-query registry (created on first access).

        The plain :class:`~repro.monitor.registry.MonitorRegistry` stack
        with this workspace as the monitors' workspace: span repairs and
        re-runs go through the router.  Each monitor's ``home`` is the
        shard set its influence ball touches, re-homed when an update
        moves the ball across a shard edge; see :mod:`repro.shard.monitors`.
        """
        if self._monitors is None:
            from .monitors import ShardMonitorRegistry

            self._monitors = ShardMonitorRegistry(self)
        return self._monitors

    def apply(self, updates: Iterable[Update]) -> List[bool]:
        """Apply a batch of typed updates, fanning out to affected shards.

        Site updates route to the single owning shard; obstacle updates to
        every shard the obstacle's MBR overlaps (replicas stay in lock
        step), and to no other workspace: border queries read the shards
        themselves.  Registered monitors refresh after each update
        through the unsharded registry's fan-out.
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
                self.version += 1
        if applied and self._monitors is not None:
            self._monitors.notify(update)
        return applied


__all__ = [
    "ShardedWorkspace",
]
