"""The query executor: the one place that runs a plan, and scheduled batches.

:func:`execute` runs one :class:`~repro.query.planner.QueryPlan` (planning
first when handed a bare query description) and attaches the submitted
query to the result (the ``.query`` back-reference of the unified result
protocol).  Running a plan calls the engines of :mod:`repro.core`
directly.  One helper opens every engine run's sources for the workspace
layout (on 2T a data tree scan plus a view over the obstacle cache, on 1T
the unified scan) and charges the run's page reads, faults, CPU time and
|SVG| to its stats, the obstacle index's reads also to
``result.stats.obstacle_reads``; the planned backend supplies the
visibility graph.  A join's run is charged the same way
(:func:`~repro.core.stats.charge_run`), over its two point trees and the
obstacle index.  The same path runs a sharded workspace's border queries
on their member shards in place: their scans merge by key, their caches'
views grow together, and a per-query graph supplies the distances.

:func:`execute_many` is the batch path the service layer's cache was built
for.  Submission order is rarely the cheapest execution order: correlated
workloads (fleets of moving queries, periodic monitors) interleave queries
from distant regions, so consecutive queries share no obstacle footprint
and every one pays its own tree scan.  The scheduler therefore

1. buckets queries by a locality grid over their footprints and orders the
   buckets along a Hilbert curve (so consecutive buckets are spatially
   adjacent too),
2. executes each bucket's first query cold, reads the coverage capsule that
   query recorded, and uses its radius to size one *prefetch* covering the
   whole bucket — after which the bucket's remaining queries are served
   from the cache, and
3. returns results in submission order regardless of execution order.

Non-spatial queries (the joins) keep their relative submission order and
run after the spatial ones.  Results are bit-identical to submission-order
execution — scheduling only changes who pays which page read.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Sequence, Tuple

from ..core.config import ConnConfig
from ..core.conn_1t import UnifiedSource
from ..core.engine import ConnResult, TreeDataSource, run_query
from ..core.ior import fan_out
from ..core.joins import (
    _closest_pair_impl,
    _e_distance_join_impl,
    _semi_join_impl,
)
from ..core.onn import run_onn_scan
from ..core.range_query import run_range_scan
from ..core.stats import QueryStats, charge_run
from ..core.trajectory import TrajectoryResult
from ..geometry.rectangle import Rect
from ..geometry.segment import Segment
from ..index.nearest import IncrementalNearest, nearest_to_point, nearest_to_segment
from ..index.rstar import RStarTree
from .planner import QueryPlan, build_plan, tree_versions
from .queries import (
    ClosestPairQuery,
    CoknnQuery,
    EDistanceJoinQuery,
    OnnQuery,
    Query,
    RangeQuery,
    SemiJoinQuery,
    TrajectoryQuery,
)
from .results import ClosestPairResult, JoinResult, NeighborsResult, QueryResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..routing.backends import ObstructedDistanceBackend
    from ..service.workspace import Workspace

GRID_CELLS = 16
"""Upper bound on the batch scheduler's locality grid, in cells per axis."""

PREFETCH_MARGIN_FACTOR = 1.25
"""Safety factor on the capsule-derived prefetch margin of a bucket."""


def execute(workspace: "Workspace", query) -> QueryResult:
    """Run one query (or a prepared plan) and return its unified result.

    A prepared plan is version-checked against the workspace *and* its
    backing trees: when updates were applied after planning — through the
    workspace or directly on a tree — the plan is rebuilt from its query.
    Its backend choice and estimates describe a dataset that no longer
    exists (e.g. a warm verdict from coverage capsules the mutation voided).
    """
    if isinstance(query, QueryPlan):
        plan = query
        if (plan.workspace_version != workspace.version
                or plan.tree_versions != tree_versions(workspace)):
            plan = build_plan(workspace, plan.query,
                              backend=plan.backend_override)
    else:
        plan = build_plan(workspace, query)
    return _run_plan((workspace,), plan)


def _run_plan(members: Sequence["Workspace"], plan: QueryPlan) -> QueryResult:
    """Run ``plan`` on ``members``: one workspace, or the member shards of a
    border query read in place (on the backend planned on the first)."""
    q = plan.query
    backend = members[0].backend_for(plan.backend)
    if isinstance(q, TrajectoryQuery):
        legs = [_run_coknn(members, leg, q.k, plan.config, backend)
                for leg in q.legs()]
        result = TrajectoryResult(q.waypoints, legs, q.k)
        result.query = q
        return result
    if isinstance(q, CoknnQuery):  # covers ConnQuery too
        result = _run_coknn(members, q.segment, q.k, plan.config, backend)
        result.query = q
        return result
    if isinstance(q, (OnnQuery, RangeQuery)):
        x, y = q.point
        with _sources(members, Segment(x, y, x, y), backend,
                      lambda tree: nearest_to_point(tree, x, y)) as (
                          source, retriever, vg, stats):
            if isinstance(q, OnnQuery):
                rows = run_onn_scan(source, retriever, vg, q.k, plan.config,
                                    stats)
            else:
                rows = run_range_scan(source, retriever, vg, q.radius, stats)
        return NeighborsResult(rows, stats, q)
    if isinstance(q, (SemiJoinQuery, EDistanceJoinQuery, ClosestPairQuery)):
        stats = QueryStats()
        caches = [m.cache for m in members]
        with charge_run(stats, None, (q.left.tracker, q.right.tracker),
                        [c.tree.tracker for c in caches]):
            if isinstance(q, SemiJoinQuery):
                rows = _semi_join_impl(q.left, q.right, caches, stats)
            elif isinstance(q, EDistanceJoinQuery):
                rows = _e_distance_join_impl(q.left, q.right, q.e, caches,
                                             stats)
            else:
                pair = _closest_pair_impl(q.left, q.right, caches, stats)
        if isinstance(q, ClosestPairQuery):
            return ClosestPairResult(pair, stats, q)
        return JoinResult(rows, stats, q)
    raise TypeError(f"no executor for query type {type(q).__name__}")


def _run_coknn(members: Sequence["Workspace"], segment: Segment, k: int,
               config: ConnConfig, backend: "ObstructedDistanceBackend"
               ) -> ConnResult:
    """One COkNN run of the paper's engine along ``segment``."""
    ax, ay, bx, by = segment.ax, segment.ay, segment.bx, segment.by
    with _sources(members, segment, backend,
                  lambda tree: nearest_to_segment(tree, ax, ay, bx, by)
                  ) as (source, retriever, vg, stats):
        return run_query(source, retriever, vg, segment, k, config, stats)


@contextmanager
def _sources(members: Sequence["Workspace"], anchor: Segment,
             backend: "ObstructedDistanceBackend",
             data_scan: Callable[[RStarTree], IncrementalNearest]):
    """Attach ``anchor``, open the layout's sources for one engine run and
    charge the run's cost.

    Yields ``(source, retriever, vg, stats)``.  On 2T the data source merges
    the scans ``data_scan(tree)`` of the members' data trees by key and
    obstacles come from one view per member cache, grown together; on 1T
    (one member) one unified scan plays both roles and harvests its
    obstacles into the cache.  The block's page reads, CPU time and |SVG|
    are charged to ``stats`` (:func:`charge_run`); the obstacle indexes'
    reads go to ``stats.obstacle_reads`` too (the unified tree's reads
    under 1T, where data and obstacle pages are not separable).
    """
    stats = QueryStats()
    with backend.attach_endpoints(anchor, stats) as vg:
        if members[0].layout == "2T":
            retriever = fan_out([m.cache.view(anchor, vg, stats)
                                 for m in members])
            source = TreeDataSource(*[data_scan(m.data_tree)
                                      for m in members])
            trackers = [m.data_tree.tracker for m in members]
            obstacles = [m.obstacle_tree.tracker for m in members]
        else:
            ws = members[0]
            source = retriever = UnifiedSource(ws.unified_tree, anchor, vg,
                                               stats, ws.cache)
            trackers, obstacles = (), (ws.unified_tree.tracker,)
        with charge_run(stats, vg, trackers, obstacles):
            yield source, retriever, vg, stats


def split_batch(qs: List[Query], schedule: str = "locality"
                ) -> Tuple[List[Tuple[int, Rect]], List[int]]:
    """Split a batch into spatial ``(index, footprint)`` pairs and the
    indices of the non-spatial queries (the joins), both in submission
    order.

    Raises:
        ValueError: on a ``schedule`` other than ``"locality"`` or
            ``"fifo"``.
    """
    if schedule not in ("locality", "fifo"):
        raise ValueError(f"unknown schedule {schedule!r}")
    spatial: List[Tuple[int, Rect]] = []
    other: List[int] = []
    for i, q in enumerate(qs):
        fp = q.footprint() if isinstance(q, Query) else None
        if fp is not None:
            spatial.append((i, fp))
        else:
            other.append(i)
    return spatial, other


def execute_many(workspace: "Workspace", queries: Iterable[Query], *,
                 schedule: str = "locality") -> List[QueryResult]:
    """Execute a batch, optionally reordered for cache locality.

    Args:
        schedule: ``"locality"`` (default) buckets queries on a spatial
            grid, walks buckets in Hilbert order, and issues one
            capsule-calibrated prefetch per bucket; ``"fifo"`` preserves
            submission order exactly (the legacy ``batch`` behavior).

    Returns:
        Results in **submission order**, each carrying ``.query``.
    """
    qs = list(queries)
    spatial, other = split_batch(qs, schedule)
    if schedule == "fifo" or len(qs) <= 2:
        return [execute(workspace, q) for q in qs]

    results: List[QueryResult] = [None] * len(qs)  # type: ignore[list-item]
    for bucket in _locality_buckets(spatial):
        _execute_bucket(workspace, qs, bucket, results)
    for i in other:
        results[i] = execute(workspace, qs[i])
    return results


# --------------------------------------------------------------- scheduling
def _locality_buckets(spatial: List[Tuple[int, Rect]]) -> List[List[int]]:
    """Grid-bucket spatial queries and order buckets along a Hilbert curve."""
    if not spatial:
        return []
    xlo = min(fp.xlo for _i, fp in spatial)
    ylo = min(fp.ylo for _i, fp in spatial)
    xhi = max(fp.xhi for _i, fp in spatial)
    yhi = max(fp.yhi for _i, fp in spatial)
    span = max(xhi - xlo, yhi - ylo)
    if span <= 0.0:
        return [[i for i, _fp in spatial]]
    diags = sorted(math.hypot(fp.width, fp.height) for _i, fp in spatial)
    median_diag = diags[len(diags) // 2]
    # Aim for a handful of queries per bucket (so each bucket amortizes its
    # prefetch), capped by GRID_CELLS; point queries have zero-size
    # footprints, so occupancy — not footprint size — must drive the cell
    # size.
    occupancy_cells = max(1, round(math.sqrt(len(spatial) / 4.0)))
    cells = max(1, min(GRID_CELLS, occupancy_cells))
    cell = max(2.0 * median_diag, span / cells, 1e-9)
    buckets: Dict[Tuple[int, int], List[int]] = {}
    for i, fp in spatial:
        cx, cy = fp.center()
        key = (int((cx - xlo) / cell), int((cy - ylo) / cell))
        buckets.setdefault(key, []).append(i)
    side = 1
    max_coord = max(max(k[0] for k in buckets), max(k[1] for k in buckets))
    while side <= max_coord:
        side *= 2
    ordered = sorted(buckets.items(),
                     key=lambda kv: hilbert_index(side, kv[0][0], kv[0][1]))
    return [sorted(idxs) for _key, idxs in ordered]


def hilbert_index(side: int, x: int, y: int) -> int:
    """Hilbert-curve index of cell ``(x, y)`` on a ``side`` x ``side`` grid.

    The locality order behind both the batch scheduler's bucket walk and
    the shard subsystem's :class:`~repro.shard.partition.HilbertPartitioner`
    ranges.
    """
    d = 0
    s = side // 2
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s //= 2
    return d


def _execute_bucket(ws: "Workspace", qs: List[Query], bucket: List[int],
                    results: List[QueryResult]) -> None:
    """Run one locality bucket: cold lead query, calibrated prefetch, rest.

    The lead query's retrieval records a coverage capsule whose radius is a
    measured proxy for what its neighbors will need; one prefetch over the
    bucket's union footprint with that margin turns the remaining queries
    into cache hits (2T layout; on 1T prefetching cannot skip the unified
    scan, so the bucket just runs in locality order).
    """
    # Function-level import: the service package imports this module.
    from ..service.cache import rect_capsule

    lead = bucket[0]
    plan = build_plan(ws, qs[lead])
    before = ws.cache.capsules
    results[lead] = _run_plan((ws,), plan)
    if len(bucket) > 1 and ws.layout == "2T":
        capsules = ws.cache.capsules
        # record_coverage may replace superseded capsules, so compare the
        # newest capsule itself, not the count.
        if capsules and (not before or capsules[-1] != before[-1]):
            observed = capsules[-1].radius
        else:  # lead was a pure cache hit; fall back to the plan estimate
            observed = plan.est_radius
        margin = observed * PREFETCH_MARGIN_FACTOR
        union = qs[bucket[0]].footprint()
        for i in bucket[1:]:
            union = union.union(qs[i].footprint())
        if math.isfinite(margin) and margin > 0.0:
            spine, radius = rect_capsule(union, margin)
            if not ws.cache.covered(spine, radius):
                ws.cache.prefetch(union, margin=margin)
    for i in bucket[1:]:
        results[i] = execute(ws, qs[i])
