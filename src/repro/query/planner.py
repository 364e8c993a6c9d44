"""The query planner: algorithm + layout selection and ``explain()``.

``Workspace.plan(query)`` turns a typed query description into a
:class:`QueryPlan` — the algorithm the executor will run, the tree layout it
runs on, and an obstacle-I/O estimate derived from the workspace cache's
coverage capsules.  The plan renders itself as a human-readable transcript
via :meth:`QueryPlan.explain`, the declarative API's answer to SQL's
``EXPLAIN``.

Algorithm selection is deliberately simple and deterministic:

* CONN / COkNN / trajectory / ONN / range run the paper's engine on the
  workspace layout (``"2T"`` separate trees or ``"1T"`` unified tree);
* on the 2T layout a workspace may opt into a *naive fallback*
  (:attr:`PlannerOptions.naive_max_points`): for tiny datasets the plan
  drains the whole obstacle tree into the cache once and serves every
  retrieval round from memory — identical results, no incremental
  retrieval machinery;
* the obstructed joins require the 2T layout (they need a dedicated
  obstacle tree), so planning them on 1T fails fast.

The I/O estimate is honest about being an estimate: when a coverage capsule
proves the query's predicted footprint cached, the plan reports a warm hit
(zero obstacle-tree reads on 2T); otherwise it scales the obstacle tree's
leaf count by the footprint's share of the indexed area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..core.config import ConnConfig
from ..geometry.rectangle import Rect
from ..geometry.segment import Segment
from ..index.rstar import RStarTree
from ..routing.backends import PER_QUERY_VG, SHARED_VG
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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service.workspace import Workspace


NAIVE_PRELOAD = "naive-preload"
"""Algorithm name of the tiny-dataset fallback (exhaustive obstacle preload)."""

PAIRWISE_VG = "pairwise-vg"
"""Backend name reported for the joins' anchored pairwise oracle."""


def _resolve_backend(workspace: "Workspace", override: Optional[str],
                     warm: bool, spines: List[Segment]) -> str:
    """Pick the obstructed-distance backend for an engine query.

    ``auto`` prefers the workspace-shared graph whenever the workspace is
    demonstrably warm for this query: the plan's full-radius coverage
    check passed, the shared graph is already resident, or every spine of
    the query lies inside a recorded coverage capsule (its neighborhood
    was exhaustively fetched by an earlier query, so the shared skeleton
    has the obstacles that matter and the repeat amortizes the build).
    Cold one-shots keep the throwaway per-query graph, whose build they
    would have to pay anyway.
    """
    choice = override if override is not None else workspace.planner.backend
    if choice == "auto":
        if warm or workspace.routing.ready:
            return SHARED_VG
        revisit = bool(spines) and all(
            workspace.cache.covered(s, 0.0) for s in spines)
        return SHARED_VG if revisit else PER_QUERY_VG
    alias = {"shared": SHARED_VG, SHARED_VG: SHARED_VG,
             "per-query": PER_QUERY_VG, PER_QUERY_VG: PER_QUERY_VG}
    if choice not in alias:
        raise ValueError(f"unknown backend {choice!r}; expected 'auto', "
                         f"'shared' or 'per-query'")
    return alias[choice]


@dataclass(frozen=True)
class PlannerOptions:
    """Workspace-level planner knobs.

    Attributes:
        naive_max_points: datasets whose data tree holds at most this many
            points plan the :data:`NAIVE_PRELOAD` fallback on the 2T layout
            (0 — the default — never; the incremental engine is always
            used).  Results are identical either way; only the I/O pattern
            changes.
        grid_cells: granularity of the batch executor's locality grid (the
            space is cut into roughly ``grid_cells`` cells per axis).
        prefetch_margin_factor: safety factor applied to the capsule-derived
            prefetch margin in scheduled batches.
        backend: obstructed-distance backend policy — ``"auto"`` (default:
            the workspace-shared graph when the query plans warm or the
            shared graph is already built, a per-query graph for cold
            one-shots), ``"shared"`` / ``"per-query"`` to force one.
            Results are identical either way (asserted by the backend
            equivalence suite); only where the visibility-test and
            graph-build work lands changes.
        parallel_workers: the worker-pool size the planner prices
            parallelism against (``QueryPlan.est_parallel_speedup``) and
            the trajectory executor uses for independent legs.  ``1``
            (default) keeps every execution path strictly serial.
    """

    naive_max_points: int = 0
    grid_cells: int = 16
    prefetch_margin_factor: float = 1.25
    backend: str = "auto"
    parallel_workers: int = 1


DEFAULT_PLANNER = PlannerOptions()


@dataclass
class QueryPlan:
    """An executable plan for one typed query on one workspace.

    Produced by :meth:`Workspace.plan`; pass it to :meth:`Workspace.execute`
    to run exactly this plan, or call :meth:`explain` for the transcript.
    """

    query: Query
    algorithm: str
    layout: str
    k: int
    config: ConnConfig
    footprint: Optional[Rect]
    est_radius: float
    """Estimated obstacle-retrieval radius (heuristic; exact for range)."""
    warm: bool
    """Whether a coverage capsule proves the estimated footprint cached."""
    est_obstacle_io: int
    """Estimated obstacle-tree page reads (0 for a warm 2T plan)."""
    cached_obstacles: int
    capsules: int
    notes: Tuple[str, ...] = field(default_factory=tuple)
    backend: str = PER_QUERY_VG
    """The obstructed-distance backend the executor will attach
    (``"shared-vg"``, ``"per-query-vg"``, or ``"pairwise-vg"`` for the
    joins' anchored oracle)."""
    backend_override: Optional[str] = None
    """The explicit backend override this plan was built with (``None``
    when the workspace policy decided).  Preserved so a stale prepared
    plan re-plans under the same pin instead of silently reverting to the
    workspace default."""
    est_graph_builds: int = 1
    """Full visibility-graph builds this query is priced to pay (0 when the
    workspace-shared graph is already resident)."""
    backend_batch_calls: int = 0
    """Cumulative batched visibility-kernel launches on the chosen backend
    at plan time (see ``BackendStats.batch_visibility_calls``)."""
    backend_batched_edges: int = 0
    """Cumulative edge x primitive pairs those launches evaluated
    (``BackendStats.batched_edges_tested``)."""
    backend_pruned_edges: int = 0
    """Cumulative edge x primitive pairs the bbox prefilter skipped on the
    chosen backend (``BackendStats.kernel_pruned_edges``)."""
    backend_bulk_pushes: int = 0
    """Cumulative relaxed rows bulk-pushed into the sequence heap on the
    chosen backend (``BackendStats.heap_bulk_pushes``)."""
    backend_dijkstra_runs: int = 0
    """Cumulative fresh traversals on the chosen backend at plan time
    (``BackendStats.dijkstra_runs``)."""
    backend_bulk_rows: int = 0
    """Cumulative adjacency rows the chosen backend materialized through
    the bulk path (``BackendStats.rows_bulk_materialized``)."""
    backend_bulk_launches: int = 0
    """Cumulative bulk pair launches on the chosen backend
    (``BackendStats.bulk_pair_launches``)."""
    backend_graph_repairs: int = 0
    """Cumulative surgical removal repairs absorbed by the chosen backend
    (``BackendStats.graph_repairs``)."""
    backend_repair_retests: int = 0
    """Cumulative absent pairs re-tested by those repairs
    (``BackendStats.repair_retested_pairs``)."""
    est_parallel_speedup: float = 1.0
    """Estimated wall-clock speedup of executing this plan on the
    workspace's configured worker pool
    (:attr:`PlannerOptions.parallel_workers`): the query's independent
    execution units (trajectory legs; single-segment queries have one)
    divided by the pool rounds needed to drain them.  ``1.0`` means the
    plan is inherently serial — parallelism then only pays across queries
    (``execute_many(..., workers=N)``), not inside this one."""
    workspace_version: int = 0
    """The :attr:`Workspace.version` this plan was built at.  The executor
    re-plans automatically when the workspace has been mutated since — a
    stale plan's algorithm choice and estimates describe a dataset that no
    longer exists."""
    tree_versions: Tuple[int, ...] = ()
    """Mutation counters of the workspace's backing trees at plan time.
    Catches mutations applied to a tree directly (bypassing the workspace),
    which leave ``workspace_version`` untouched."""
    est_shard_fanout: int = 0
    """Shards a :class:`~repro.shard.ShardedWorkspace` router predicts this
    query will consult (home shards plus the estimated influence ball's
    spill-over).  ``0`` for plans built on an unsharded workspace."""

    def explain(self) -> str:
        """Human-readable plan transcript (the declarative ``EXPLAIN``)."""
        cfg = self.config
        flags = (f"lemma1={'on' if cfg.use_lemma1 else 'off'} "
                 f"lemma5={'on' if cfg.use_lemma5 else 'off'} "
                 f"lemma6={'on' if cfg.use_lemma6 else 'off'} "
                 f"lemma7={'on' if cfg.use_lemma7 else 'off'} "
                 f"rlmax={'on' if cfg.use_rlmax else 'off'} "
                 f"validate={'on' if cfg.validate_coverage else 'off'}")
        if self.footprint is not None:
            fp = (f"[{self.footprint.xlo:g}, {self.footprint.xhi:g}] x "
                  f"[{self.footprint.ylo:g}, {self.footprint.yhi:g}]")
        else:
            fp = "(non-spatial)"
        temp = "warm" if self.warm else "cold"
        lines = [
            f"QueryPlan: {self.algorithm} (layout {self.layout}, k={self.k})",
            f"  query     : {self.query.describe()}"
            + (f"  [label={self.query.label!r}]" if self.query.label else ""),
            f"  footprint : {fp}  (est. retrieval radius "
            f"{self.est_radius:.3g})",
            f"  cache     : {self.cached_obstacles} obstacles, "
            f"{self.capsules} capsules -> {temp} "
            f"(est. {self.est_obstacle_io} obstacle-tree page reads)",
            f"  backend   : {self.backend} "
            f"(est. {self.est_graph_builds} visibility-graph "
            f"build{'' if self.est_graph_builds == 1 else 's'})",
            f"  kernels   : {self.backend_batch_calls} batch visibility "
            f"calls, {self.backend_batched_edges} batched edges tested, "
            f"{self.backend_pruned_edges} bbox-pruned, "
            f"{self.backend_bulk_pushes} bulk heap pushes, "
            f"{self.backend_dijkstra_runs} traversals so far",
            f"  cold/churn: {self.backend_bulk_rows} bulk rows in "
            f"{self.backend_bulk_launches} bulk pair launches, "
            f"{self.backend_graph_repairs} removal repairs "
            f"({self.backend_repair_retests} pairs retested so far)",
            f"  parallel  : est. {self.est_parallel_speedup:.2f}x speedup "
            f"on this plan's independent units",
            f"  config    : {flags}",
        ]
        if self.est_shard_fanout > 0:
            lines.insert(-1, f"  shards    : est. fan-out "
                         f"{self.est_shard_fanout}")
        for note in self.notes:
            lines.append(f"  note      : {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.explain()


def _root_mbr(tree: RStarTree) -> Optional[Rect]:
    return tree.bounds


def tree_versions(workspace: "Workspace") -> Tuple[int, ...]:
    """Current mutation counters of the workspace's backing trees."""
    if workspace.layout == "2T":
        return (workspace.data_tree.version, workspace.obstacle_tree.version)
    return (workspace.unified_tree.version,)


def _nn_radius_estimate(data_tree: Optional[RStarTree], k: int) -> float:
    """Heuristic k-NN distance: mean point spacing scaled by ``sqrt(k)``.

    Derived from a uniform-density model of the indexed points; only used
    for plan estimates, never for correctness.
    """
    if data_tree is None or data_tree.size == 0:
        return 0.0
    mbr = _root_mbr(data_tree)
    if mbr is None:
        return 0.0
    area = max(mbr.area(), 1e-12)
    spacing = math.sqrt(area / max(data_tree.size, 1))
    return 2.0 * spacing * math.sqrt(k)


def _spines(query: Query) -> List[Segment]:
    """Retrieval-footprint spines for the coverage check."""
    if isinstance(query, CoknnQuery):
        return [query.segment]
    if isinstance(query, (OnnQuery, RangeQuery)):
        x, y = query.point
        return [Segment(x, y, x, y)]
    if isinstance(query, TrajectoryQuery):
        out = []
        for (ax, ay), (bx, by) in zip(query.waypoints, query.waypoints[1:]):
            seg = Segment(ax, ay, bx, by)
            if not seg.is_degenerate():
                out.append(seg)
        return out
    return []


def _estimate_pages(obstacle_tree: RStarTree, footprint: Optional[Rect],
                    est_radius: float) -> int:
    """Footprint-scaled estimate of obstacle-tree pages a cold scan reads."""
    if obstacle_tree.size == 0:
        return 0
    fill = max(int(0.7 * obstacle_tree.max_entries), 1)
    leaf_pages = max(1, math.ceil(obstacle_tree.size / fill))
    frac = 1.0
    root = _root_mbr(obstacle_tree)
    if footprint is not None and root is not None and root.area() > 0:
        grown = footprint.expanded(est_radius)
        frac = min(1.0, max(grown.area(), 1e-12) / root.area())
    return obstacle_tree.height + max(1, math.ceil(leaf_pages * frac))


def _backend_fields(ws: "Workspace", chosen: str) -> dict:
    """The plan's snapshot of the chosen backend's work counters."""
    stats = (ws.routing.stats if chosen == SHARED_VG
             else ws.per_query_backend.stats)
    return {
        "backend_batch_calls": stats.batch_visibility_calls,
        "backend_batched_edges": stats.batched_edges_tested,
        "backend_pruned_edges": stats.kernel_pruned_edges,
        "backend_bulk_pushes": stats.heap_bulk_pushes,
        "backend_dijkstra_runs": stats.dijkstra_runs,
        "backend_bulk_rows": stats.rows_bulk_materialized,
        "backend_bulk_launches": stats.bulk_pair_launches,
        "backend_graph_repairs": stats.graph_repairs,
        "backend_repair_retests": stats.repair_retested_pairs,
    }


def build_plan(workspace: "Workspace", query: Query,
               backend: Optional[str] = None) -> QueryPlan:
    """Select algorithm + layout + backend and estimate I/O for ``query``.

    Args:
        backend: optional per-plan override of
            :attr:`PlannerOptions.backend` (``"shared"`` / ``"per-query"``
            / ``"auto"``); the monitor subsystem uses it to pin repair
            sub-queries onto the workspace-shared graph.
    """
    if not isinstance(query, Query):
        raise TypeError(f"expected a Query description, got {type(query)!r}")
    ws = workspace
    cfg = query.config if query.config is not None else ws.config
    k = query.k
    layout = ws.layout
    notes: List[str] = []

    if isinstance(query, (SemiJoinQuery, EDistanceJoinQuery,
                          ClosestPairQuery)):
        if layout != "2T":
            raise ValueError(f"{query.kind} needs the 2T layout (a dedicated "
                             "obstacle tree)")
        algorithm = query.kind
        obstacle_tree = ws.obstacle_tree
        footprint = None
        # Join retrieval is anchored at one reference point; a full-cache
        # capsule is the only coverage proof that applies a priori.
        warm = ws.cache.covered(Segment(0.0, 0.0, 0.0, 0.0), math.inf)
        est_radius = math.inf
        est_io = 0 if warm else _estimate_pages(obstacle_tree, None, 0.0)
        notes.append("pairwise oracle anchored at the first candidate; "
                     "Euclidean lower bound prunes exact evaluations")
        return QueryPlan(query, algorithm, layout, k, cfg, footprint,
                         est_radius, warm, est_io, len(ws.cache),
                         ws.cache.coverage_regions, tuple(notes),
                         backend=PAIRWISE_VG, est_graph_builds=1,
                         backend_override=backend,
                         workspace_version=ws.version,
                         tree_versions=tree_versions(ws),
                         **_backend_fields(ws, PAIRWISE_VG))

    if not isinstance(query, (CoknnQuery, OnnQuery, RangeQuery,
                              TrajectoryQuery)):
        raise TypeError(f"no plan for query type {type(query).__name__}")

    base = {"conn": "coknn", "coknn": "coknn", "onn": "onn-scan",
            "range": "range-scan", "trajectory": "trajectory-coknn"}[
                query.kind]
    if query.kind == "conn":
        notes.append("CONN is COkNN with k = 1 (shared engine)")

    opts = ws.planner
    obstacle_tree = (ws.obstacle_tree if layout == "2T"
                     else ws.unified_tree)
    naive = (layout == "2T" and opts.naive_max_points > 0
             and ws.data_tree.size <= opts.naive_max_points)
    if naive:
        algorithm = NAIVE_PRELOAD
        notes.append(f"dataset is tiny ({ws.data_tree.size} points <= "
                     f"naive_max_points={opts.naive_max_points}): preload "
                     "the whole obstacle set, skip incremental retrieval")
    else:
        algorithm = f"{base}-{layout.lower()}"

    if isinstance(query, RangeQuery):
        est_radius = query.radius
    else:
        data_tree = ws.data_tree if layout == "2T" else ws.unified_tree
        est_radius = _nn_radius_estimate(data_tree, k)

    spines = _spines(query)
    warm = bool(spines) and all(
        ws.cache.covered(s, est_radius) for s in spines)
    footprint = query.footprint()

    if warm and layout == "2T":
        est_io = 0
    elif isinstance(query, TrajectoryQuery):
        # Per-leg footprints, not the whole-polyline bbox times leg count:
        # adjacent legs overlap, and each leg scans only its own region.
        est_io = sum(
            _estimate_pages(obstacle_tree, Rect(*s.bbox()), est_radius)
            for s in spines)
    else:
        est_io = _estimate_pages(obstacle_tree, footprint, est_radius)
    if layout == "1T":
        notes.append("1T unified scan reads data and obstacle pages "
                     "together; cache hits cannot skip them")

    workers = max(1, opts.parallel_workers)
    units = len(spines) if isinstance(query, TrajectoryQuery) else 1
    # Units drain in ceil(units / workers) pool rounds; a serial pool (or a
    # single-unit plan) gets exactly 1.0.
    est_speedup = (units / math.ceil(units / workers)
                   if workers > 1 and units > 1 else 1.0)
    if est_speedup > 1.0:
        notes.append(f"{units} independent legs over {workers} workers "
                     "(see est_parallel_speedup)")

    chosen = _resolve_backend(ws, backend, warm, spines)
    if chosen == SHARED_VG:
        builds = 0 if ws.routing.ready else 1
        if ws.routing.ready:
            notes.append(f"shared graph resident "
                         f"({ws.routing.resident_obstacles} obstacles): "
                         "visibility-graph build amortized to zero")
        else:
            notes.append("shared graph cold: built once from the obstacle "
                         "cache, then reused by every later query")
    else:
        legs = len(spines) if isinstance(query, TrajectoryQuery) else 1
        builds = max(1, legs)

    return QueryPlan(query, algorithm, layout, k, cfg, footprint, est_radius,
                     warm, est_io, len(ws.cache), ws.cache.coverage_regions,
                     tuple(notes), backend=chosen, est_graph_builds=builds,
                     est_parallel_speedup=est_speedup,
                     backend_override=backend, workspace_version=ws.version,
                     tree_versions=tree_versions(ws),
                     **_backend_fields(ws, chosen))
