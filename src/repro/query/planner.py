"""The query planner: algorithm + layout selection and ``explain()``.

``Workspace.plan(query)`` turns a typed query description into a
:class:`QueryPlan` — the algorithm the executor will run, the tree layout it
runs on, and an obstacle-I/O estimate derived from the workspace cache's
coverage capsules.  The plan renders itself as a human-readable transcript
via :meth:`QueryPlan.explain`, the declarative API's answer to SQL's
``EXPLAIN``.

Algorithm selection is deliberately simple and deterministic:

* CONN / COkNN / trajectory / ONN / range run the paper's engine on the
  workspace layout (``"2T"`` separate trees or ``"1T"`` unified tree), on
  the obstructed-distance backend the workspace's ``backend`` policy picks
  (see :func:`_resolve_backend`);
* the obstructed joins require the 2T layout (they need a dedicated
  obstacle tree), so planning them on 1T fails fast.

The I/O estimate is honest about being an estimate: when a coverage capsule
proves the query's predicted footprint cached, the plan reports a warm hit
(zero obstacle-tree reads on 2T); otherwise it scales the obstacle tree's
leaf count by the footprint's share of the indexed area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..core.config import DEFAULT_CONFIG, ConnConfig
from ..geometry.rectangle import Rect
from ..geometry.segment import Segment
from ..index.rstar import RStarTree
from ..routing.backends import PER_QUERY_VG, SHARED_VG
from ..routing.stats import BackendStats
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
    would have to pay anyway.  ``shared`` / ``per-query`` force one
    backend; results are identical either way (asserted by the backend
    equivalence suite), only where the graph work lands changes.
    """
    choice = override if override is not None else workspace.backend
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
    backend_stats: Optional[BackendStats] = None
    """A copy of the chosen backend's cumulative work counters at plan
    time (``None`` for the joins, whose pairwise oracle runs its own
    graph outside the backends)."""
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
        ]
        work = self.backend_stats
        if work is not None:
            lines += [
                f"  kernels   : {work.batch_visibility_calls} batch "
                f"visibility calls, {work.batched_edges_tested} batched "
                f"edges tested, {work.kernel_pruned_edges} bbox-pruned, "
                f"{work.heap_bulk_pushes} bulk heap pushes, "
                f"{work.dijkstra_runs} traversals so far",
                f"  cold/churn: {work.rows_bulk_materialized} bulk rows in "
                f"{work.bulk_pair_launches} bulk pair launches, "
                f"{work.graph_repairs} removal repairs "
                f"({work.repair_retested_pairs} pairs retested so far)",
            ]
        if self.est_shard_fanout > 0:
            lines.append(f"  shards    : est. fan-out {self.est_shard_fanout}")
        lines.append(f"  config    : {flags}")
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
        return query.legs()
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


def build_plan(workspace: "Workspace", query: Query,
               backend: Optional[str] = None) -> QueryPlan:
    """Select algorithm + layout + backend and estimate I/O for ``query``.

    Args:
        backend: optional per-plan override of the workspace's
            ``backend`` policy (``"shared"`` / ``"per-query"`` /
            ``"auto"``); the monitor subsystem uses it to pin repair
            sub-queries onto the workspace-shared graph.
    """
    if not isinstance(query, Query):
        raise TypeError(f"expected a Query description, got {type(query)!r}")
    ws = workspace
    cfg = query.config if query.config is not None else DEFAULT_CONFIG
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
                         tree_versions=tree_versions(ws))

    if not isinstance(query, (CoknnQuery, OnnQuery, RangeQuery,
                              TrajectoryQuery)):
        raise TypeError(f"no plan for query type {type(query).__name__}")

    base = {"conn": "coknn", "coknn": "coknn", "onn": "onn-scan",
            "range": "range-scan", "trajectory": "trajectory-coknn"}[
                query.kind]
    if query.kind == "conn":
        notes.append("CONN is COkNN with k = 1 (shared engine)")

    obstacle_tree = (ws.obstacle_tree if layout == "2T"
                     else ws.unified_tree)
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
    work = replace(ws.routing.stats if chosen == SHARED_VG
                   else ws.per_query_backend.stats)

    return QueryPlan(query, algorithm, layout, k, cfg, footprint, est_radius,
                     warm, est_io, len(ws.cache), ws.cache.coverage_regions,
                     tuple(notes), backend=chosen, est_graph_builds=builds,
                     backend_override=backend, workspace_version=ws.version,
                     tree_versions=tree_versions(ws), backend_stats=work)
