"""Control Point List Computation — CPLC (Algorithm 2).

Given a data point ``p`` whose relevant obstacles are already in the local
visibility graph, CPLC derives ``p``'s *control point list* over the query
segment: a piecewise distance function whose piece on interval ``R`` says
"the shortest path from ``p`` to any ``s in R`` goes through control point
``cp``, costing ``||p, cp|| + dist(cp, s)``" (Definitions 8-9).

The traversal is the point's traversal aimed at ``q`` — the one IOR
settled toward S and E, resumed — in ``f = ||p, v|| + dist(v, q)`` order
(A* with a consistent heuristic, so each node still arrives with its
final obstructed distance and its shortest-path predecessor), with the
paper's three optimizations, each independently switchable:

* **Lemma 5** — a node ``v`` need only be considered over ``VR_v - VR_u``
  where ``u`` is its shortest-path predecessor: wherever ``u`` sees ``q``,
  the path through ``v`` cannot be shorter.
* **Lemma 6** — an interval of that difference that is an interior "hole" of
  ``VR_u`` can be dropped when ``v`` lies outside the triangle spanned by
  ``u`` and the hole endpoints.
* **Lemma 7** — the traversal stops once ``f >= CPLMAX``, the largest
  distance the current list already guarantees.  The paper stops at
  ``||p, v|| >= CPLMAX``; ``f`` is a lower bound of everything ``v`` (and,
  by ``f`` order, every later node) can contribute on ``q``, so stopping
  at ``f`` is as sound and comes earlier.

On top of the paper's rules this reproduction adds an exact *Euclidean
prefilter* (``use_euclid_prefilter``): a node whose straight-line lower
bound ``f`` already reaches CPLMAX cannot improve the envelope anywhere
(with Lemma 7 off, this skips it rather than stopping), and a node whose
lower bound cannot beat the list anywhere on its visible region is skipped
before the merge.
"""

from __future__ import annotations

import math
from typing import Any

from ..geometry.interval import IntervalSet
from ..geometry.predicates import point_in_triangle
from ..routing.backends import ObstructedGraph
from .config import DEFAULT_CONFIG, ConnConfig
from .distance_function import PiecewiseDistance
from .stats import QueryStats


def compute_cpl(vg: ObstructedGraph, point_node: int, owner: Any,
                cfg: ConnConfig = DEFAULT_CONFIG,
                stats: QueryStats | None = None,
                bound: float = math.inf,
                global_env: PiecewiseDistance | None = None
                ) -> PiecewiseDistance:
    """The control point list of ``point_node``'s point over the query segment.

    Args:
        vg: graph surface (backend session or local visibility graph)
            already covering the point's search range.
        point_node: transient graph node of the data point.
        owner: payload to stamp on every piece (the data point itself).
        bound: the engine's global result bound (generalized RLMAX).
            Contributions at or above it lose — or tie, which keeps the
            incumbent — at every level of the engine's k-envelope, so the
            traversal breaks there and dominated nodes are skipped.  The
            returned CPL is then only trustworthy *below* the bound, which
            is exactly the part that can reach the result.
        global_env: the k-th (worst) level of the engine's envelope, for
            the piecewise regional form of the same pruning.

    Returns:
        A :class:`PiecewiseDistance` partitioning ``q``; pieces with
        ``cp=None`` mark parts of ``q`` unreachable from the point.
    """
    stats = stats if stats is not None else QueryStats()
    qseg = vg.qseg
    cpl = PiecewiseDistance.unknown(qseg, owner)
    cplmax = cpl.max_endpoint_value()
    prefilter = cfg.use_euclid_prefilter
    lemma7 = cfg.use_lemma7
    limit = bound
    # This loop touches every settled node of every CPLC traversal, so it
    # consumes the graph's raw resumable traversal directly (the replay-
    # cursor discipline of ArrayTraversal.order: same entries in the same
    # order) instead of paying a generator resume per node.
    tr, on_settle = vg.aimed_traversal(point_node)
    settled, keys = tr.settled, tr.keys
    i = 0
    while True:
        if i < len(settled):
            f = keys[i]
            if f >= limit:
                break
            dist_v, v, pred = settled[i]
            i += 1
        else:
            entry = tr.advance(limit)
            if entry is None:
                if i < len(settled):
                    continue
                break
            on_settle(entry)
            continue
        stats.nodes_expanded += 1
        if prefilter and f >= cplmax:
            # Euclidean lower bound: every value ``v`` could contribute is
            # >= f = dist_v + dist(v, q(t)), while the incumbent is
            # <= CPLMAX everywhere (each piece is convex with its maximum
            # at an endpoint).  Ties keep the incumbent, so the merge is
            # provably a no-op — skip the visible-region and envelope work
            # outright.  (With Lemma 7 on, the limit stopped first.)
            stats.prefilter_skips += 1
            continue
        vx, vy = vg.node_point(v)
        region = vg.visible_region_of(v)
        if cfg.use_lemma5 and pred is not None:
            vr_pred = vg.visible_region_of(pred)
            region = region.subtract(vr_pred)
            if cfg.use_lemma6 and region:
                region = _lemma6_refine(vg, qseg, region, vr_pred, pred, v,
                                        stats)
        if region.is_empty():
            continue
        if global_env is not None and \
                global_env.dominates_challenger(region, (vx, vy), dist_v):
            # Regional form of the global bound: a contribution whose
            # Euclidean lower bound cannot beat the engine's current k-th
            # best anywhere on its region can never surface in any result
            # level.  Checked before the point's own envelope because the
            # mature cross-point incumbent dominates far more often.
            stats.global_bound_cutoffs += 1
            continue
        if prefilter and cpl.dominates_challenger(region, (vx, vy), dist_v):
            # Piecewise regional bound: the challenger is only finite on its
            # visible region, and comparing its Euclidean lower bound
            # against the incumbent piece by piece over that region often
            # proves the merge a no-op after Lemma 5 shrank the region.
            # (Unlike the CPLMAX gate above this works even while parts of
            # the envelope are still unknown: the check itself refuses to
            # skip wherever the region overlaps an unknown piece.)
            stats.prefilter_skips += 1
            continue
        challenger = PiecewiseDistance.from_region(qseg, region, (vx, vy),
                                                   dist_v, owner)
        cpl, _loser, changed = cpl.merge_min(challenger, cfg, stats)
        if changed:
            cplmax = cpl.max_endpoint_value()
            if lemma7:
                limit = min(cplmax, bound)
    if i < len(settled) or not tr.exhausted:  # stopped at the limit
        if lemma7 and cplmax <= bound:
            stats.lemma7_cutoffs += 1
        else:
            stats.global_bound_cutoffs += 1
    return cpl


def _lemma6_refine(vg: ObstructedGraph, qseg, region: IntervalSet,
                   vr_pred: IntervalSet, pred: int, v: int,
                   stats: QueryStats) -> IntervalSet:
    """Drop intervals that Lemma 6's triangle test proves irrelevant.

    An interval of ``VR_v - VR_u`` whose endpoints both touch ``VR_u`` is an
    interior hole of the predecessor's visible region; if ``v`` lies outside
    the triangle formed by ``u`` and the hole endpoints, the detour via
    ``v`` can never beat the path around the blocking obstacle.
    """
    ux, uy = vg.node_point(pred)
    vx, vy = vg.node_point(v)
    kept = []
    for lo, hi in region:
        if vr_pred.contains(lo) and vr_pred.contains(hi):
            p_lo = qseg.point_at(lo)
            p_hi = qseg.point_at(hi)
            if not point_in_triangle(vx, vy, ux, uy, p_lo.x, p_lo.y,
                                     p_hi.x, p_hi.y):
                stats.lemma6_prunes += 1
                continue
        kept.append((lo, hi))
    return IntervalSet(kept)
