"""The CONN/COkNN query engine (Algorithm 4 and its Section 4.5 extension).

One engine serves every variant:

* ``k = 1`` is the paper's CONN: the k-envelope degenerates to the result
  list RL and cascade insertion to the Result List Update algorithm (RLU,
  Algorithm 3) — the same envelope merge, Lemma 1 pruning included.
* ``k > 1`` is COkNN: the envelope keeps ``k`` stacked piecewise functions
  (pointwise 1st, 2nd, ..., k-th smallest); inserting a candidate bubbles
  its losing portions downward, and the generalized RLMAX of Section 4.5 is
  the k-th level's maximum endpoint value.
* Two-tree (2T) and single-tree (1T) layouts differ only in the
  data/obstacle *sources* plugged in (see :mod:`repro.core.conn_1t`).

The data scan is best-first by ``mindist`` to the query segment (the
Euclidean lower bound of the obstructed distance) and stops by Lemma 2 once
the next candidate's ``mindist`` exceeds RLMAX.
"""

from __future__ import annotations

import math
import time
from typing import Any, List, Optional, Protocol, Sequence, Tuple

from ..geometry.predicates import EPS
from ..geometry.segment import Segment
from ..index.nearest import nearest_to_segment
from ..index.pagestore import PageTracker
from ..index.rstar import RStarTree
from ..routing.backends import ObstructedGraph
from .config import ConnConfig
from .cplc import compute_cpl
from .distance_function import PiecewiseDistance
from .ior import ObstacleSource, ior_fixpoint
from .stats import QueryStats


class DataSource(Protocol):
    """Feed of candidate data points in ascending mindist-to-query order."""

    def peek_key(self) -> float:
        """Next candidate's mindist, or ``inf`` when exhausted."""
        ...  # pragma: no cover - protocol

    def pop(self) -> Tuple[float, Any, Tuple[float, float]]:
        """Consume the next candidate: ``(mindist, payload, (x, y))``."""
        ...  # pragma: no cover - protocol


class TreeDataSource:
    """2T data feed: best-first scan of a dedicated data R*-tree."""

    def __init__(self, data_tree: RStarTree, qseg: Segment):
        self._scan = nearest_to_segment(data_tree, qseg.ax, qseg.ay,
                                        qseg.bx, qseg.by)

    def peek_key(self) -> float:
        return self._scan.peek_key()

    def pop(self) -> Tuple[float, Any, Tuple[float, float]]:
        d, payload, rect = self._scan.pop()
        cx, cy = rect.center()
        return d, payload, (cx, cy)


class KEnvelope:
    """The k stacked minimum envelopes maintained during a COkNN query."""

    def __init__(self, qseg: Segment, k: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.qseg = qseg
        self.k = k
        self.levels: List[PiecewiseDistance] = [
            PiecewiseDistance.unknown(qseg) for _ in range(k)
        ]

    def insert(self, candidate: PiecewiseDistance, cfg: ConnConfig,
               stats: QueryStats) -> bool:
        """Bubble a candidate distance function into the k levels.

        Pointwise, this inserts the candidate's value into a sorted list of
        the k smallest seen so far (losers of level ``j`` sink to ``j+1``).

        Returns:
            True when any level changed.
        """
        changed_any = False
        carry = candidate
        for j in range(self.k):
            winner, loser, changed = self.levels[j].merge_min(carry, cfg, stats)
            self.levels[j] = winner
            changed_any = changed_any or changed
            carry = loser
            if carry.all_unknown():
                break
        return changed_any

    def rlmax(self) -> float:
        """Generalized RLMAX (Section 4.5): k-th level's max endpoint value."""
        return self.levels[-1].max_endpoint_value()


class ConnResult:
    """Answer of a CONN/COkNN query.

    The primary view is :meth:`tuples` — the paper's result list of
    ``(point, interval)`` pairs — plus accessors for distances, split points
    and, for ``k > 1``, the per-interval k-NN sets.  Satisfies the unified
    result protocol of the declarative API (:meth:`tuples`, :attr:`stats`,
    and a :attr:`query` back-reference filled by ``Workspace.execute``).
    """

    def __init__(self, qseg: Segment, k: int,
                 levels: Sequence[PiecewiseDistance], stats: QueryStats):
        self.qseg = qseg
        self.k = k
        self.levels = list(levels)
        self.stats = stats
        self.query = None
        """The submitted query description (set by ``Workspace.execute``)."""

    @property
    def envelope(self) -> PiecewiseDistance:
        """The nearest-neighbor distance function (level 1)."""
        return self.levels[0]

    def tuples(self) -> List[Tuple[Any, Tuple[float, float]]]:
        """Result list ``[(owner, (lo, hi)), ...]``; owner ``None`` = unreachable."""
        return self.envelope.owner_tuples()

    def split_points(self) -> List[float]:
        """Parameters where the nearest neighbor changes."""
        return self.envelope.split_points()

    def owner_at(self, t: float) -> Any:
        return self.envelope.owner_at(t)

    def distance(self, t: float) -> float:
        """Obstructed distance from ``q(t)`` to its nearest neighbor."""
        return self.envelope.value(t)

    def kth_distance(self, t: float) -> float:
        return self.levels[-1].value(t)

    def knn_at(self, t: float) -> List[Tuple[Any, float]]:
        """The k ``(owner, distance)`` pairs at parameter ``t``, ascending."""
        return [(lv.owner_at(t), lv.value(t)) for lv in self.levels]

    @staticmethod
    def _owner_on(level: PiecewiseDistance, t: float) -> Any:
        """Owner of ``level`` at ``t``, normalized: no known path => ``None``."""
        piece = level.piece_at(t)
        return piece.owner if piece.cp is not None else None

    def knn_intervals(self) -> List[Tuple[Tuple[Any, ...], Tuple[float, float]]]:
        """Partition of ``q`` into intervals with a constant ordered k-NN set.

        Owners are normalized the way :meth:`tuples` normalizes them — a
        level with no known path reports ``None`` — and adjacent intervals
        merge whenever the ordered owner tuple is unchanged.  An interior
        boundary of some level (a control-point change, or an unreachable
        piece changing its recorded loser) therefore never forces a cut
        unless the k-NN tuple actually changes there.
        """
        cuts = sorted({0.0, self.qseg.length,
                       *(b for lv in self.levels for b in lv.boundaries())})
        out: List[Tuple[Tuple[Any, ...], Tuple[float, float]]] = []
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo <= EPS:
                continue
            mid = 0.5 * (lo + hi)
            owners = tuple(self._owner_on(lv, mid) for lv in self.levels)
            if out and all(a is b or a == b
                           for a, b in zip(out[-1][0], owners)):
                out[-1] = (owners, (out[-1][1][0], hi))
            else:
                out.append((owners, (lo, hi)))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ConnResult(k={self.k}, tuples={len(self.tuples())}, "
                f"npe={self.stats.npe}, noe={self.stats.noe})")


def evaluate_point(vg: ObstructedGraph, retriever: ObstacleSource,
                   payload: Any, x: float, y: float, cfg: ConnConfig,
                   stats: QueryStats, bound: float = math.inf,
                   global_env: Optional[PiecewiseDistance] = None
                   ) -> PiecewiseDistance:
    """Full evaluation of one data point: IOR, CPLC, coverage validation.

    ``vg`` is any :class:`~repro.routing.backends.ObstructedGraph` — a raw
    :class:`~repro.obstacles.visgraph.LocalVisibilityGraph` or a backend
    session obtained from
    :meth:`~repro.routing.backends.ObstructedDistanceBackend.attach_endpoints`.

    ``bound``/``global_env`` carry the engine's incumbent k-envelope into
    the point's evaluation (see :class:`~repro.core.config.ConnConfig`'s
    ``use_global_bound``): IOR, CPLC and coverage validation all stop at
    the bound, because nothing the point claims at or beyond it can reach
    the result.

    Returns the point's control point list as a piecewise distance function
    over the whole query segment — trustworthy below ``bound``.
    """
    point_node = vg.add_point(x, y)
    try:
        ior_fixpoint(vg, retriever, point_node, stats, bound)
        while True:
            cpl = compute_cpl(vg, point_node, payload, cfg, stats, bound,
                              global_env)
            if not cfg.validate_coverage:
                break
            claimed = cpl.max_endpoint_value()
            if claimed > bound:
                # Claims beyond the global bound can never surface, so
                # coverage up to the bound validates everything that can.
                claimed = bound
            if claimed <= retriever.radius + EPS:
                break
            stats.coverage_rounds += 1
            if retriever.ensure(claimed) == 0:
                break
    finally:
        vg.remove_point(point_node)
    return cpl


def run_query(source: DataSource, retriever: ObstacleSource,
              vg: ObstructedGraph, qseg: Segment, k: int,
              cfg: ConnConfig, trackers: Sequence[PageTracker],
              stats: Optional[QueryStats] = None) -> ConnResult:
    """Drive the best-first scan to completion (Algorithm 4 generalized).

    The distance substrate arrives as an attached backend session (or a
    raw local graph): the engine never constructs a visibility graph
    itself, which is what lets the planner swap per-query and
    workspace-shared substrates without touching this loop.
    """
    stats = stats if stats is not None else QueryStats()
    snapshots = [(t, t.local_stats.snapshot()) for t in trackers]
    started = time.perf_counter()
    env = KEnvelope(qseg, k)
    while True:
        key = source.peek_key()
        if math.isinf(key):
            break
        if cfg.use_rlmax and key > env.rlmax() + EPS:
            break  # Lemma 2: no unseen point can improve the result list
        _d, payload, (x, y) = source.pop()
        stats.npe += 1
        if cfg.use_global_bound:
            bound, gdom = env.rlmax(), env.levels[-1]
        else:
            bound, gdom = math.inf, None
        cpl = evaluate_point(vg, retriever, payload, x, y, cfg, stats,
                             bound, gdom)
        env.insert(cpl, cfg, stats)
    stats.cpu_time_s += time.perf_counter() - started
    stats.svg_size = vg.svg_size
    for tracker, snap in snapshots:
        delta = tracker.local_stats.delta(snap)
        stats.io.logical_reads += delta.logical_reads
        stats.io.page_faults += delta.page_faults
    return ConnResult(qseg, k, env.levels, stats)
