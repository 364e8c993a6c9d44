"""Monitor kinds, the affected-test, local repair, and result deltas.

One :class:`Monitor` wraps one registered query and its standing result.
The maintenance contract is *pointwise exactness*: after every update the
standing result equals what a fresh execution of the query on the mutated
dataset would return — the affected-test and span repair only change how
much work (and how much obstacle-tree I/O) it takes to get there.

Soundness of the affected-test.  Every query kind has an *influence
radius* ``R(t)``: the distance of the current k-th answer at parameter
``t`` (the query radius for range queries).  An obstructed path of length
``L`` starting at ``q(t)`` stays inside the Euclidean ball of radius ``L``
around ``q(t)``; therefore an update whose footprint keeps Euclidean
distance greater than ``R(t)`` from ``q(t)`` can neither cut any path that
backs the current answer (all of length at most ``R(t)``) nor open or
carry a path that would beat it.  Site removals are tested even more
tightly: only the spans where the removed payload is currently an owner of
some level can change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from ..core.engine import ConnResult
from ..core.stats import QueryStats
from ..geometry.predicates import EPS
from ..geometry.rectangle import Rect
from ..geometry.segment import Segment
from ..query.queries import (
    CoknnQuery,
    OnnQuery,
    Query,
    RangeQuery,
    TrajectoryQuery,
)
from ..query.results import NeighborsResult
from ..service.updates import AddObstacle, RemoveSite, Update

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service.workspace import Workspace

NO_OP = "no-op"
"""The affected-test proved the update cannot change this monitor's answer."""

REPAIR = "repair"
"""The engine re-ran on the affected sub-spans only; results were spliced."""

RERUN = "rerun"
"""The whole query re-ran (affected span too large, or a point query)."""


@dataclass(frozen=True)
class ResultDelta:
    """What changed in a monitor's answer after one update.

    ``intervals`` carries segment-monitor changes as
    ``(lo, hi, old_owners, new_owners)`` rows; ``added`` / ``removed`` /
    ``changed`` carry point/range-monitor changes as
    ``(payload, distance)`` pairs (``changed`` lists pairs whose distance
    moved while the payload stayed in the answer).
    """

    intervals: Tuple[Tuple[float, float, Tuple, Tuple], ...] = ()
    added: Tuple[Tuple[Any, float], ...] = ()
    removed: Tuple[Tuple[Any, float], ...] = ()
    changed: Tuple[Tuple[Any, float], ...] = ()

    @property
    def empty(self) -> bool:
        """True when the update left the answer bit-identical."""
        return not (self.intervals or self.added or self.removed
                    or self.changed)


EMPTY_DELTA = ResultDelta()


def influence_radius(query: Query, result) -> float:
    """The influence radius ``R`` of a standing answer (see module docs).

    An obstructed path of length ``L`` from a query location stays inside
    the Euclidean ball of radius ``L`` around it, so nothing at Euclidean
    distance greater than ``R`` from the query footprint can change (or be
    needed to verify) the answer.  This single bound backs both the
    monitors' affected-tests and the shard router's border-expansion
    containment check.  Infinite while any part of the answer lacks a
    known k-th path (anything could improve it).
    """
    if isinstance(query, TrajectoryQuery):
        return max(leg.levels[-1].max_endpoint_value()
                   for leg in result.legs)
    if isinstance(query, CoknnQuery):  # covers ConnQuery
        return result.levels[-1].max_endpoint_value()
    if isinstance(query, RangeQuery):
        return query.radius
    if isinstance(query, OnnQuery):
        rows = result.tuples()
        if len(rows) < query.k:
            return math.inf
        return rows[-1][1]
    raise TypeError(f"no influence radius for query kind {query.kind!r}")


@dataclass(frozen=True)
class MonitorEvent:
    """One maintenance step of one monitor: what was decided and what moved."""

    monitor: "Monitor"
    update: Update
    action: str
    """One of :data:`NO_OP`, :data:`REPAIR`, :data:`RERUN`."""
    spans: Tuple[Tuple[float, float], ...]
    """Repaired parameter spans (empty for no-op and full reruns)."""
    delta: ResultDelta
    workspace_version: int


def diff_intervals(old: List[Tuple[Tuple, Tuple[float, float]]],
                   new: List[Tuple[Tuple, Tuple[float, float]]]
                   ) -> Tuple[Tuple[float, float, Tuple, Tuple], ...]:
    """Changed regions between two owner-interval partitions of ``[0, L]``.

    Both inputs are ``knn_intervals()``-shaped: ``(owners, (lo, hi))`` rows
    partitioning the same parameter range.  Returns merged
    ``(lo, hi, old_owners, new_owners)`` rows covering exactly the
    parameters where the owner tuple differs.
    """
    cuts = sorted({lo for _o, (lo, _hi) in old} | {hi for _o, (_lo, hi) in old}
                  | {lo for _o, (lo, _hi) in new}
                  | {hi for _o, (_lo, hi) in new})
    out: List[Tuple[float, float, Tuple, Tuple]] = []

    def owners_at(rows, t):
        for owners, (lo, hi) in rows:
            if lo - EPS <= t <= hi + EPS:
                return owners
        return None

    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo <= EPS:
            continue
        mid = 0.5 * (lo + hi)
        a = owners_at(old, mid)
        b = owners_at(new, mid)
        if a == b:
            continue
        if out and out[-1][1] >= lo - EPS and out[-1][2] == a \
                and out[-1][3] == b:
            out[-1] = (out[-1][0], hi, a, b)
        else:
            out.append((lo, hi, a, b))
    return tuple(out)


class Monitor:
    """Base monitor: a registered query plus its standing result.

    Maintenance executions (span repairs and full re-runs) are planned
    with the workspace-shared obstructed-distance backend pinned
    (``backend="shared"``): a monitor's repair spans revisit the same
    neighborhood over and over, which is exactly the workload the
    persistent visibility graph amortizes — the obstacle skeleton and its
    sight-line tests survive across repair spans instead of being rebuilt
    per sub-query.

    Attributes:
        id: registry-assigned identity.
        query: the registered typed query description.
        result: the standing answer, always equal to a fresh execution on
            the current dataset.
        events: the most recent :class:`MonitorEvent` objects, oldest
            first, capped at :attr:`max_events` (long-running monitors see
            unbounded update streams; use ``callback`` to observe every
            event as it happens).
        callback: optional ``callable(event)`` invoked on each update.
    """

    max_events = 256
    """History bound for :attr:`events`; older events are dropped."""

    def __init__(self, workspace: "Workspace", mid: int, query: Query,
                 callback: Optional[Callable[[MonitorEvent], None]] = None):
        self._ws = workspace
        self.id = mid
        self.query = query
        self.callback = callback
        self.events: List[MonitorEvent] = []
        self.active = True
        self.result = workspace.execute(query)

    def _execute_shared(self, query: Query):
        """Run a maintenance (sub-)query on the workspace-shared backend.

        Workspaces explicitly forced onto per-query graphs
        (``backend="per-query"``) keep their policy; any
        other policy (including ``auto``) pins maintenance onto the shared
        graph, whose skeleton repair spans revisit again and again.  On a
        :class:`~repro.shard.sharded.ShardedWorkspace` the pin reaches a
        single-shard run's shared graph; a run over several shards still
        plans a per-query graph (see ``ShardedWorkspace._plan``).
        """
        from ..routing.backends import PER_QUERY_VG

        override = (None if self._ws.backend in
                    ("per-query", PER_QUERY_VG) else "shared")
        return self._ws.execute(self._ws.plan(query, backend=override))

    # Subclass responsibilities -------------------------------------------
    def _refresh(self, update: Update) -> Tuple[str, Tuple[Tuple[float,
                                                                 float], ...],
                                                ResultDelta]:
        raise NotImplementedError

    # ---------------------------------------------------------------- driver
    def refresh(self, update: Update) -> MonitorEvent:
        """Repair the standing result for one applied update."""
        action, spans, delta = self._refresh(update)
        event = MonitorEvent(self, update, action, spans, delta,
                             self._ws.version)
        self.events.append(event)
        if len(self.events) > self.max_events:
            del self.events[:len(self.events) - self.max_events]
        if self.callback is not None:
            self.callback(event)
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(id={self.id}, "
                f"query={self.query.describe()})")


class SegmentMonitor(Monitor):
    """Monitor of a CONN/COkNN query: interval-local incremental repair."""

    #: Affected fraction of the segment beyond which a full re-run is
    #: cheaper than span-wise repair plus splicing.
    rerun_fraction = 0.6

    @property
    def _qseg(self) -> Segment:
        return self.query.segment

    def _influence(self) -> float:
        """Max k-th-level distance over the segment (inf while any part of
        the segment lacks a known k-th path)."""
        return influence_radius(self.query, self.result)

    def _affected_spans(self, update: Update,
                        footprint: Rect) -> List[Tuple[float, float]]:
        """Conservative superset of the parameter spans the update touches."""
        qseg = self._qseg
        spans: List[Tuple[float, float]] = []
        if isinstance(update, RemoveSite):
            # Removal only matters where the payload currently owns a level.
            for level in self.result.levels:
                for p in level.pieces:
                    if p.owner == update.payload:
                        spans.append((p.lo, p.hi))
            spans.sort()
        elif isinstance(update, AddObstacle):
            # An inserted obstacle only lengthens paths, so it must cut a
            # path backing some *known* level value: test every level's
            # finite pieces and skip unreachable ones outright (their
            # infinite value cannot get worse).
            for level in self.result.levels:
                for p in level.pieces:
                    if p.cp is None:
                        continue
                    a = qseg.point_at(p.lo)
                    b = qseg.point_at(p.hi)
                    d = footprint.mindist_segment(a.x, a.y, b.x, b.y)
                    if d <= p.max_value(qseg) + EPS:
                        spans.append((p.lo, p.hi))
            spans.sort()
        else:
            # Site insert or obstacle removal: both can *shorten* the k-th
            # answer, so the k-th level bounds the reach (an unreachable
            # piece is always fair game — anything could improve it).
            kth = self.result.levels[-1]
            for p in kth.pieces:
                a = qseg.point_at(p.lo)
                b = qseg.point_at(p.hi)
                d = footprint.mindist_segment(a.x, a.y, b.x, b.y)
                if d <= p.max_value(qseg) + EPS:
                    spans.append((p.lo, p.hi))
        return _merge_spans(spans, gap=max(1e-9, 1e-9 * qseg.length))

    def _repair(self, spans: List[Tuple[float, float]]
                ) -> List[Tuple[float, float]]:
        """Re-run the engine on each span and splice the fresh levels in.

        Returns:
            The spans actually recomputed (tiny ones are widened to a
            non-degenerate sub-segment first).
        """
        qseg = self._qseg
        levels = list(self.result.levels)
        stats = QueryStats()
        repaired: List[Tuple[float, float]] = []
        min_span = max(1e-6, 1e-6 * qseg.length)
        # Span boundaries are piece boundaries, and piece boundaries often
        # sit exactly on obstacle-crossing parameters — where the distance
        # function is discontinuous and a sub-query endpoint placed *on*
        # the obstacle could tunnel through it (each leg of a path bending
        # there only grazes the obstacle, so no single visibility test
        # rejects the concatenation).  Padding moves the sub-segment's
        # endpoints strictly into the neighboring pieces' free space;
        # recomputing the extra sliver is exact, so splicing it is free.
        edge_pad = 1e-7 * max(qseg.length, 1.0)
        for lo, hi in spans:
            lo = max(0.0, lo - edge_pad)
            hi = min(qseg.length, hi + edge_pad)
            if hi - lo < min_span:
                pad = 0.5 * (min_span - (hi - lo))
                lo = max(0.0, lo - pad)
                hi = min(qseg.length, hi + pad)
            repaired.append((lo, hi))
            a = qseg.point_at(lo)
            b = qseg.point_at(hi)
            sub = self._execute_shared(
                CoknnQuery(Segment(a.x, a.y, b.x, b.y), self.query.k,
                           config=self.query.config))
            levels = [old.replace_span(lo, hi, fresh)
                      for old, fresh in zip(levels, sub.levels)]
            stats.merge(sub.stats)
        result = ConnResult(qseg, self.query.k, levels, stats)
        result.query = self.query
        self.result = result
        return repaired

    def _refresh(self, update: Update):
        footprint = update.footprint()
        qseg = self._qseg
        quick = footprint.mindist_segment(qseg.ax, qseg.ay, qseg.bx, qseg.by)
        if quick > self._influence() + EPS:
            return NO_OP, (), EMPTY_DELTA
        spans = self._affected_spans(update, footprint)
        if not spans:
            return NO_OP, (), EMPTY_DELTA
        old_intervals = self.result.knn_intervals()
        covered = sum(hi - lo for lo, hi in spans)
        if covered >= self.rerun_fraction * qseg.length:
            self.result = self._execute_shared(self.query)
            action, spans = RERUN, ()
        else:
            action, spans = REPAIR, tuple(self._repair(spans))
        delta = ResultDelta(intervals=diff_intervals(
            old_intervals, self.result.knn_intervals()))
        return action, spans, delta


class PointMonitor(Monitor):
    """Monitor of a snapshot point query (ONN or obstructed range).

    Point queries are atomic — there is no sub-span to repair — so the
    increment is all in the affected-test: a dismissed update costs
    nothing, an accepted one costs a single re-execution served largely
    from the workspace's obstacle cache.
    """

    def _point(self):
        return self.query.point

    def _influence(self) -> float:
        return influence_radius(self.query, self.result)

    def _refresh(self, update: Update):
        old = self.result.tuples()
        if isinstance(update, RemoveSite):
            if not any(payload == update.payload for payload, _d in old):
                return NO_OP, (), EMPTY_DELTA
        else:
            x, y = self._point()
            d = update.footprint().mindist_segment(x, y, x, y)
            if d > self._influence() + EPS:
                return NO_OP, (), EMPTY_DELTA
        self.result = self._execute_shared(self.query)
        return RERUN, (), diff_neighbors(old, self.result.tuples())


def _merge_spans(spans: List[Tuple[float, float]],
                 gap: float) -> List[Tuple[float, float]]:
    """Coalesce sorted, possibly overlapping spans separated by <= ``gap``."""
    out: List[Tuple[float, float]] = []
    for lo, hi in spans:
        if out and lo <= out[-1][1] + gap:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def diff_neighbors(old: List[Tuple[Any, float]],
                   new: List[Tuple[Any, float]]) -> ResultDelta:
    """Delta between two ``(payload, distance)`` answer lists."""
    old_by = {payload: dist for payload, dist in old}
    new_by = {payload: dist for payload, dist in new}
    added = tuple((p, d) for p, d in new if p not in old_by)
    removed = tuple((p, d) for p, d in old if p not in new_by)
    changed = tuple((p, d) for p, d in new
                    if p in old_by and abs(old_by[p] - d) > 1e-9)
    return ResultDelta(added=added, removed=removed, changed=changed)


def monitor_for(workspace: "Workspace", mid: int, query: Query,
                callback: Optional[Callable[[MonitorEvent], None]]
                ) -> Monitor:
    """Instantiate the right monitor kind for a typed query description."""
    if isinstance(query, CoknnQuery):  # covers ConnQuery
        return SegmentMonitor(workspace, mid, query, callback)
    if isinstance(query, (OnnQuery, RangeQuery)):
        return PointMonitor(workspace, mid, query, callback)
    raise ValueError(
        f"no monitor for query kind {query.kind!r}: register a ConnQuery, "
        "CoknnQuery, OnnQuery or RangeQuery")


# NeighborsResult is what PointMonitor stores in ``result``; re-exported so
# callers annotating monitor results need not import the query package too.
__all__ = [
    "EMPTY_DELTA",
    "Monitor",
    "MonitorEvent",
    "NeighborsResult",
    "NO_OP",
    "PointMonitor",
    "REPAIR",
    "RERUN",
    "ResultDelta",
    "SegmentMonitor",
    "diff_intervals",
    "diff_neighbors",
    "influence_radius",
    "monitor_for",
]
