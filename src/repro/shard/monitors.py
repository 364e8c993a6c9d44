"""Standing queries over a sharded workspace: pinned, re-homed, exact.

A :class:`ShardMonitor` is the sharded analogue of
:class:`~repro.monitor.monitor.Monitor`: one registered query plus its
standing result, kept *pointwise exact* under every update applied through
:meth:`ShardedWorkspace.apply`.  The division of labor differs from the
unsharded registry:

* the monitor is **pinned** to the shard set its answer's influence ball
  currently touches (``monitor.home``) — the same set the router consulted
  to produce the standing result;
* the affected-test is the unsharded one (the influence-ball argument of
  :func:`~repro.monitor.monitor.influence_radius`): updates whose footprint
  stays Euclidean-farther than the influence radius are dismissed without
  touching any shard;
* an accepted update re-executes the query through the border-expansion
  router — which reads the pinned set's shards in place when the ball has
  not moved, and **re-homes** the monitor (a ``stats.rehomes`` tick) when
  the update pushed the ball across a shard edge.

Result deltas are computed with the same
:func:`~repro.monitor.monitor.diff_intervals` /
:func:`~repro.monitor.monitor.diff_neighbors` machinery the unsharded
monitors use, so a sharded monitor's delta stream is identical to its
unsharded twin's (asserted by the equivalence suite).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

from ..geometry.predicates import EPS
from ..monitor.monitor import (
    EMPTY_DELTA,
    NO_OP,
    RERUN,
    MonitorEvent,
    ResultDelta,
    diff_intervals,
    diff_neighbors,
    influence_radius,
)
from ..monitor.registry import MaintenanceStats
from ..query.queries import CoknnQuery, OnnQuery, Query, RangeQuery
from ..service.updates import RemoveSite, Update

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sharded import ShardedWorkspace


class ShardMonitor:
    """One standing query pinned to its owning shard set.

    Attributes:
        id: registry-assigned identity.
        query: the registered typed query description.
        result: the standing answer, always equal to a fresh execution on
            the current cross-shard dataset.
        home: the shard ids the standing answer currently depends on (the
            router's final set); updated on re-home.
        events: recent :class:`~repro.monitor.monitor.MonitorEvent`
            objects, oldest first, capped at :attr:`max_events`.
        callback: optional ``callable(event)`` invoked on each update.
    """

    max_events = 256
    """History bound for :attr:`events`; older events are dropped."""

    def __init__(self, sharded: "ShardedWorkspace", mid: int, query: Query,
                 callback: Optional[Callable[[MonitorEvent], None]] = None):
        self._sws = sharded
        self.id = mid
        self.query = query
        self.callback = callback
        self.events: List[MonitorEvent] = []
        self.active = True
        self.result = sharded.execute(query)
        self.home = frozenset(self.result.stats.shard.by_shard)

    def _quick_distance(self, update: Update) -> float:
        """Euclidean distance from the update footprint to the query."""
        footprint = update.footprint()
        if isinstance(self.query, CoknnQuery):
            s = self.query.segment
            return footprint.mindist_segment(s.ax, s.ay, s.bx, s.by)
        x, y = self.query.point
        return footprint.mindist_segment(x, y, x, y)

    def _delta(self, old_result) -> ResultDelta:
        if isinstance(self.query, CoknnQuery):
            return ResultDelta(intervals=diff_intervals(
                old_result.knn_intervals(), self.result.knn_intervals()))
        return diff_neighbors(old_result.tuples(), self.result.tuples())

    def refresh(self, update: Update) -> MonitorEvent:
        """Maintain the standing result for one applied update."""
        action, delta = self._refresh(update)
        event = MonitorEvent(self, update, action, (), delta,
                             self._sws.version)
        self.events.append(event)
        if len(self.events) > self.max_events:
            del self.events[:len(self.events) - self.max_events]
        if self.callback is not None:
            self.callback(event)
        return event

    def _refresh(self, update: Update):
        if isinstance(update, RemoveSite) and not isinstance(
                self.query, CoknnQuery):
            # Point monitors: removal only matters for current answers.
            if not any(payload == update.payload
                       for payload, _d in self.result.tuples()):
                return NO_OP, EMPTY_DELTA
        elif self._quick_distance(update) > \
                influence_radius(self.query, self.result) + EPS:
            return NO_OP, EMPTY_DELTA
        old = self.result
        self.result = self._sws.execute(self.query)
        new_home = frozenset(self.result.stats.shard.by_shard)
        if new_home != self.home:
            self._sws.stats.rehomes += 1
            self.home = new_home
        return RERUN, self._delta(old)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardMonitor(id={self.id}, home={sorted(self.home)}, "
                f"query={self.query.describe()})")


class ShardMonitorRegistry:
    """Registered continuous queries of one sharded workspace.

    Obtained via :attr:`ShardedWorkspace.monitors`; mirrors the unsharded
    :class:`~repro.monitor.registry.MonitorRegistry` surface (``register``
    / ``unregister`` / iteration / :class:`MaintenanceStats`), with
    :class:`ShardMonitor` instances doing the per-query bookkeeping.
    """

    def __init__(self, sharded: "ShardedWorkspace"):
        self._sws = sharded
        self._monitors: Dict[int, ShardMonitor] = {}
        self._ids = itertools.count(1)
        self.stats = MaintenanceStats()

    def register(self, query: Query,
                 callback: Optional[Callable[[MonitorEvent], None]] = None
                 ) -> ShardMonitor:
        """Register ``query`` for continuous cross-shard maintenance."""
        if not isinstance(query, (CoknnQuery, OnnQuery, RangeQuery)):
            raise ValueError(
                f"no monitor for query kind "
                f"{getattr(query, 'kind', type(query).__name__)!r}: "
                "register a ConnQuery, CoknnQuery, OnnQuery or RangeQuery")
        monitor = ShardMonitor(self._sws, next(self._ids), query, callback)
        self._monitors[monitor.id] = monitor
        return monitor

    def unregister(self, monitor: ShardMonitor | int) -> bool:
        """Stop maintaining a monitor; True when it was registered."""
        mid = monitor.id if isinstance(monitor, ShardMonitor) else monitor
        found = self._monitors.pop(mid, None)
        if found is None:
            return False
        found.active = False
        return True

    def __len__(self) -> int:
        return len(self._monitors)

    def __iter__(self) -> Iterator[ShardMonitor]:
        return iter(self._monitors.values())

    def notify(self, update: Update) -> List[MonitorEvent]:
        """Fan one applied update out to every monitor (workspace hook)."""
        self.stats.updates += 1
        events = []
        for monitor in list(self._monitors.values()):
            if not monitor.active:
                continue
            events.append(monitor.refresh(update))
        for event in events:
            if event.action == NO_OP:
                self.stats.noops += 1
            else:
                self.stats.reruns += 1
            if not event.delta.empty:
                self.stats.deltas += 1
        return events
