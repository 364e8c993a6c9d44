"""Standing queries over a sharded workspace: the plain monitor stack.

A :class:`ShardedWorkspace` serves monitors through the same
:class:`~repro.monitor.registry.MonitorRegistry` a single workspace uses.
``register`` builds a :class:`~repro.monitor.monitor.SegmentMonitor` or
:class:`~repro.monitor.monitor.PointMonitor` whose workspace is the
sharded one, so a sharded monitor runs the same affected-test, repairs
only the affected spans of a CONN/COkNN answer, fans repairs out over
``repair_workers`` and counts the same :class:`MaintenanceStats`.  Its
repair sub-queries and re-runs go through the border-expansion router,
so every standing answer stays byte-identical to its unsharded twin's
(asserted by the equivalence suite).

The one sharded addition is re-home accounting.  A monitor's ``home`` is
the set of shards its standing answer's influence ball touches
(:meth:`ShardedWorkspace._needed_shards`); an update that moves the ball
across a shard edge changes it and ticks ``ShardStats.rehomes``.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional

from ..monitor.monitor import NO_OP, Monitor, MonitorEvent
from ..monitor.registry import MonitorRegistry
from ..query.queries import Query
from ..service.updates import Update


class ShardMonitorRegistry(MonitorRegistry):
    """Registered continuous queries of one sharded workspace.

    Obtained via :attr:`ShardedWorkspace.monitors`.  Every monitor it
    returns carries a ``home`` attribute: the shard ids its standing
    answer's influence ball touches, brought up to date once an update's
    fan-out finished (a callback still sees the home from before it).
    """

    def _home(self, monitor: Monitor) -> FrozenSet[int]:
        return self._ws._needed_shards(monitor.query, monitor.result)

    def register(self, query: Query,
                 callback: Optional[Callable[[MonitorEvent], None]] = None
                 ) -> Monitor:
        """Register ``query`` (see :meth:`MonitorRegistry.register`) and
        record the shards its first answer's influence ball touches."""
        monitor = super().register(query, callback)
        monitor.home = self._home(monitor)
        return monitor

    def notify(self, update: Update) -> List[MonitorEvent]:
        """Fan one applied update out, then re-home the changed monitors."""
        events = super().notify(update)
        for event in events:
            if event.action == NO_OP:
                continue
            home = self._home(event.monitor)
            if home != event.monitor.home:
                event.monitor.home = home
                with self._ws._stats_lock:  # queries merge stats meanwhile
                    self._ws.stats.rehomes += 1
        return events
