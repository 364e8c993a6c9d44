"""Shard observability counters (:class:`ShardStats`).

One :class:`ShardStats` block exists at two granularities:

* per query — the router attaches a block to ``result.stats.shard``
  describing what *that* query did: which shards it consulted, how many
  border expansions it took to prove its influence ball covered;
* per workspace — :attr:`ShardedWorkspace.stats` accumulates every routed
  query plus structural counters (replicated obstacles, monitor
  re-homings).

A border query's page reads and graph work are not here: they are charged
to the member shards' trackers and to the query's own
:class:`~repro.core.stats.QueryStats`, like any other query's.

The block depends only on the leaf :mod:`repro.routing.stats` so
:class:`~repro.core.stats.QueryStats` can carry one without importing the
shard subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..routing.stats import merge_fields


@dataclass
class ShardStats:
    """What sharded routing did — for one query or cumulatively."""

    queries: int = 0
    """Queries routed through the sharded workspace."""

    by_shard: Dict[int, int] = field(default_factory=dict)
    """Per-shard consult counts: ``shard id -> queries that read it``.
    A query that fanned out to three shards counts once in each."""

    border_expansions: int = 0
    """Expansion rounds past the first execution — times a query's
    influence ball crossed out of its current shard set and forced a
    wider re-execution."""

    fanout: int = 0
    """Total shards consulted, summed over queries (drives
    :attr:`fanout_ratio`)."""

    replicated_obstacles: int = 0
    """Extra obstacle copies currently stored because an obstacle's MBR
    straddles shard boundaries (an obstacle living in three shards
    contributes two).  Workspace-level only; zero on per-query blocks."""

    rehomes: int = 0
    """Monitor refreshes after which the shard set the standing answer's
    influence ball touches (the monitor's ``home``) changed: an update
    pushed the ball across a shard edge, after a span repair or a full
    re-run alike.  Workspace-level only."""

    route_time_s: float = 0.0
    """Seconds spent in each query's *first* execution on its home shard
    set — the cost sharding can never remove."""

    reexec_time_s: float = 0.0
    """Seconds spent re-executing queries on widened shard sets after a
    border expansion — the protocol's repeated-work overhead."""

    @property
    def fanout_ratio(self) -> float:
        """Mean shards consulted per query (1.0 = perfectly shard-local)."""
        return self.fanout / self.queries if self.queries else 0.0

    @property
    def expansion_rate(self) -> float:
        """Fraction of queries that needed at least one border expansion."""
        return self.border_expansions / self.queries if self.queries else 0.0

    def merge(self, other: "ShardStats") -> None:
        """Accumulate another block's counters into this one (``by_shard``
        sums per shard)."""
        merge_fields(self, other)

    def describe(self) -> str:
        """One-line human-readable summary."""
        if not self.queries:
            return "no sharded queries yet"
        busiest = ", ".join(
            f"s{sid}:{n}" for sid, n in sorted(self.by_shard.items()))
        return (f"{self.queries} queries, fan-out {self.fanout_ratio:.2f}, "
                f"{self.border_expansions} border expansions, "
                f"{self.replicated_obstacles} replicated obstacles "
                f"[{busiest}]")
