"""Sharded workspaces: spatial partitioning with exact cross-shard answers.

This package splits one logical dataset across several independent
:class:`~repro.service.workspace.Workspace` shards by location — a
:class:`GridPartitioner` (uniform rectangles) or :class:`HilbertPartitioner`
(weight-balanced contiguous ranges of the executor's locality curve) decides
ownership — and puts a router in front that keeps every answer
**byte-identical** to the unsharded workspace:

1. a query first runs against the shard(s) its footprint touches;
2. the answer's *influence ball* (the same bound the monitor subsystem's
   affected-tests use) is checked against the consulted shard regions;
3. while the ball leaks outside, the consulted set grows and the query
   re-runs on the member shards in place — their scans merged by key,
   their obstacle caches read together, one per-query visibility graph —
   the **border-expansion protocol** — until the answer provably cannot
   depend on any unconsulted shard.

Updates fan out through :meth:`ShardedWorkspace.apply` to exactly the
shards they touch (boundary-straddling obstacles are replicated to every
overlapping shard, and a border query's graph admits each once), standing
monitors run on the plain monitor stack through the router and are
re-homed when updates move their influence ball, and
:meth:`ShardedWorkspace.execute_many` schedules shard-local batches
across the thread/fork worker pool.  Per-query routing behavior is
reported as a :class:`ShardStats` block on ``result.stats.shard`` and in
``explain()``.
"""

from .monitors import ShardMonitorRegistry
from .partition import (
    GridPartitioner,
    HilbertPartitioner,
    Partitioner,
    bounds_of,
)
from .sharded import ShardedWorkspace
from .stats import ShardStats

__all__ = [
    "GridPartitioner",
    "HilbertPartitioner",
    "Partitioner",
    "ShardMonitorRegistry",
    "ShardStats",
    "ShardedWorkspace",
    "bounds_of",
]
