"""Declarative query API: typed queries, a planner, a batch executor.

This package is the submission surface the rest of the library funnels
through.  Clients describe *what* they want as frozen dataclasses
(:class:`ConnQuery`, :class:`CoknnQuery`, :class:`OnnQuery`,
:class:`RangeQuery`, :class:`TrajectoryQuery`, :class:`SemiJoinQuery`,
:class:`EDistanceJoinQuery`, :class:`ClosestPairQuery`); the planner decides
*how* (algorithm, tree layout, backend, obstacle-I/O estimate, rendered
by :meth:`QueryPlan.explain`); and the executor runs the plan on the
engines and decides *in what order* (single ``execute``, or a
locality-scheduled ``execute_many`` whose reordering and capsule-driven
prefetches make cache hits compound across a batch).

The classic entry points — ``repro.conn(...)``, ``Workspace.coknn(...)``
and friends — are thin shims over this machinery, so every query in the
library flows through one plannable code path::

    from repro import CoknnQuery, Segment, Workspace

    ws = Workspace.from_points(points, obstacles)
    q = CoknnQuery(Segment(0, 50, 100, 50), knn=3, label="patrol")
    print(ws.plan(q).explain())            # algorithm, layout, est. I/O
    result = ws.execute(q)                 # same answer as ws.coknn(...)
    results = ws.execute_many(batch)       # locality-scheduled, same order
"""

from .executor import execute, execute_many
from .parallel import (
    ConcurrencyStats,
    execute_many_parallel,
    last_batch_stats,
)
from .planner import QueryPlan, build_plan
from .queries import (
    ClosestPairQuery,
    CoknnQuery,
    ConnQuery,
    EDistanceJoinQuery,
    OnnQuery,
    Query,
    RangeQuery,
    SemiJoinQuery,
    TrajectoryQuery,
    as_query_point,
    as_range_args,
)
from .results import (
    ClosestPairResult,
    JoinResult,
    NeighborsResult,
    QueryResult,
)

__all__ = [
    "ClosestPairQuery",
    "ClosestPairResult",
    "CoknnQuery",
    "ConcurrencyStats",
    "ConnQuery",
    "EDistanceJoinQuery",
    "JoinResult",
    "NeighborsResult",
    "OnnQuery",
    "Query",
    "QueryPlan",
    "QueryResult",
    "RangeQuery",
    "SemiJoinQuery",
    "TrajectoryQuery",
    "as_query_point",
    "as_range_args",
    "build_plan",
    "execute",
    "execute_many",
    "execute_many_parallel",
    "last_batch_stats",
]
