"""repro — Continuous Obstructed Nearest Neighbor queries in spatial databases.

A complete, from-scratch reproduction of Gao & Zheng, *Continuous Obstructed
Nearest Neighbor Queries in Spatial Databases* (SIGMOD 2009): the CONN and
COkNN query processing algorithms, the substrates they stand on (paged
R*-tree, local visibility graphs, exact visible regions), a
:class:`~repro.service.Workspace` service layer that amortizes obstacle
retrieval across query workloads, a declarative query API
(:mod:`repro.query`) — typed query descriptions, a planner with
``explain()``, and a locality-aware batch executor — and the baselines,
dataset generators and benchmarks needed to regenerate the paper's
evaluation.

See the repository's ``README.md`` for installation, the full quickstart and
a map of the package layout.  The short version::

    from repro import CoknnQuery, Segment, Workspace

    ws = Workspace.from_points(points, obstacles)      # or .from_trees(...)
    result = ws.conn(Segment(0, 50, 100, 50))          # classic shorthand
    for owner, (lo, hi) in result.tuples():
        print(f"point {owner} is the obstructed NN on [{lo:.1f}, {hi:.1f}]")

    q = CoknnQuery(Segment(0, 50, 100, 50), knn=3)     # declarative form
    print(ws.plan(q).explain())                        # algorithm + est. I/O
    results = ws.execute_many([q, *more_queries])      # locality-scheduled
"""

from .baselines import (
    GlobalVisibilityGraph,
    cknn_euclidean,
    cnn_euclidean,
    full_vertex_count,
    naive_coknn,
    naive_conn,
    naive_onn,
)
from .core import (
    DEFAULT_CONFIG,
    ConnConfig,
    ConnResult,
    PiecewiseDistance,
    QueryStats,
    TrajectoryResult,
    build_unified_tree,
    coknn,
    coknn_single_tree,
    conn,
    conn_single_tree,
    obstructed_closest_pair,
    obstructed_distance_indexed,
    obstructed_e_distance_join,
    obstructed_range,
    obstructed_semi_join,
    onn,
    trajectory_coknn,
    trajectory_conn,
    vknn,
)
from .geometry import IntervalSet, Point, Rect, Segment
from .index import IncrementalNearest, LRUBuffer, PageTracker, RStarTree
from .query import (
    ClosestPairQuery,
    ClosestPairResult,
    CoknnQuery,
    ConcurrencyStats,
    ConnQuery,
    EDistanceJoinQuery,
    JoinResult,
    NeighborsResult,
    OnnQuery,
    Query,
    QueryPlan,
    QueryResult,
    RangeQuery,
    SemiJoinQuery,
    TrajectoryQuery,
)
from .monitor import (
    Monitor,
    MonitorEvent,
    MonitorRegistry,
    ResultDelta,
)
from .routing import (
    BackendStats,
    ObstructedDistanceBackend,
    PerQueryVGBackend,
    SharedVGBackend,
    VGSession,
)
from .service import (
    AddObstacle,
    AddSite,
    CachedObstacleView,
    CacheReadView,
    CacheStats,
    Capsule,
    ObstacleCache,
    QueryService,
    ReadWriteLock,
    RemoveObstacle,
    RemoveSite,
    SnapshotExpired,
    Workspace,
    WorkspaceSnapshot,
)
from .shard import (
    GridPartitioner,
    HilbertPartitioner,
    ShardedSnapshot,
    ShardedWorkspace,
    ShardStats,
)
from .obstacles import (
    LocalVisibilityGraph,
    Obstacle,
    ObstacleSet,
    PolygonObstacle,
    RectObstacle,
    SegmentObstacle,
    obstructed_distance,
    obstructed_path,
    visible_region,
)

__version__ = "3.0.0"

__all__ = [
    "AddObstacle",
    "AddSite",
    "BackendStats",
    "CacheReadView",
    "CacheStats",
    "Capsule",
    "CachedObstacleView",
    "ConcurrencyStats",
    "ClosestPairQuery",
    "ClosestPairResult",
    "CoknnQuery",
    "ConnConfig",
    "ConnQuery",
    "ConnResult",
    "DEFAULT_CONFIG",
    "EDistanceJoinQuery",
    "GlobalVisibilityGraph",
    "GridPartitioner",
    "HilbertPartitioner",
    "IncrementalNearest",
    "IntervalSet",
    "JoinResult",
    "LRUBuffer",
    "LocalVisibilityGraph",
    "Monitor",
    "MonitorEvent",
    "MonitorRegistry",
    "NeighborsResult",
    "Obstacle",
    "ObstacleCache",
    "ObstacleSet",
    "ObstructedDistanceBackend",
    "OnnQuery",
    "PageTracker",
    "PerQueryVGBackend",
    "PolygonObstacle",
    "PiecewiseDistance",
    "Point",
    "Query",
    "QueryPlan",
    "QueryResult",
    "QueryService",
    "QueryStats",
    "RStarTree",
    "ReadWriteLock",
    "RangeQuery",
    "Rect",
    "RectObstacle",
    "RemoveObstacle",
    "RemoveSite",
    "ResultDelta",
    "Segment",
    "SegmentObstacle",
    "SemiJoinQuery",
    "ShardStats",
    "ShardedSnapshot",
    "ShardedWorkspace",
    "SharedVGBackend",
    "SnapshotExpired",
    "TrajectoryQuery",
    "TrajectoryResult",
    "VGSession",
    "Workspace",
    "WorkspaceSnapshot",
    "build_unified_tree",
    "cknn_euclidean",
    "cnn_euclidean",
    "coknn",
    "coknn_single_tree",
    "conn",
    "conn_single_tree",
    "full_vertex_count",
    "naive_coknn",
    "naive_conn",
    "naive_onn",
    "obstructed_distance",
    "obstructed_closest_pair",
    "obstructed_distance_indexed",
    "obstructed_e_distance_join",
    "obstructed_path",
    "obstructed_range",
    "obstructed_semi_join",
    "onn",
    "trajectory_coknn",
    "trajectory_conn",
    "visible_region",
    "vknn",
    "__version__",
]
