"""Core CONN/COkNN query processing (the paper's contribution)."""

from .config import DEFAULT_CONFIG, ConnConfig
from .conn import coknn, conn
from .conn_1t import (
    UnifiedSource,
    build_unified_tree,
    coknn_single_tree,
    conn_single_tree,
)
from .cplc import compute_cpl
from .distance_function import Piece, PiecewiseDistance
from .engine import ConnResult, KEnvelope, TreeDataSource, evaluate_point, run_query
from .ior import ObstacleRetriever, ior_fixpoint
from .joins import (
    obstructed_closest_pair,
    obstructed_e_distance_join,
    obstructed_semi_join,
)
from .onn import obstructed_distance_indexed, onn
from .range_query import obstructed_range
from .split import classify_case, crossing_params, dist_quadratic, perpendicular_distance
from .stats import QueryStats
from .trajectory import TrajectoryResult, trajectory_coknn, trajectory_conn
from .vknn import vknn

__all__ = [
    "ConnConfig",
    "ConnResult",
    "DEFAULT_CONFIG",
    "KEnvelope",
    "ObstacleRetriever",
    "Piece",
    "PiecewiseDistance",
    "QueryStats",
    "TreeDataSource",
    "UnifiedSource",
    "build_unified_tree",
    "classify_case",
    "coknn",
    "coknn_single_tree",
    "compute_cpl",
    "conn",
    "conn_single_tree",
    "crossing_params",
    "dist_quadratic",
    "evaluate_point",
    "ior_fixpoint",
    "obstructed_closest_pair",
    "obstructed_distance_indexed",
    "obstructed_e_distance_join",
    "obstructed_range",
    "obstructed_semi_join",
    "onn",
    "perpendicular_distance",
    "run_query",
    "TrajectoryResult",
    "trajectory_coknn",
    "trajectory_conn",
    "vknn",
]
