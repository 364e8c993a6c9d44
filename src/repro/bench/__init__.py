"""Benchmark harness: metrics, workloads, and per-figure experiment drivers."""

from .metrics import AggregateStats, Row, format_table
from .workloads import (
    clustered_query_workload,
    query_workload,
    random_query_segment,
)

__all__ = [
    "AggregateStats",
    "Row",
    "clustered_query_workload",
    "format_table",
    "query_workload",
    "random_query_segment",
]
