"""Routing subsystem: pluggable obstructed-distance backends.

The obstructed-distance substrate — visibility graph plus Dijkstra — is
where OkNN engines spend their time, and the right substrate depends on
the workload: a cold one-shot wants a minimal throwaway graph, a warm
workspace answering correlated queries (batches, monitors, trajectories)
wants one persistent graph whose expensive visibility tests amortize
across every query.  This package makes the choice a first-class, planner
-selectable decision behind one protocol:

* :class:`ObstructedDistanceBackend` — the protocol
  (``attach_endpoints`` / ``shortest_distances`` / ``dijkstra_order`` /
  ``note_obstacle_insert`` / ``note_obstacle_remove`` / ``stats``);
* :class:`PerQueryVGBackend` — a fresh local visibility graph per query
  (the seed algorithm's behavior, bit-for-bit);
* :class:`SharedVGBackend` — the workspace-shared incremental visibility
  graph, patched by announced updates and version-guarded against
  unannounced index mutations;
* :class:`VGSession` — the engine-facing view of one query's graph;
* :class:`~repro.routing.dijkstra.ArrayTraversal` — the library's
  resumable Dijkstra over flat adjacency rows (the engines and the FULL
  baseline run on it);
* :class:`~repro.routing.stats.BackendStats` — the counter block that
  attributes query time to graph build vs Dijkstra vs visibility tests.
"""

from .stats import BackendStats
from .dijkstra import ArrayTraversal, dijkstra_all
from .backends import (
    PER_QUERY_VG,
    SHARED_VG,
    ObstructedDistanceBackend,
    ObstructedGraph,
    PerQueryVGBackend,
    SharedVGBackend,
    VGSession,
)

__all__ = [
    "ArrayTraversal",
    "BackendStats",
    "ObstructedDistanceBackend",
    "ObstructedGraph",
    "PER_QUERY_VG",
    "PerQueryVGBackend",
    "SharedVGBackend",
    "SHARED_VG",
    "VGSession",
    "dijkstra_all",
]
