"""Counters attributing obstructed-distance work to its routing backend.

One :class:`BackendStats` block lives on every backend (cumulative across
the workspace's lifetime), another on every
:class:`~repro.core.stats.QueryStats` (that query's share), and one on
every visibility graph, which counts its work there until a session or a
maintenance step takes the block.  So warm/cold benchmarks can attribute
time to graph build vs Dijkstra vs visibility tests without instrumenting
the engine, and a new counter is one field here.

This module is deliberately import-free within the package: it is the
bottom of the routing dependency stack (``core.stats`` and
``obstacles.visgraph`` import it).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any


def merge_fields(into: Any, other: Any) -> None:
    """Accumulate every field of the stats block ``other`` into ``into``.

    Numbers sum, dicts sum per key and nested stats blocks recurse (an
    absent block on ``into`` is created first; an absent one on ``other``
    adds nothing).  Labels (strings) keep the first non-empty value.
    """
    for f in fields(into):
        mine = getattr(into, f.name)
        theirs = getattr(other, f.name)
        if theirs is None:
            continue
        if is_dataclass(theirs):
            if mine is None:
                mine = type(theirs)()
                setattr(into, f.name, mine)
            merge_fields(mine, theirs)
        elif isinstance(theirs, dict):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        elif isinstance(theirs, str):
            if not mine:
                setattr(into, f.name, theirs)
        else:
            setattr(into, f.name, mine + theirs)


@dataclass
class BackendStats:
    """Work performed by an obstructed-distance backend.

    The split mirrors where OkNN engines actually spend their time (Zhao
    et al. 2018): building the distance substrate (``graphs_built`` /
    ``build_time_s``), traversing it (``dijkstra_runs`` /
    ``nodes_settled``), and testing sight lines (``visibility_tests``).
    """

    sessions: int = 0
    """Query endpoint attachments served (one per executed query leg)."""

    graphs_built: int = 0
    """Full visibility-graph constructions (the cost a shared backend
    amortizes away: per-query backends pay one per session)."""

    graph_reuses: int = 0
    """Sessions served by an already-built workspace-shared graph."""

    graph_spawns: int = 0
    """Extra shared graphs built from the obstacle cache for *concurrent*
    sessions (every resident graph was busy when the session attached).
    Each spawn is also counted in ``graphs_built``."""

    graph_clones: int = 0
    """Shared graphs replicated from the primary skeleton — cached
    adjacency rows included — to pre-provision a parallel worker pool."""

    build_time_s: float = 0.0
    """Wall-clock time spent constructing/seeding visibility graphs."""

    dijkstra_runs: int = 0
    """Fresh single-source traversals started (no memoized tree to serve)."""

    dijkstra_replays: int = 0
    """Traversals answered by replaying/resuming a memoized
    shortest-path tree of an already-settled source."""

    nodes_settled: int = 0
    """Graph nodes settled by fresh traversal work (replays excluded)."""

    visibility_tests: int = 0
    """Sight-line tests performed while adjacency rows materialized."""

    batch_visibility_calls: int = 0
    """Visibility-kernel launches, each one ``blocked_batch`` call (one
    per row-cut pass, repair step, ring of a transient row, or fill of transient
    visibility cells)."""

    batched_edges_tested: int = 0
    """Candidate-edge x obstacle-primitive pairs a kernel evaluated;
    pairs skipped without evaluation are in ``kernel_pruned_edges``."""

    kernel_pruned_edges: int = 0
    """Candidate-edge x primitive pairs of a launch no kernel evaluated:
    skipped by the bbox prefilter (provably non-blocking: padded AABBs
    disjoint) or dropped by early termination (the edge was already
    proven blocked).  With ``batched_edges_tested`` it sums to
    edges x primitives over all launches."""

    rows_bulk_materialized: int = 0
    """Adjacency rows cut into the row cache, all by ``materialize_rows``:
    eager ``build_all`` seeding, frontier-prefetch waves and single rows
    read outside a traversal alike.  (The uncached rings an aimed
    traversal cuts are counted in ``bounded_rows`` instead.)"""

    bulk_pair_launches: int = 0
    """Batched kernel launches issued by the bulk materialization /
    repair paths, each covering the concatenated candidate pairs of many
    rows (also counted in ``batch_visibility_calls``)."""

    graph_repairs: int = 0
    """Announced obstacle removals absorbed in place by a resident graph
    (nodes deleted, row watermarks remapped; the rows re-open their
    sight lines when next read)."""

    repair_retested_pairs: int = 0
    """Absent (source, target) pairs re-tested as rows caught up with
    obstacle removals, counted by the read that ran them: pairs not
    visible whose sight segment crosses a removed obstacle's padded bbox
    (the only pairs removal can re-open)."""

    region_waves: int = 0
    """Visible-region misses that filled every alive node's missing or
    stale region in one pair grid per obstacle kind (the wave fit one
    kernel tile); the other misses fill just the requested node."""

    regions_computed: int = 0
    """Node shadow fills, by waves and single-node fills alike: the
    shadows of every obstacle for a missing visible region, of the
    obstacles past its watermark for a stale one."""

    bounded_rows: int = 0
    """Uncached rings cut from the rows of transient nodes (data points
    under evaluation) by traversals aimed at the query segment, each
    holding the row entries whose key lies in one ring instead of the
    full row."""

    patched: int = 0
    """Announced obstacle inserts patched into a shared graph in place."""

    invalidations: int = 0
    """Shared graphs dropped by the version guard (unannounced obstacle
    tree mutations observed at attach time)."""

    compactions: int = 0
    """In-place compactions of a shared graph's dead node slots (cached
    adjacency rows survive; only node ids are remapped)."""

    @property
    def replay_rate(self) -> float:
        """Fraction of traversals served from memoized shortest-path trees."""
        total = self.dijkstra_runs + self.dijkstra_replays
        return self.dijkstra_replays / total if total else 0.0

    def merge(self, other: "BackendStats") -> None:
        """Accumulate another block's counters into this one."""
        merge_fields(self, other)
