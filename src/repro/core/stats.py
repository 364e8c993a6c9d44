"""Per-query statistics matching the paper's performance metrics.

Section 5.1 reports: I/O cost (pages accessed, 10 ms charged per fault),
CPU time, query cost (= I/O time + CPU time), visibility-graph size |SVG|,
number of points evaluated (NPE), and number of obstacles evaluated (NOE).
:class:`QueryStats` carries all of them plus internal counters used by the
ablation study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..index.pagestore import IO_MS_PER_FAULT, IOStats
from ..routing.stats import BackendStats, merge_fields

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..shard.stats import ShardStats


@dataclass
class QueryStats:
    """Counters accumulated while answering one CONN/COkNN/ONN query."""

    npe: int = 0
    """Data points evaluated (paper's NPE)."""

    noe: int = 0
    """Obstacles inserted into the local visibility graph (paper's NOE)."""

    svg_size: int = 0
    """Vertices in the local visibility graph at query end (paper's |SVG|)."""

    io: IOStats = field(default_factory=IOStats)
    """Page accesses charged to this query (delta over the query's trees)."""

    cpu_time_s: float = 0.0
    """Wall-clock compute time spent inside the query."""

    nodes_expanded: int = 0
    """Visibility-graph nodes processed by CPLC."""

    split_solves: int = 0
    """Quadratic split-point computations performed."""

    lemma1_prunes: int = 0
    """Envelope merges decided by Lemma 1 without solving."""

    lemma6_prunes: int = 0
    """Candidate intervals dropped by Lemma 6's triangle test."""

    lemma7_cutoffs: int = 0
    """CPLC traversals cut short by Lemma 7."""

    prefilter_skips: int = 0
    """CPLC nodes skipped by the Euclidean lower-bound prefilter."""

    global_bound_cutoffs: int = 0
    """CPLC traversals cut short (and nodes skipped) by the global RLMAX
    bound — the engine's incumbent k-envelope proving a candidate's
    remaining contributions irrelevant."""

    coverage_rounds: int = 0
    """Extra retrieval rounds forced by coverage validation."""

    visibility_tests: int = 0
    """Sight-line tests performed by the visibility graph."""

    cache_hits: int = 0
    """Retrieval rounds served entirely from the workspace obstacle cache."""

    cache_misses: int = 0
    """Retrieval rounds that had to scan the obstacle index."""

    cache_served: int = 0
    """Obstacles delivered to the visibility graph from cache (no index I/O)."""

    obstacle_reads: int = 0
    """Logical page reads charged to the obstacle index by this query.

    Filled by the query executor (:mod:`repro.query.executor`); for the
    single-tree layout this is the unified tree's reads, since data and
    obstacle pages are not separable there.
    """

    backend_name: str = ""
    """The obstructed-distance backend that served this query (e.g.
    ``"per-query-vg"`` or ``"shared-vg"``); empty when the query ran on a
    raw graph outside the backend machinery."""

    backend: BackendStats = field(default_factory=BackendStats)
    """This query's share of routing-backend work: graph builds vs
    Dijkstra vs visibility tests (see
    :class:`~repro.routing.stats.BackendStats`)."""

    shard: Optional["ShardStats"] = None
    """Cross-shard routing block (consulted shards, border expansions) when
    this query ran through a :class:`~repro.shard.ShardedWorkspace`; None
    for unsharded execution."""

    @property
    def io_time_ms(self) -> float:
        """Charged I/O time (10 ms per page fault, as in the paper)."""
        return self.io.page_faults * IO_MS_PER_FAULT

    @property
    def cpu_time_ms(self) -> float:
        return self.cpu_time_s * 1000.0

    @property
    def total_time_ms(self) -> float:
        """The paper's *query cost*: I/O time plus CPU time."""
        return self.io_time_ms + self.cpu_time_ms

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another query's counters into this one (for averages).

        Every counter sums, nested blocks (``io``, ``backend``, ``shard``)
        included; ``backend_name`` keeps the first non-empty label.
        """
        merge_fields(self, other)
