"""The locality-aware batch executor: ordering, equivalence, I/O savings.

The scene is a 10 x 10 building lattice with 250 reachable data points
and two interleaved fleets of jittered ONN queries.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    OnnQuery,
    RStarTree,
    Segment,
    SemiJoinQuery,
    Workspace,
)
from tests.conftest import building_lattice, lattice_sites


def make_ws(**kwargs) -> Workspace:
    """A deterministic scene; page_size=256 gives the obstacle tree depth."""
    obstacles = building_lattice(10)
    return Workspace.from_points(lattice_sites(obstacles, 250, seed=7),
                                 obstacles, page_size=256, **kwargs)


def clustered_batch(per_cluster=5, clusters=2, seed=8):
    """Fleets of jittered ONN queries, interleaved in submission order.

    The worst case for a fifo batch: consecutive queries come from
    different fleets, so they never share an obstacle footprint.
    """
    rng = random.Random(seed)
    fleets = []
    for c in range(clusters):
        ax, ay = rng.uniform(15, 85), rng.uniform(15, 85)
        fleets.append([OnnQuery((ax + 2.5 * i, ay + 0.75 * i), knn=2,
                                label=f"fleet{c}-{i}")
                       for i in range(per_cluster)])
    out = []
    for i in range(per_cluster):
        for fleet in fleets:
            out.append(fleet[i])
    return out


def obstacle_reads(ws: Workspace, run) -> int:
    snap = ws.obstacle_tree.tracker.stats.snapshot()
    run()
    return ws.obstacle_tree.tracker.stats.delta(snap).logical_reads


class TestOrderingAndEquivalence:
    def test_submission_order_and_schedule_equivalence(self):
        """Scheduling changes execution order, never results or their order."""
        queries = clustered_batch()
        ws_fifo, ws_sched = make_ws(), make_ws()
        fifo = ws_fifo.execute_many(queries, schedule="fifo")
        sched = ws_sched.execute_many(queries, schedule="locality")
        assert len(sched) == len(queries)
        for q, a, b in zip(queries, fifo, sched):
            assert a.query is q and b.query is q
            assert a.tuples() == b.tuples()

    def test_mixed_batch_with_non_spatial_queries(self):
        ws = make_ws()
        inner = RStarTree()
        for i in range(4):
            inner.insert_point(f"d{i}", 10.0 * i + 30, 50.0)
        queries = clustered_batch(per_cluster=2)
        queries.insert(1, SemiJoinQuery(ws.data_tree, inner))
        results = ws.execute_many(queries)
        for q, res in zip(queries, results):
            assert res.query is q
        ref = make_ws()
        assert results[1].tuples() == \
            ref.execute(SemiJoinQuery(ref.data_tree, inner)).tuples()

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            make_ws().execute_many(clustered_batch(2), schedule="random")

    def test_legacy_batch_is_fifo(self):
        ws = make_ws()
        segs = [Segment(30 + 3 * i, 44 + i, 42 + 3 * i, 45 + i)
                for i in range(3)]
        results = ws.batch(segs, k=2)
        ref = make_ws()
        assert [r.tuples() for r in results] == \
            [ref.coknn(s, k=2).tuples() for s in segs]
        assert ws.cache_stats.prefetch_calls == 0


class TestLocalityScheduling:
    def test_fewer_obstacle_reads_than_fifo(self):
        """On a clustered interleaved batch, scheduling must save tree I/O."""
        queries = clustered_batch()
        ws_fifo = make_ws()
        fifo_reads = obstacle_reads(
            ws_fifo, lambda: ws_fifo.execute_many(queries, schedule="fifo"))
        ws_sched = make_ws()
        sched_reads = obstacle_reads(
            ws_sched,
            lambda: ws_sched.execute_many(queries, schedule="locality"))
        assert sched_reads < fifo_reads, (sched_reads, fifo_reads)
        assert ws_sched.cache_stats.misses < ws_fifo.cache_stats.misses

    def test_tiny_batches_skip_scheduling(self):
        """<= 2 queries run fifo (nothing to reorder or prefetch)."""
        ws = make_ws()
        queries = clustered_batch(per_cluster=1)
        results = ws.execute_many(queries)
        assert [r.query for r in results] == queries
        assert ws.cache_stats.prefetch_calls == 0

    def test_stream_is_lazy_and_ordered(self):
        ws = make_ws()
        queries = clustered_batch(per_cluster=2)
        it = ws.stream(queries)
        assert ws.cache_stats.hits + ws.cache_stats.misses == 0  # nothing ran
        first = next(it)
        assert first.query is queries[0]
        rest = list(it)
        assert [r.query for r in rest] == queries[1:]
        ref = make_ws()
        assert first.tuples() == ref.execute(queries[0]).tuples()
