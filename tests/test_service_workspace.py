"""Service layer: Workspace facade, QueryService, cross-query obstacle cache.

The contract under test is twofold:

* **Equivalence** — warm-cache results (owners, split points, distances)
  are identical to the cold free functions on randomized scenes, for every
  query kind, with and without prefetch;
* **Amortization** — a warm repeat of a query performs strictly fewer
  obstacle-tree logical reads than its cold first run (zero, once covered),
  and the cache counters in ``QueryStats`` / ``CacheStats`` report it.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import (
    ObstacleCache,
    QueryService,
    SemiJoinQuery,
    Workspace,
    coknn,
    coknn_single_tree,
    conn,
    obstructed_range,
    obstructed_semi_join,
    onn,
    trajectory_coknn,
)
from repro.core.conn_1t import build_unified_tree
from repro.geometry import Rect, Segment
from repro.obstacles import RectObstacle
from tests.conftest import (
    build_obstacle_tree,
    build_point_tree,
    random_query,
    random_scene,
    same_values,
)


def make_workspace(points, obstacles, **kwargs):
    return Workspace.from_trees(build_point_tree(points),
                                build_obstacle_tree(obstacles), **kwargs)


def assert_same_result(got, want, qseg):
    ts = np.linspace(0.0, qseg.length, 41)
    for lv_got, lv_want in zip(got.levels, want.levels):
        assert same_values(lv_got.values(ts), lv_want.values(ts))
    assert got.tuples() == want.tuples()
    assert got.split_points() == pytest.approx(want.split_points(), abs=1e-6)


class TestWarmEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 23, 91])
    @pytest.mark.parametrize("k", [1, 3])
    def test_warm_coknn_matches_cold(self, seed, k):
        rng = random.Random(seed)
        points, obstacles = random_scene(rng, n_points=12, n_obstacles=8)
        q = random_query(rng)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        cold = coknn(dt, ot, q, k=k)
        ws = Workspace.from_trees(dt, ot)
        first = ws.coknn(q, k=k)
        warm = ws.coknn(q, k=k)
        assert_same_result(first, cold, q)
        assert_same_result(warm, cold, q)
        assert warm.stats.noe == cold.stats.noe

    def test_overfetch_gap_obstacles_still_reach_graph(self):
        """Regression: a blocker the first round skips must reach the graph.

        A long wall makes the detour jump the retrieval radius far past the
        first round's capsule in one round; the small blocker just beyond
        round 1 must still be inserted by the later miss round — cold,
        warm and prefetched — or the path routes straight through it.
        """
        from repro.obstacles import SegmentObstacle

        wall = SegmentObstacle(5, -200, 5, 30)
        gap_blocker = SegmentObstacle(0, 24, 4.5, 16)
        dt = build_point_tree([("p", (10.0, 0.0))])
        ot = build_obstacle_tree([wall, gap_blocker])
        cold, _ = onn(dt, ot, 0.0, 0.0, k=1)
        ws = Workspace.from_trees(dt, ot)
        prefetched = Workspace.from_trees(dt, ot)
        prefetched.prefetch_all()
        for got, _ in (ws.onn(0.0, 0.0, k=1), ws.onn(0.0, 0.0, k=1),
                       prefetched.onn(0.0, 0.0, k=1)):
            assert got[0][0] == cold[0][0]
            assert got[0][1] == pytest.approx(cold[0][1], abs=1e-9)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_overfetch_and_prefetch_match_cold(self, seed):
        rng = random.Random(seed)
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=9)
        q = random_query(rng)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        cold = conn(dt, ot, q)
        repeated = Workspace.from_trees(dt, ot)
        assert_same_result(repeated.conn(q), cold, q)  # cold in the cache
        assert_same_result(repeated.conn(q), cold, q)  # warm repeat
        warmed = Workspace.from_trees(dt, ot)
        warmed.prefetch_all()
        assert_same_result(warmed.conn(q), cold, q)

    @pytest.mark.parametrize("seed", [5, 29])
    def test_warm_trajectory_matches_cold(self, seed):
        rng = random.Random(seed)
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        waypoints = [(5, 50), (45, 55), (60, 20), (95, 40)]
        cold = trajectory_coknn(dt, ot, waypoints, k=2)
        ws = Workspace.from_trees(dt, ot)
        ws.trajectory(waypoints, k=2)  # warm the cache along the polyline
        warm = ws.trajectory(waypoints, k=2)
        assert warm.tuples() == cold.tuples()
        for t in np.linspace(0.0, cold.length, 31):
            pairs_w = warm.knn_at(float(t))
            pairs_c = cold.knn_at(float(t))
            for (ow, dw), (oc, dc) in zip(pairs_w, pairs_c):
                assert (math.isinf(dw) and math.isinf(dc)) or \
                    dw == pytest.approx(dc, abs=1e-6)

    def test_warm_onn_and_range_match_cold(self, rng):
        points, obstacles = random_scene(rng, n_points=14, n_obstacles=7)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        cold_nbrs, _ = onn(dt, ot, 50.0, 50.0, k=4)
        cold_range, _ = obstructed_range(dt, ot, 50.0, 50.0, 45.0)
        ws = Workspace.from_trees(dt, ot)
        for _ in range(2):  # second round runs warm
            nbrs, _stats = ws.onn(50.0, 50.0, k=4)
            assert [p for p, _ in nbrs] == [p for p, _ in cold_nbrs]
            assert [d for _, d in nbrs] == pytest.approx(
                [d for _, d in cold_nbrs], abs=1e-6)
            matches, _stats = ws.range(50.0, 50.0, 45.0)
            assert [p for p, _ in matches] == [p for p, _ in cold_range]
            assert [d for _, d in matches] == pytest.approx(
                [d for _, d in cold_range], abs=1e-6)

    def test_semi_join_with_shared_cache_matches_cold(self, rng):
        points_a, obstacles = random_scene(rng, n_points=6, n_obstacles=5)
        points_b = [(100 + i, (rng.uniform(0, 100), rng.uniform(0, 100)))
                    for i in range(5)]
        ta = build_point_tree(points_a)
        tb = build_point_tree(points_b)
        ot = build_obstacle_tree(obstacles)
        cold_rows, _ = obstructed_semi_join(ta, tb, ot)
        ws = Workspace.from_trees(ta, ot)
        ws.prefetch_all()
        rows = ws.execute(SemiJoinQuery(ta, tb)).tuples()
        assert [(a, b) for a, b, _ in rows] == \
            [(a, b) for a, b, _ in cold_rows]
        assert [d for _, _, d in rows] == pytest.approx(
            [d for _, _, d in cold_rows], abs=1e-6)

    @pytest.mark.parametrize("seed", [11, 41])
    def test_single_tree_workspace_matches_free_function(self, seed):
        rng = random.Random(seed)
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
        tree = build_unified_tree(points, obstacles, page_size=256)
        q = random_query(rng)
        cold = coknn_single_tree(tree, q, k=2)
        ws = Workspace.from_unified(tree)
        warm = ws.coknn(q, k=2)
        assert_same_result(warm, cold, q)
        assert len(ws.cache) == warm.stats.noe  # obstacles harvested


class TestWarmCacheSavings:
    def test_second_query_reads_strictly_less(self, rng):
        points, obstacles = random_scene(rng, n_points=15, n_obstacles=10)
        ws = make_workspace(points, obstacles)
        q = random_query(rng)
        tracker = ws.obstacle_tree.tracker
        before = tracker.stats.snapshot()
        first = ws.conn(q)
        mid = tracker.stats.snapshot()
        second = ws.conn(q)
        after = tracker.stats.snapshot()
        cold_reads = mid.delta(before).logical_reads
        warm_reads = after.delta(mid).logical_reads
        assert cold_reads > 0
        assert warm_reads < cold_reads  # strictly fewer on the warm repeat
        assert warm_reads == 0          # fully covered: no tree access at all
        assert first.stats.obstacle_reads == cold_reads
        assert second.stats.obstacle_reads == 0
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hits > 0
        assert second.stats.cache_served == second.stats.noe

    def test_prefetch_makes_first_query_readless(self, rng):
        points, obstacles = random_scene(rng, n_points=12, n_obstacles=8)
        ws = make_workspace(points, obstacles)
        prefetched = ws.prefetch(Rect(0, 0, 100, 100), margin=1e6)
        assert prefetched == len(obstacles)
        stats = ws.cache_stats
        assert stats.prefetch_calls == 1
        assert stats.prefetched == prefetched
        res = ws.conn(random_query(rng))
        assert res.stats.obstacle_reads == 0
        assert res.stats.cache_misses == 0

    def test_batch_amortizes_across_queries(self, rng):
        points, obstacles = random_scene(rng, n_points=12, n_obstacles=8)
        ws = make_workspace(points, obstacles)
        q = random_query(rng)
        queries = [q] * 4
        results = ws.batch(queries, k=2)
        reads = [r.stats.obstacle_reads for r in results]
        assert reads[0] > 0 or all(r == 0 for r in reads)
        assert all(r == 0 for r in reads[1:])
        assert ws.cache_stats.hit_rate > 0.0

    def test_cache_stats_accumulate(self):
        points = [(0, (10.0, 10.0)), (1, (90.0, 10.0))]
        obstacles = [RectObstacle(40, 0, 60, 30)]
        ws = make_workspace(points, obstacles)
        q = Segment(0, 50, 100, 50)
        ws.conn(q)
        ws.conn(q)
        stats = ws.cache_stats
        assert stats.misses > 0 and stats.hits > 0
        assert stats.inserted == len(obstacles)
        assert stats.served > 0
        assert 0.0 < stats.hit_rate < 1.0


class TestObstacleCacheUnit:
    def test_coverage_capsule_containment(self):
        tree = build_obstacle_tree([RectObstacle(40, 40, 60, 60)])
        cache = ObstacleCache(tree)
        spine = Segment(0, 0, 100, 0)
        cache.record_coverage(spine, 50.0)
        assert cache.covered(Segment(10, 10, 90, 10), 30.0)
        assert not cache.covered(Segment(10, 10, 90, 10), 45.0)
        assert not cache.covered(Segment(0, 60, 100, 60), 30.0)
        assert cache.coverage_regions == 1

    def test_contained_capsules_are_absorbed(self):
        tree = build_obstacle_tree([])
        cache = ObstacleCache(tree)
        spine = Segment(0, 0, 100, 0)
        cache.record_coverage(spine, 10.0)
        cache.record_coverage(spine, 50.0)   # absorbs the smaller capsule
        cache.record_coverage(spine, 20.0)   # already covered: not recorded
        assert cache.coverage_regions == 1
        assert cache.covered(spine, 49.0)

    def test_infinite_capsule_covers_everything(self):
        obstacles = [RectObstacle(10 * i, 10, 10 * i + 5, 20)
                     for i in range(5)]
        cache = ObstacleCache(build_obstacle_tree(obstacles))
        assert cache.prefetch_all() == len(obstacles)
        assert cache.covered(Segment(-1e7, 0, 1e7, 1e5), math.inf)
        assert len(cache) == len(obstacles)


class TestWorkspaceFacade:
    def test_layout_validation(self, rng):
        points, obstacles = random_scene(rng)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        ut = build_unified_tree(points, obstacles)
        with pytest.raises(ValueError):
            Workspace(data_tree=dt)
        with pytest.raises(ValueError):
            Workspace(data_tree=dt, obstacle_tree=ot, unified_tree=ut)
        with pytest.raises(ValueError):
            Workspace.from_points(points, obstacles, layout="3T")
        assert Workspace.from_trees(dt, ot).layout == "2T"
        assert Workspace.from_unified(ut).layout == "1T"

    def test_degenerate_query_rejected(self, rng):
        points, obstacles = random_scene(rng)
        ws = make_workspace(points, obstacles)
        with pytest.raises(ValueError):
            ws.conn(Segment(5, 5, 5, 5))
        with pytest.raises(ValueError):
            ws.onn(5, 5, k=0)
        with pytest.raises(ValueError):
            ws.range(5, 5, -1.0)
        with pytest.raises(ValueError):
            ws.trajectory([(1, 1)])

    def test_joins_require_2t(self, rng):
        points, obstacles = random_scene(rng)
        ws = Workspace.from_unified(build_unified_tree(points, obstacles))
        dt = build_point_tree(points)
        with pytest.raises(ValueError):
            ws.execute(SemiJoinQuery(dt, dt))

    def test_service_is_importable_and_bound(self, rng):
        points, obstacles = random_scene(rng)
        ws = make_workspace(points, obstacles)
        assert isinstance(ws.service, QueryService)
        assert ws.service is ws.service  # stable instance

    def test_onn_on_single_tree_layout(self, rng):
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=5)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        cold_nbrs, _ = onn(dt, ot, 40.0, 60.0, k=3)
        ws = Workspace.from_unified(build_unified_tree(points, obstacles))
        nbrs, stats = ws.onn(40.0, 60.0, k=3)
        assert [p for p, _ in nbrs] == [p for p, _ in cold_nbrs]
        assert [d for _, d in nbrs] == pytest.approx(
            [d for _, d in cold_nbrs], abs=1e-6)
        assert stats.npe > 0
