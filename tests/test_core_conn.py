"""End-to-end CONN correctness: oracle comparisons, pruning invariance, structure."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.baselines import cnn_euclidean, naive_conn
from repro.core import ConnConfig, conn
from repro.geometry import Segment
from repro.obstacles import RectObstacle, SegmentObstacle
from tests.conftest import (
    build_obstacle_tree,
    build_point_tree,
    first_mismatch,
    random_query,
    random_scene,
    same_values,
)


def assert_matches_oracle(points, obstacles, q, result, samples=121):
    """The engine's distance function must equal the brute-force oracle."""
    ts = np.linspace(0.0, q.length, samples)
    _owners, want = naive_conn(points, obstacles, q, ts)
    got = result.envelope.values(ts)
    assert same_values(got, want), first_mismatch(got, want, ts)


class TestSmallScenes:
    def test_no_obstacles_equals_euclidean_cnn(self, rng):
        points, _ = random_scene(rng, n_points=15, n_obstacles=0)
        q = random_query(rng)
        dt = build_point_tree(points)
        ot = build_obstacle_tree([])
        res = conn(dt, ot, q)
        euc = cnn_euclidean(build_point_tree(points), q)
        ts = np.linspace(0, q.length, 101)
        assert np.allclose(res.envelope.values(ts), euc.envelope.values(ts),
                           atol=1e-7)
        assert [o for o, _r in res.tuples()] == [o for o, _r in euc.tuples()]

    def test_single_point_owns_everything(self):
        dt = build_point_tree([(0, (50.0, 20.0))])
        ot = build_obstacle_tree([RectObstacle(40, 5, 60, 10)])
        q = Segment(0, 0, 100, 0)
        res = conn(dt, ot, q)
        tuples = res.tuples()
        assert len(tuples) == 1
        assert tuples[0][0] == 0
        assert tuples[0][1] == pytest.approx((0.0, 100.0))

    def test_obstacle_changes_winner(self):
        """A wall in front of the closer point hands the middle to the farther one."""
        points = [(0, (50.0, 10.0)), (1, (50.0, -30.0))]
        wall = SegmentObstacle(20, 5, 80, 5)
        q = Segment(0, 0, 100, 0)
        dt = build_point_tree(points)
        res_free = conn(dt, build_obstacle_tree([]), q)
        assert res_free.owner_at(50.0) == 0
        res_blocked = conn(build_point_tree(points),
                           build_obstacle_tree([wall]), q)
        assert res_blocked.owner_at(50.0) == 1
        # Away from the wall's shadow, the close point still wins.
        assert res_blocked.owner_at(1.0) == 0

    def test_result_is_partition(self, rng):
        points, obstacles = random_scene(rng)
        q = random_query(rng)
        res = conn(build_point_tree(points), build_obstacle_tree(obstacles), q)
        res.envelope.assert_partition()
        tuples = res.tuples()
        assert tuples[0][1][0] == pytest.approx(0.0)
        assert tuples[-1][1][1] == pytest.approx(q.length)
        for (a, b) in zip(tuples, tuples[1:]):
            assert a[1][1] == pytest.approx(b[1][0])

    def test_split_points_are_ties(self, rng):
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
        q = random_query(rng)
        res = conn(build_point_tree(points), build_obstacle_tree(obstacles), q)
        for sp in res.split_points():
            left = res.envelope.value(max(sp - 1e-4, 0.0))
            right = res.envelope.value(min(sp + 1e-4, q.length))
            if math.isfinite(left) and math.isfinite(right):
                assert abs(left - right) < 1e-2


class TestOracleBattery:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_scene_matches_oracle(self, seed):
        rng = random.Random(1000 + seed)
        points, obstacles = random_scene(
            rng, n_points=rng.randint(4, 16), n_obstacles=rng.randint(2, 10))
        q = random_query(rng)
        res = conn(build_point_tree(points), build_obstacle_tree(obstacles), q)
        assert_matches_oracle(points, obstacles, q, res)

    @pytest.mark.parametrize("seed", range(12, 18))
    def test_dense_obstacles_matches_oracle(self, seed):
        rng = random.Random(2000 + seed)
        points, obstacles = random_scene(rng, n_points=6, n_obstacles=14,
                                         segment_fraction=0.5)
        q = random_query(rng)
        res = conn(build_point_tree(points), build_obstacle_tree(obstacles), q)
        assert_matches_oracle(points, obstacles, q, res)

    def test_query_touching_obstacle_boundary(self):
        points = [(0, (20.0, 20.0)), (1, (80.0, 30.0))]
        # q runs exactly along the top edge of an obstacle.
        obstacles = [RectObstacle(30, -10, 70, 0)]
        q = Segment(0, 0, 100, 0)
        res = conn(build_point_tree(points), build_obstacle_tree(obstacles), q)
        assert_matches_oracle(points, obstacles, q, res)

    def test_point_behind_wall_segment(self):
        points = [(0, (50.0, 20.0))]
        obstacles = [SegmentObstacle(0, 10, 100, 10)]  # full-width wall
        q = Segment(0, 0, 100, 0)
        res = conn(build_point_tree(points), build_obstacle_tree(obstacles), q)
        # The wall spans the whole scene: the only routes go around its
        # endpoints at x=0 / x=100.
        assert_matches_oracle(points, obstacles, q, res)
        assert res.distance(50.0) > 60.0


class TestPruningInvariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_pruning_flags_equal_no_pruning(self, seed):
        rng = random.Random(3000 + seed)
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=8)
        q = random_query(rng)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        res_fast = conn(dt, ot, q)
        res_slow = conn(dt, ot, q, config=ConnConfig.no_pruning())
        ts = np.linspace(0, q.length, 151)
        a = res_fast.envelope.values(ts)
        b = res_slow.envelope.values(ts)
        assert same_values(a, b), first_mismatch(a, b, ts)

    @pytest.mark.parametrize("flag", ["use_lemma1", "use_lemma5", "use_lemma6",
                                      "use_lemma7", "use_rlmax"])
    def test_each_flag_individually(self, flag, rng):
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=8)
        q = random_query(rng)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        base = conn(dt, ot, q)
        variant = conn(dt, ot, q, config=ConnConfig(**{flag: False}))
        ts = np.linspace(0, q.length, 101)
        a = base.envelope.values(ts)
        b = variant.envelope.values(ts)
        assert same_values(a, b), first_mismatch(a, b, ts)

    def test_rlmax_pruning_reduces_npe(self, rng):
        points, obstacles = random_scene(rng, n_points=40, n_obstacles=5)
        q = Segment(10, 50, 30, 50)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        with_pruning = conn(dt, ot, q)
        without = conn(dt, ot, q, config=ConnConfig(use_rlmax=False))
        assert without.stats.npe == len(points)
        assert with_pruning.stats.npe <= without.stats.npe


class TestStatsAndEdgeCases:
    def test_stats_populated(self, rng):
        points, obstacles = random_scene(rng)
        q = random_query(rng)
        res = conn(build_point_tree(points), build_obstacle_tree(obstacles), q)
        s = res.stats
        assert s.npe >= 1
        assert s.svg_size >= 2
        assert s.io.logical_reads > 0
        assert s.cpu_time_s > 0
        assert s.total_time_ms >= s.io_time_ms

    def test_noe_bounded_by_obstacle_count(self, rng):
        points, obstacles = random_scene(rng)
        q = random_query(rng)
        res = conn(build_point_tree(points), build_obstacle_tree(obstacles), q)
        assert 0 <= res.stats.noe <= len(obstacles)

    def test_empty_data_set(self):
        dt = build_point_tree([])
        ot = build_obstacle_tree([RectObstacle(10, 10, 20, 20)])
        res = conn(dt, ot, Segment(0, 0, 50, 0))
        assert res.tuples() == [(None, (0.0, 50.0))]
        assert math.isinf(res.distance(25.0))

    def test_degenerate_query_rejected(self, rng):
        points, obstacles = random_scene(rng)
        with pytest.raises(ValueError):
            conn(build_point_tree(points), build_obstacle_tree(obstacles),
                 Segment(5, 5, 5, 5))

    def test_distance_at_owner_point_locations(self, rng):
        """At any t, dist to the reported owner <= dist to every other point."""
        points, obstacles = random_scene(rng, n_points=8, n_obstacles=5)
        q = random_query(rng)
        res = conn(build_point_tree(points), build_obstacle_tree(obstacles), q)
        from repro.obstacles import obstructed_distance

        for t in np.linspace(0, q.length, 7):
            owner = res.owner_at(float(t))
            if owner is None:
                continue
            s = q.point_at(float(t))
            d_owner = obstructed_distance(dict(points)[owner], (s.x, s.y),
                                          obstacles)
            assert d_owner == pytest.approx(res.distance(float(t)), abs=1e-5)

    def test_deterministic_across_runs(self, rng):
        points, obstacles = random_scene(rng)
        q = random_query(rng)
        r1 = conn(build_point_tree(points), build_obstacle_tree(obstacles), q)
        r2 = conn(build_point_tree(points), build_obstacle_tree(obstacles), q)
        assert [(o, r) for o, r in r1.tuples()] == \
            [(o, r) for o, r in r2.tuples()]
