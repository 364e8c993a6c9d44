"""Extensions beyond the paper's core: trajectory CONN and obstructed range.

Trajectory CONN is the paper's first "future work" item (Section 6);
obstructed range is part of the Zhang et al. [31] query family the paper
builds on.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.baselines import naive_onn
from repro.core import (
    coknn,
    conn,
    obstructed_range,
    trajectory_coknn,
    trajectory_conn,
)
from repro.geometry import Segment
from repro.obstacles import RectObstacle, obstructed_distance
from tests.conftest import (
    build_obstacle_tree,
    build_point_tree,
    random_scene,
    same_values,
)


class TestTrajectoryConn:
    def test_single_leg_equals_conn(self, rng):
        points, obstacles = random_scene(rng)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        waypoints = [(10, 20), (90, 70)]
        traj = trajectory_conn(dt, ot, waypoints)
        seg = Segment(10, 20, 90, 70)
        ref = conn(dt, ot, seg)
        ts = np.linspace(0, seg.length, 51)
        got = np.array([traj.distance(float(t)) for t in ts])
        assert same_values(got, ref.envelope.values(ts))

    def test_multi_leg_lengths(self, rng):
        points, obstacles = random_scene(rng)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        waypoints = [(5, 5), (50, 5), (50, 60), (90, 90)]
        traj = trajectory_conn(dt, ot, waypoints)
        want = sum(math.dist(a, b) for a, b in zip(waypoints, waypoints[1:]))
        assert traj.length == pytest.approx(want)
        assert len(traj.legs) == 3

    def test_each_leg_matches_direct_query(self, rng):
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        waypoints = [(5, 50), (45, 55), (95, 40)]
        traj = trajectory_coknn(dt, ot, waypoints, k=2)
        offset = 0.0
        for (a, b) in zip(waypoints, waypoints[1:]):
            seg = Segment(*a, *b)
            ref = coknn(dt, ot, seg, k=2)
            for f in (0.1, 0.5, 0.9):
                local = f * seg.length
                got = traj.knn_at(offset + local)
                want = ref.knn_at(local)
                for (go, gd), (wo, wd) in zip(got, want):
                    assert (math.isinf(gd) and math.isinf(wd)) or \
                        gd == pytest.approx(wd, abs=1e-6)
            offset += seg.length

    def test_tuples_partition_trajectory(self, rng):
        points, obstacles = random_scene(rng)
        traj = trajectory_conn(build_point_tree(points),
                               build_obstacle_tree(obstacles),
                               [(5, 5), (50, 20), (95, 5)])
        tuples = traj.tuples()
        assert tuples[0][1][0] == pytest.approx(0.0)
        assert tuples[-1][1][1] == pytest.approx(traj.length)
        for a, b in zip(tuples, tuples[1:]):
            assert a[1][1] == pytest.approx(b[1][0], abs=1e-6)
            assert a[0] != b[0]  # merged across equal owners

    def test_owner_continuous_through_turn(self):
        """A single far point stays the owner across a waypoint."""
        points = [("only", (50.0, 50.0))]
        traj = trajectory_conn(build_point_tree(points),
                               build_obstacle_tree([]),
                               [(0, 0), (50, 0), (100, 0)])
        assert traj.tuples() == [("only", (0.0, pytest.approx(100.0)))]

    def test_degenerate_legs_skipped(self, rng):
        points, obstacles = random_scene(rng)
        traj = trajectory_conn(build_point_tree(points),
                               build_obstacle_tree(obstacles),
                               [(5, 5), (5, 5), (60, 40)])
        assert len(traj.legs) == 1

    def test_too_few_waypoints(self, rng):
        points, obstacles = random_scene(rng)
        with pytest.raises(ValueError):
            trajectory_conn(build_point_tree(points),
                            build_obstacle_tree(obstacles), [(1, 1)])

    def test_all_degenerate_rejected(self, rng):
        points, obstacles = random_scene(rng)
        with pytest.raises(ValueError):
            trajectory_conn(build_point_tree(points),
                            build_obstacle_tree(obstacles),
                            [(1, 1), (1, 1)])

    def test_stats_aggregate(self, rng):
        points, obstacles = random_scene(rng)
        traj = trajectory_conn(build_point_tree(points),
                               build_obstacle_tree(obstacles),
                               [(5, 5), (50, 20), (95, 5)])
        assert traj.stats.npe >= len(traj.legs)


class TestObstructedRange:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = random.Random(9100 + seed)
        points, obstacles = random_scene(rng, n_points=14, n_obstacles=7)
        qx, qy = rng.uniform(0, 100), rng.uniform(0, 100)
        radius = rng.uniform(10, 60)
        got, _stats = obstructed_range(build_point_tree(points),
                                       build_obstacle_tree(obstacles),
                                       qx, qy, radius)
        want = {}
        for pid, xy in points:
            d = obstructed_distance(xy, (qx, qy), obstacles)
            if d <= radius + 1e-9:
                want[pid] = d
        assert {p for p, _d in got} == set(want)
        for p, d in got:
            assert d == pytest.approx(want[p], abs=1e-6)

    def test_results_sorted(self, rng):
        points, obstacles = random_scene(rng, n_points=15)
        got, _ = obstructed_range(build_point_tree(points),
                                  build_obstacle_tree(obstacles),
                                  50, 50, 80.0)
        dists = [d for _p, d in got]
        assert dists == sorted(dists)

    def test_zero_radius(self, rng):
        points, obstacles = random_scene(rng)
        got, _ = obstructed_range(build_point_tree(points),
                                  build_obstacle_tree(obstacles),
                                  -5, -5, 0.0)
        assert got == []

    def test_negative_radius_rejected(self, rng):
        points, obstacles = random_scene(rng)
        with pytest.raises(ValueError):
            obstructed_range(build_point_tree(points),
                             build_obstacle_tree(obstacles), 0, 0, -1.0)

    def test_radius_excludes_detoured_point(self):
        """A point Euclidean-inside the radius falls out once walls detour it."""
        points = [("p", (10.0, 0.0))]
        wall = RectObstacle(4, -30, 6, 30)
        dt = build_point_tree(points)
        within_free, _ = obstructed_range(dt, build_obstacle_tree([]),
                                          0, 0, 12.0)
        assert [p for p, _d in within_free] == ["p"]
        within_blocked, _ = obstructed_range(dt, build_obstacle_tree([wall]),
                                             0, 0, 12.0)
        assert within_blocked == []

    def test_consistent_with_onn(self, rng):
        """Range with radius = k-th ONN distance returns at least k points."""
        points, obstacles = random_scene(rng, n_points=12)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        want = naive_onn(points, obstacles, (40.0, 60.0), k=3)
        if len(want) < 3:
            return
        radius = want[-1][1]
        got, _ = obstructed_range(dt, ot, 40.0, 60.0, radius + 1e-6)
        assert len(got) >= 3
