"""Baselines: Euclidean CNN, naive oracles, global visibility graph."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.baselines import (
    GlobalVisibilityGraph,
    brute_distance_function,
    cknn_euclidean,
    cnn_euclidean,
    full_vertex_count,
    naive_conn,
)
from repro.geometry import Segment, dist
from repro.obstacles import (
    RectObstacle,
    SegmentObstacle,
    obstructed_distance,
)
from tests.conftest import build_point_tree, random_query, random_scene


class TestEuclideanCNN:
    def test_single_point(self):
        dt = build_point_tree([(0, (50.0, 10.0))])
        res = cnn_euclidean(dt, Segment(0, 0, 100, 0))
        assert res.tuples() == [(0, (0.0, 100.0))]

    def test_two_points_split_at_bisector(self):
        dt = build_point_tree([(0, (20.0, 10.0)), (1, (80.0, 10.0))])
        res = cnn_euclidean(dt, Segment(0, 0, 100, 0))
        assert res.split_points() == pytest.approx([50.0])
        assert res.owner_at(10.0) == 0
        assert res.owner_at(90.0) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_envelope(self, seed):
        rng = random.Random(1100 + seed)
        points, _ = random_scene(rng, n_points=rng.randint(3, 20),
                                 n_obstacles=0)
        q = random_query(rng)
        res = cnn_euclidean(build_point_tree(points), q)
        for t in np.linspace(0, q.length, 60):
            s = q.point_at(float(t))
            want = min(dist(xy, (s.x, s.y)) for _i, xy in points)
            assert res.distance(float(t)) == pytest.approx(want, abs=1e-6)

    def test_cknn_levels_sorted(self, rng):
        points, _ = random_scene(rng, n_points=12, n_obstacles=0)
        q = random_query(rng)
        res = cknn_euclidean(build_point_tree(points), q, k=3)
        for t in np.linspace(0, q.length, 20):
            ds = [d for _o, d in res.knn_at(float(t))]
            assert ds == sorted(ds)

    def test_rlmax_prunes_scan(self, rng):
        points, _ = random_scene(rng, n_points=60, n_obstacles=0)
        q = Segment(40, 40, 45, 45)
        res = cnn_euclidean(build_point_tree(points), q)
        assert res.stats.npe < len(points)

    def test_degenerate_query_rejected(self, rng):
        points, _ = random_scene(rng, n_obstacles=0)
        with pytest.raises(ValueError):
            cnn_euclidean(build_point_tree(points), Segment(3, 3, 3, 3))


class TestBruteDistanceFunction:
    def test_no_obstacles_is_euclidean(self):
        q = Segment(0, 0, 100, 0)
        ts = np.linspace(0, 100, 11)
        vals = brute_distance_function((50, 10), [], q, ts)
        for t, v in zip(ts, vals):
            assert v == pytest.approx(math.hypot(t - 50, 10), abs=1e-9)

    def test_matches_pairwise_obstructed_distance(self, rng):
        _points, obstacles = random_scene(rng, n_points=0, n_obstacles=7)
        q = random_query(rng)
        p = (15.0, 85.0)
        ts = np.linspace(0, q.length, 9)
        vals = brute_distance_function(p, obstacles, q, ts)
        for t, v in zip(ts, vals):
            s = q.point_at(float(t))
            want = obstructed_distance(p, (s.x, s.y), obstacles)
            assert (math.isinf(v) and math.isinf(want)) or \
                v == pytest.approx(want, abs=1e-6)

    def test_naive_conn_owner_is_argmin(self, rng):
        points, obstacles = random_scene(rng, n_points=5, n_obstacles=5)
        q = random_query(rng)
        ts = np.linspace(0, q.length, 7)
        owners, dists = naive_conn(points, obstacles, q, ts)
        per_point = {pid: brute_distance_function(xy, obstacles, q, ts)
                     for pid, xy in points}
        for i in range(len(ts)):
            if owners[i] is None:
                continue
            best = min(per_point[pid][i] for pid, _xy in points)
            assert dists[i] == pytest.approx(best, abs=1e-9)
            assert per_point[owners[i]][i] == pytest.approx(best, abs=1e-9)


class TestGlobalVisibilityGraph:
    def test_full_vertex_count(self):
        obs = [RectObstacle(0, 0, 1, 1), SegmentObstacle(2, 2, 3, 3)]
        assert full_vertex_count(obs) == 6

    def test_vertex_guard(self):
        obs = [RectObstacle(i, 0, i + 0.5, 1) for i in range(30)]
        with pytest.raises(ValueError):
            GlobalVisibilityGraph(obs, max_vertices=100)

    def test_distance_matches_reference(self, rng):
        _points, obstacles = random_scene(rng, n_points=0, n_obstacles=8)
        g = GlobalVisibilityGraph(obstacles)
        a, b = (5.0, 5.0), (95.0, 90.0)
        want = obstructed_distance(a, b, obstacles)
        got = g.distance(a, b)
        assert (math.isinf(got) and math.isinf(want)) or \
            got == pytest.approx(want, abs=1e-9)

    def test_graph_size_accessors(self, rng):
        _points, obstacles = random_scene(rng, n_points=0, n_obstacles=5)
        g = GlobalVisibilityGraph(obstacles)
        assert g.num_vertices == full_vertex_count(obstacles)
        assert g.num_edges() > 0

    def test_conn_agrees_with_naive(self, rng):
        points, obstacles = random_scene(rng, n_points=5, n_obstacles=5)
        q = random_query(rng)
        g = GlobalVisibilityGraph(obstacles)
        ts = np.linspace(0, q.length, 9)
        owners_g, dists_g = g.conn(points, q, ts)
        owners_n, dists_n = naive_conn(points, obstacles, q, ts)
        with np.errstate(invalid="ignore"):
            both_inf = np.isinf(dists_g) & np.isinf(dists_n)
        assert np.all(both_inf | (np.abs(np.where(both_inf, 0, dists_g) -
                                         np.where(both_inf, 0, dists_n)) < 1e-9))
