"""CPLC (control point lists), IOR coverage, and the Lemma 6 finding."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines import brute_distance_function
from repro.core import ConnConfig, QueryStats, compute_cpl, conn
from repro.core.ior import ObstacleRetriever, ior_fixpoint
from repro.geometry import Segment
from repro.obstacles import (
    LocalVisibilityGraph,
    RectObstacle,
    obstructed_distance,
)
from tests.conftest import (
    build_obstacle_tree,
    build_point_tree,
    random_query,
    random_scene,
    same_values,
    first_mismatch,
)


def cpl_for_point(point, obstacles, q, cfg=ConnConfig()):
    """Run IOR + CPLC for one point against a real obstacle tree."""
    stats = QueryStats()
    vg = LocalVisibilityGraph(q)
    retriever = ObstacleRetriever(build_obstacle_tree(obstacles), q, vg, stats)
    node = vg.add_point(*point)
    try:
        ior_fixpoint(vg, retriever, node, stats)
        while True:
            cpl = compute_cpl(vg, node, "p", cfg, stats)
            claimed = cpl.max_endpoint_value()
            if claimed <= retriever.radius + 1e-9:
                break
            if retriever.ensure(claimed) == 0:
                break
    finally:
        vg.remove_point(node)
    return cpl, stats


class TestCPLCorrectness:
    @pytest.mark.parametrize("seed", range(10))
    def test_cpl_equals_brute_distance_function(self, seed):
        rng = random.Random(5000 + seed)
        points, obstacles = random_scene(rng, n_points=1,
                                         n_obstacles=rng.randint(2, 12))
        q = random_query(rng)
        point = points[0][1]
        cpl, _stats = cpl_for_point(point, obstacles, q)
        cpl.assert_partition()
        ts = np.linspace(0, q.length, 181)
        want = brute_distance_function(point, obstacles, q, ts)
        got = cpl.values(ts)
        assert same_values(got, want), first_mismatch(got, want, ts)

    def test_point_visible_everywhere_is_its_own_cp(self):
        q = Segment(0, 0, 100, 0)
        cpl, _ = cpl_for_point((50, 30), [RectObstacle(10, 60, 20, 70)], q)
        assert len(cpl.pieces) == 1
        piece = cpl.pieces[0]
        assert piece.cp == (50, 30) and piece.base == 0.0

    def test_blocked_point_uses_obstacle_corner_cp(self):
        q = Segment(0, 0, 100, 0)
        wall = RectObstacle(30, 5, 70, 10)
        cpl, _ = cpl_for_point((50, 20), [wall], q)
        # Directly below the wall, the control point must be a wall corner.
        piece = cpl.piece_at(50.0)
        assert piece.cp in ((30.0, 5.0), (70.0, 5.0), (30.0, 10.0), (70.0, 10.0))
        assert piece.base > 0

    def test_cpl_base_is_obstructed_distance_to_cp(self):
        q = Segment(0, 0, 100, 0)
        obstacles = [RectObstacle(30, 5, 70, 10), RectObstacle(20, 12, 40, 18)]
        cpl, _ = cpl_for_point((50, 25), obstacles, q)
        for piece in cpl.pieces:
            if piece.cp is None:
                continue
            d = obstructed_distance((50, 25), piece.cp, obstacles)
            assert piece.base == pytest.approx(d, abs=1e-6)

    def test_lemma7_cutoff_fires_and_preserves_result(self):
        rng = random.Random(77)
        points, obstacles = random_scene(rng, n_points=1, n_obstacles=10)
        q = random_query(rng)
        p = points[0][1]
        fast, stats_fast = cpl_for_point(p, obstacles, q, ConnConfig())
        slow, _ = cpl_for_point(p, obstacles, q, ConnConfig(use_lemma7=False))
        ts = np.linspace(0, q.length, 101)
        assert same_values(fast.values(ts), slow.values(ts))

    def test_lemma5_reduces_work_not_results(self):
        rng = random.Random(78)
        points, obstacles = random_scene(rng, n_points=1, n_obstacles=10)
        q = random_query(rng)
        p = points[0][1]
        with_l5, s_with = cpl_for_point(p, obstacles, q, ConnConfig())
        without, s_without = cpl_for_point(p, obstacles, q,
                                           ConnConfig(use_lemma5=False))
        ts = np.linspace(0, q.length, 101)
        assert same_values(with_l5.values(ts), without.values(ts))
        assert s_with.split_solves <= s_without.split_solves


class TestIOR:
    def test_radius_covers_endpoint_paths(self):
        q = Segment(0, 0, 100, 0)
        obstacles = [RectObstacle(40, -5, 60, 5)]
        stats = QueryStats()
        vg = LocalVisibilityGraph(q)
        retriever = ObstacleRetriever(build_obstacle_tree(obstacles), q, vg,
                                      stats)
        node = vg.add_point(50, 20)
        ior_fixpoint(vg, retriever, node, stats)
        d_s = vg.shortest_distances(node, (vg.S,))[vg.S]
        d_e = vg.shortest_distances(node, (vg.E,))[vg.E]
        assert retriever.radius >= max(d_s, d_e) - 1e-9
        # Both endpoint distances are the true obstructed distances.
        assert d_s == pytest.approx(
            obstructed_distance((50, 20), (0, 0), obstacles), abs=1e-9)
        assert d_e == pytest.approx(
            obstructed_distance((50, 20), (100, 0), obstacles), abs=1e-9)

    def test_obstacles_out_of_range_not_retrieved(self):
        q = Segment(0, 0, 10, 0)
        near = RectObstacle(4, 1, 6, 2)
        far = RectObstacle(500, 500, 520, 520)
        stats = QueryStats()
        vg = LocalVisibilityGraph(q)
        retriever = ObstacleRetriever(build_obstacle_tree([near, far]), q, vg,
                                      stats)
        node = vg.add_point(5, 5)
        ior_fixpoint(vg, retriever, node, stats)
        assert stats.noe <= 1
        assert all(o.oid != far.oid for o in vg.obstacles)

    def test_retriever_radius_monotone(self):
        q = Segment(0, 0, 50, 0)
        obstacles = [RectObstacle(10 * i, 2, 10 * i + 5, 6) for i in range(1, 4)]
        stats = QueryStats()
        vg = LocalVisibilityGraph(q)
        retriever = ObstacleRetriever(build_obstacle_tree(obstacles), q, vg,
                                      stats)
        assert retriever.ensure(3.0) >= 0
        r1 = retriever.radius
        retriever.ensure(1.0)  # smaller request: no-op
        assert retriever.radius == r1
        retriever.ensure(100.0)
        assert retriever.radius == 100.0
        assert stats.noe == len(obstacles)


class TestLemma6Finding:
    """Reproduction finding: the paper's Lemma 6 can prune a true control point.

    The lemma's proof builds a competitor path through the blocking
    obstacle's silhouette vertex; with several obstacles shadowing the same
    visible-region hole that path can be blocked, so the pruning claim fails.
    The library therefore ships with Lemma 6 off by default and exposes
    ``ConnConfig.paper_faithful()`` for the published behavior.
    """

    def _scene(self):
        rng = random.Random(2016)
        points, obstacles = random_scene(rng, n_points=6, n_obstacles=14,
                                         segment_fraction=0.5)
        q = random_query(rng)
        return points, obstacles, q

    def test_default_config_matches_oracle_on_counterexample(self):
        from repro.baselines import naive_conn

        points, obstacles, q = self._scene()
        res = conn(build_point_tree(points), build_obstacle_tree(obstacles), q)
        ts = np.linspace(0, q.length, 121)
        _owners, want = naive_conn(points, obstacles, q, ts)
        assert same_values(res.envelope.values(ts), want)

    def test_paper_faithful_lemma6_overestimates_here(self):
        """Documents the counterexample: with Lemma 6 on, distances inflate."""
        from repro.baselines import naive_conn

        points, obstacles, q = self._scene()
        res = conn(build_point_tree(points), build_obstacle_tree(obstacles), q,
                   config=ConnConfig.paper_faithful())
        ts = np.linspace(0, q.length, 121)
        _owners, want = naive_conn(points, obstacles, q, ts)
        got = res.envelope.values(ts)
        with np.errstate(invalid="ignore"):
            finite = np.isfinite(got) & np.isfinite(want)
        # Lemma 6 can only remove candidate paths, so any error is upward.
        assert np.all(got[finite] >= want[finite] - 1e-6)
        assert np.any(got[finite] > want[finite] + 1e-4), (
            "scene no longer triggers the Lemma 6 counterexample")

    @pytest.mark.parametrize("seed", range(3))
    def test_lemma6_agrees_on_sparse_scenes(self, seed):
        """With few obstacles the lemma's assumptions hold and results agree."""
        rng = random.Random(6000 + seed)
        points, obstacles = random_scene(rng, n_points=8, n_obstacles=3)
        q = random_query(rng)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        a = conn(dt, ot, q)
        b = conn(dt, ot, q, config=ConnConfig.paper_faithful())
        ts = np.linspace(0, q.length, 101)
        assert same_values(a.envelope.values(ts), b.envelope.values(ts))
