"""Planner selection, ``explain()`` output, and executor equivalence.

The equivalence matrix the issue demands: ``execute(Query)`` must match the
legacy entry point for every query type, on both layouts, warm and cold.
"""

from __future__ import annotations

import math
import random

import pytest

import repro
from repro import (
    ClosestPairQuery,
    CoknnQuery,
    ConnQuery,
    EDistanceJoinQuery,
    OnnQuery,
    RangeQuery,
    RectObstacle,
    RStarTree,
    Segment,
    SemiJoinQuery,
    TrajectoryQuery,
    Workspace,
)


def scene_parts(seed: int = 11):
    rng = random.Random(seed)
    points = [(i, (rng.uniform(0, 100), rng.uniform(0, 100)))
              for i in range(50)]
    obstacles = [RectObstacle(x, y, x + 8, y + 5)
                 for x, y in ((rng.uniform(0, 90), rng.uniform(0, 90))
                              for _ in range(14))]
    return points, obstacles


@pytest.fixture(scope="module")
def parts():
    return scene_parts()


def make_ws(parts, layout="2T", **kwargs) -> Workspace:
    points, obstacles = parts
    return Workspace.from_points(points, obstacles, layout=layout, **kwargs)


def inner_tree(seed: int = 23, n: int = 7) -> RStarTree:
    rng = random.Random(seed)
    tree = RStarTree()
    for i in range(n):
        tree.insert_point(f"b{i}", rng.uniform(0, 100), rng.uniform(0, 100))
    return tree


SEG = Segment(5, 45, 95, 52)
WAYPOINTS = ((5, 5), (50, 60), (95, 20))


class TestPlanSelection:
    def test_layout_selection(self, parts):
        assert make_ws(parts).plan(ConnQuery(SEG)).algorithm == "coknn-2t"
        assert make_ws(parts, "1T").plan(
            CoknnQuery(SEG, knn=2)).algorithm == "coknn-1t"
        assert make_ws(parts).plan(OnnQuery((5, 5))).algorithm == \
            "onn-scan-2t"
        assert make_ws(parts, "1T").plan(
            RangeQuery((5, 5), 10)).algorithm == "range-scan-1t"
        assert make_ws(parts).plan(
            TrajectoryQuery(WAYPOINTS)).algorithm == "trajectory-coknn-2t"
        assert make_ws(parts).plan(
            SemiJoinQuery(inner_tree(), inner_tree())).algorithm == \
            "semi-join"

    def test_joins_need_2t(self, parts):
        ws = make_ws(parts, "1T")
        for q in (SemiJoinQuery(inner_tree(), inner_tree()),
                  EDistanceJoinQuery(inner_tree(), inner_tree(), 5.0),
                  ClosestPairQuery(inner_tree(), inner_tree())):
            with pytest.raises(ValueError, match="2T"):
                ws.plan(q)

    def test_unknown_query_rejected(self, parts):
        with pytest.raises(TypeError):
            make_ws(parts).plan("not a query")

    def test_explain_transcript(self, parts):
        ws = make_ws(parts)
        q = CoknnQuery(SEG, knn=3, label="patrol-7")
        text = ws.plan(q).explain()
        assert "QueryPlan: coknn-2t" in text
        assert "k=3" in text and "patrol-7" in text
        assert "footprint" in text and "cache" in text
        assert "cold" in text and "obstacle-tree page reads" in text
        assert str(ws.plan(q)) == text

    def test_warm_plan_estimates_zero_io(self, parts):
        ws = make_ws(parts)
        q = ConnQuery(SEG)
        cold = ws.plan(q)
        assert not cold.warm and cold.est_obstacle_io > 0
        ws.prefetch_all()
        warm = ws.plan(q)
        assert warm.warm and warm.est_obstacle_io == 0
        assert "warm" in warm.explain()

    def test_range_plan_uses_exact_radius(self, parts):
        plan = make_ws(parts).plan(RangeQuery((10, 10), 17.5))
        assert plan.est_radius == 17.5

    def test_execute_accepts_prepared_plan(self, parts):
        ws = make_ws(parts)
        q = ConnQuery(SEG)
        plan = ws.plan(q)
        res = ws.execute(plan)
        assert res.query is q
        assert res.tuples() == make_ws(parts).conn(SEG).tuples()


class TestNaiveFallback:
    """A workspace preloaded with ``prefetch_all()`` — the whole obstacle
    set in memory — answers exactly like a cold one."""

    def test_naive_results_match_engine(self, parts):
        ws = make_ws(parts)
        ws.prefetch_all()
        reference = make_ws(parts)
        for q in (ConnQuery(SEG), CoknnQuery(SEG, knn=2),
                  OnnQuery((20, 20), knn=2), RangeQuery((20, 20), 30.0),
                  TrajectoryQuery(WAYPOINTS)):
            a = ws.execute(q)
            b = reference.execute(q)
            assert a.tuples() == b.tuples(), q
            assert a.stats.noe == b.stats.noe, q
            # After the preload no query reads the obstacle tree again.
            assert a.stats.obstacle_reads == 0, q
        assert ws.plan(ConnQuery(SEG)).warm


class TestExecutorEquivalence:
    """execute(Query) == legacy entry point, 2T and 1T, warm and cold."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("layout", ["2T", "1T"])
    def test_conn_coknn_trajectory(self, parts, layout, warm):
        points, obstacles = parts
        ws = make_ws(parts, layout)
        if warm:
            ws.prefetch_all()
        if layout == "2T":
            legacy_conn = repro.conn(ws.data_tree, ws.obstacle_tree, SEG)
            legacy_k = repro.coknn(ws.data_tree, ws.obstacle_tree, SEG, k=3)
            legacy_traj = repro.trajectory_coknn(
                ws.data_tree, ws.obstacle_tree, WAYPOINTS, k=2)
        else:
            legacy_conn = repro.conn_single_tree(ws.unified_tree, SEG)
            legacy_k = repro.coknn_single_tree(ws.unified_tree, SEG, k=3)
            legacy_traj = None
        assert ws.execute(ConnQuery(SEG)).tuples() == legacy_conn.tuples()
        got_k = ws.execute(CoknnQuery(SEG, knn=3))
        assert got_k.tuples() == legacy_k.tuples()
        assert got_k.knn_at(SEG.length / 2) == legacy_k.knn_at(SEG.length / 2)
        if legacy_traj is not None:
            got_t = ws.execute(TrajectoryQuery(WAYPOINTS, knn=2))
            assert got_t.tuples() == legacy_traj.tuples()

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("layout", ["2T", "1T"])
    def test_onn_range(self, parts, layout, warm):
        ws = make_ws(parts, layout)
        ref = make_ws(parts, "2T")  # legacy free functions are 2T
        if warm:
            ws.prefetch_all()
        legacy_onn, _ = repro.onn(ref.data_tree, ref.obstacle_tree,
                                  20.0, 20.0, k=3)
        legacy_rng, _ = repro.obstructed_range(ref.data_tree,
                                               ref.obstacle_tree,
                                               20.0, 20.0, 30.0)
        got_onn = ws.execute(OnnQuery((20.0, 20.0), knn=3))
        got_rng = ws.execute(RangeQuery((20.0, 20.0), 30.0))
        assert [(p, pytest.approx(d)) for p, d in legacy_onn] == \
            [(p, pytest.approx(d)) for p, d in got_onn.tuples()]
        assert [(p, pytest.approx(d)) for p, d in legacy_rng] == \
            [(p, pytest.approx(d)) for p, d in got_rng.tuples()]

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_joins(self, parts, warm):
        ws = make_ws(parts)
        inner = inner_tree()
        if warm:
            ws.prefetch_all()
        legacy_semi, _ = repro.obstructed_semi_join(
            ws.data_tree, inner, ws.obstacle_tree)
        legacy_e, _ = repro.obstructed_e_distance_join(
            ws.data_tree, inner, ws.obstacle_tree, 20.0)
        legacy_cp, _ = repro.obstructed_closest_pair(
            ws.data_tree, inner, ws.obstacle_tree)
        assert ws.execute(SemiJoinQuery(ws.data_tree, inner)).tuples() == \
            legacy_semi
        assert ws.execute(
            EDistanceJoinQuery(ws.data_tree, inner, 20.0)).tuples() == \
            legacy_e
        got_cp = ws.execute(ClosestPairQuery(ws.data_tree, inner))
        assert got_cp.pair == legacy_cp

    def test_unreachable_is_consistent(self, parts):
        """A query sealed inside an obstacle ring agrees across paths."""
        points = [("out", (50.0, 90.0))]
        ring = [RectObstacle(10, 10, 40, 12), RectObstacle(10, 28, 40, 30),
                RectObstacle(10, 10, 12, 30), RectObstacle(38, 10, 40, 30)]
        ws = Workspace.from_points(points, ring)
        q = OnnQuery((25.0, 20.0))
        res = ws.execute(q)
        legacy, _ = repro.onn(ws.data_tree, ws.obstacle_tree, 25.0, 20.0)
        assert res.tuples() == legacy
        assert res.tuples() == []  # sealed off: no finite-distance neighbor
        assert math.isinf(
            ws.execute(ClosestPairQuery(ws.data_tree, ws.data_tree)).pair[2]
        ) is False  # a point is its own closest pair across identical trees
