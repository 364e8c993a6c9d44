"""Bounded first-k evaluations: aimed IOR rounds and the per-point tent.

Until a COkNN envelope holds k points there is no RLMAX to bound an
evaluation with.  Each IOR round is then one traversal aimed at the query
segment that ends once S and E are settled, and on a clear query segment
CPLC stops just above the point's tent ``B = (dS + dE + L) / 2``.  These
tests hold both to unbounded references: IOR to
:func:`tests.reference.reference_ior_fixpoint`, Algorithm 1 with plain
Dijkstra rounds (same distances, radius and NOE), whole queries to the
naive oracle, to ``ConnConfig.no_pruning()`` and to the engine with plain
Dijkstra IOR rounds and no tent (same tuples, NPE and NOE), ties at the
bound included.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine
from repro.baselines import naive_coknn
from repro.core import ConnConfig, ObstacleRetriever, QueryStats, coknn
from repro.core.cplc import compute_cpl
from repro.core.engine import evaluate_point, segment_clear, tent_bound
from repro.core.ior import ior_fixpoint
from repro.geometry import Segment
from repro.obstacles import (
    LocalVisibilityGraph,
    PolygonObstacle,
    RectObstacle,
    SegmentObstacle,
)
from tests.conftest import (
    build_obstacle_tree,
    build_point_tree,
    first_mismatch,
    random_query,
    random_scene,
    same_values,
)
from tests.reference import reference_ior_fixpoint

Q = Segment(0.0, 0.0, 100.0, 0.0)


def run(points, obstacles, q, k, config=ConnConfig()):
    return coknn(build_point_tree(points), build_obstacle_tree(obstacles),
                 q, k=k, config=config)


@pytest.fixture
def unbounded_first_k(monkeypatch):
    """The engine with plain Dijkstra IOR rounds (a first-k round runs
    until S and E are settled, a later one stops at RLMAX) and no tent
    for CPLC."""
    def run_unbounded(points, obstacles, q, k):
        with monkeypatch.context() as m:
            m.setattr(engine, "ior_fixpoint", reference_ior_fixpoint)
            m.setattr(engine, "segment_clear", lambda vg: False)
            return run(points, obstacles, q, k)

    return run_unbounded


def assert_same_answers(got, want):
    """Same owners on the same intervals, level by level."""
    assert [o for o, _ in got.tuples()] == [o for o, _ in want.tuples()]
    for (_, a), (_, b) in zip(got.tuples(), want.tuples()):
        assert a == pytest.approx(b, abs=1e-6)
    got_k, want_k = got.knn_intervals(), want.knn_intervals()
    assert [o for o, _ in got_k] == [o for o, _ in want_k]
    for (_, a), (_, b) in zip(got_k, want_k):
        assert a == pytest.approx(b, abs=1e-6)


def assert_matches_oracle(points, obstacles, q, k, res, samples=97):
    """Every level's distances, and every tuple's owner at its midpoint,
    equal the naive oracle's."""
    ts = np.linspace(0.0, q.length, samples)
    want = naive_coknn(points, obstacles, q, ts, k)
    for level in range(k):
        expect = [row[level][1] if len(row) > level else math.inf
                  for row in want]
        got = res.levels[level].values(ts)
        assert same_values(got, expect), first_mismatch(got, expect, ts)
    for owner, (lo, hi) in res.tuples():
        mid = 0.5 * (lo + hi)
        row = naive_coknn(points, obstacles, q, np.array([mid]), 1)[0]
        assert (row[0][0] if row else None) == owner


def fresh_ior(obstacles, q, point):
    """A local graph, a cache-free feed and the point's node."""
    stats = QueryStats()
    vg = LocalVisibilityGraph(q)
    retriever = ObstacleRetriever(build_obstacle_tree(obstacles), q, vg,
                                  stats)
    return vg, retriever, vg.add_point(*point), stats


def assert_ior_matches_reference(obstacles, q, point):
    """Aimed IOR ends where Algorithm 1 with plain Dijkstra rounds ends.

    Returns ``((dS, dE), stats, vg, rounds)``: ``rounds`` counts the
    rounds, one more than the retrievals that grew the graph.
    """
    vg, retriever, node, stats = fresh_ior(obstacles, q, point)
    grew = []
    ensure = retriever.ensure

    def counting(radius):
        added = ensure(radius)
        grew.append(added > 0)
        return added

    retriever.ensure = counting
    got = ior_fixpoint(vg, retriever, node)
    rvg, rretriever, rnode, rstats = fresh_ior(obstacles, q, point)
    want = reference_ior_fixpoint(rvg, rretriever, rnode)
    assert got == pytest.approx(want, abs=1e-9)
    assert retriever.radius == pytest.approx(rretriever.radius, abs=1e-9)
    assert stats.noe == rstats.noe
    return got, stats, vg, 1 + sum(grew)


# A clear query segment and a point collinear with it, 30 beyond S: its
# distance to q(t) is 30 + t, so CPLMAX = dS + L = B exactly.
TIE_POINT = (-30.0, 0.0)
TIE_POINTS = [("tie", TIE_POINT), ("a", (50.0, 30.0)), ("b", (80.0, -40.0)),
              ("c", (20.0, 55.0))]
TIE_OBSTACLES = [RectObstacle(40, 10, 60, 20),
                 SegmentObstacle(70, -10, 90, -30),
                 PolygonObstacle([(10, 30), (30, 30), (20, 45)])]


class TestTieAtBound:
    def test_tent_apex_is_the_tie_points_cplmax(self):
        vg, retriever, node, stats = fresh_ior(TIE_OBSTACLES, Q, TIE_POINT)
        d_s, d_e = ior_fixpoint(vg, retriever, node)
        assert (d_s, d_e) == pytest.approx((30.0, 130.0))
        unbounded = compute_cpl(vg, node, "tie", ConnConfig(), stats)
        apex = 0.5 * (d_s + d_e + Q.length)
        assert unbounded.max_endpoint_value() == pytest.approx(apex,
                                                               abs=1e-12)
        assert tent_bound(d_s, d_e, Q.length) > apex

    def test_segment_clear_once_obstacles_meeting_q_are_in(self):
        for extra, clear in (([], True), ([RectObstacle(40, -5, 60, 5)], False),
                             ([SegmentObstacle(10, -5, 12, 5)], False)):
            vg, retriever, _node, _stats = fresh_ior(TIE_OBSTACLES + extra,
                                                     Q, TIE_POINT)
            retriever.ensure(1e-6)
            assert segment_clear(vg) is clear

    def test_tent_bounded_cpl_equals_unbounded(self, monkeypatch):
        bounds = []
        original = engine.compute_cpl

        def spy(vg, node, payload, cfg, stats, bound=math.inf, *rest):
            bounds.append(bound)
            return original(vg, node, payload, cfg, stats, bound, *rest)

        def evaluate(clear):
            vg, retriever, node, stats = fresh_ior(TIE_OBSTACLES, Q,
                                                   TIE_POINT)
            vg.remove_point(node)
            with monkeypatch.context() as m:
                m.setattr(engine, "compute_cpl", spy)
                if not clear:
                    m.setattr(engine, "segment_clear", lambda vg: False)
                cpl = evaluate_point(vg, retriever, "tie", *TIE_POINT,
                                     ConnConfig(), stats)
            return cpl, retriever, stats

        tented, retriever, stats = evaluate(clear=True)
        tent = tent_bound(30.0, 130.0, Q.length)
        assert bounds and bounds == pytest.approx([tent] * len(bounds))
        bounds.clear()
        plain, retriever2, stats2 = evaluate(clear=False)
        assert bounds and all(math.isinf(b) for b in bounds)
        ts = np.linspace(0.0, Q.length, 201)
        assert same_values(tented.values(ts), plain.values(ts), atol=1e-12)
        assert [(p.cp, p.owner) for p in tented.pieces] == \
            [(p.cp, p.owner) for p in plain.pieces]
        assert retriever.radius == retriever2.radius
        assert stats.noe == stats2.noe

    # At k = 4 every level holds the tie point somewhere, its apex too.
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_answers_match_oracle_and_no_pruning(self, k, unbounded_first_k):
        res = run(TIE_POINTS, TIE_OBSTACLES, Q, k)
        assert_matches_oracle(TIE_POINTS, TIE_OBSTACLES, Q, k, res)
        assert_same_answers(res, run(TIE_POINTS, TIE_OBSTACLES, Q, k,
                                     ConnConfig.no_pruning()))
        before = unbounded_first_k(TIE_POINTS, TIE_OBSTACLES, Q, k)
        assert_same_answers(res, before)
        assert (res.stats.npe, res.stats.noe) == \
            (before.stats.npe, before.stats.noe)


coord = st.floats(min_value=-20.0, max_value=120.0, allow_nan=False)
side = st.floats(min_value=3.0, max_value=25.0, allow_nan=False)
gap = st.floats(min_value=2.0, max_value=60.0, allow_nan=False)
below = st.booleans()


@st.composite
def clear_obstacle(draw):
    """A rect, wall or triangle wholly above or below the line y = 0."""
    x, w, h = draw(coord), draw(side), draw(side)
    y = draw(gap)
    sign = -1.0 if draw(below) else 1.0
    kind = draw(st.sampled_from(["rect", "segment", "polygon"]))
    if kind == "rect":
        y0, y1 = sorted((sign * y, sign * (y + h)))
        return RectObstacle(x, y0, x + w, y1)
    if kind == "segment":
        return SegmentObstacle(x, sign * y, x + w, sign * (y + h))
    return PolygonObstacle([(x, sign * y), (x + w, sign * y),
                            (x + 0.5 * w, sign * (y + h))])


@st.composite
def clear_scene(draw):
    """Distinct sites outside every obstacle interior, one of them collinear
    with q beyond S or E, so its CPLMAX ties the tent apex exactly."""
    obstacles = draw(st.lists(clear_obstacle(), min_size=0, max_size=6))
    beyond = draw(st.floats(min_value=1.0, max_value=60.0))
    tie = (-beyond, 0.0) if draw(st.booleans()) else (100.0 + beyond, 0.0)
    points = [(-1, tie)]
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        x = draw(st.floats(min_value=-10.0, max_value=110.0))
        y = draw(st.floats(min_value=-70.0, max_value=70.0))
        if any(o.contains_interior(x, y) for o in obstacles
               if not isinstance(o, SegmentObstacle)) or \
                any(math.dist((x, y), xy) < 1.0 for _pid, xy in points):
            continue  # owners of coincident sites would tie everywhere
        points.append((i, (x, y)))
    return points, obstacles, draw(st.integers(min_value=1,
                                               max_value=len(points)))


class TestTieAtBoundProperty:
    @given(clear_scene())
    @settings(max_examples=30, deadline=None)
    def test_random_clear_scene_with_a_tie_point(self, scene):
        points, obstacles, k = scene
        res = run(points, obstacles, Q, k)
        assert_matches_oracle(points, obstacles, Q, k, res)
        assert_same_answers(res, run(points, obstacles, Q, k,
                                     ConnConfig.no_pruning()))


def mixed_scene(seed):
    """Rects and walls from ``random_scene`` plus convex triangles, and the
    sites outside every interior."""
    rng = random.Random(seed)
    points, obstacles = random_scene(rng, n_points=8, n_obstacles=8,
                                     segment_fraction=0.4)
    for _ in range(3):
        x, y = rng.uniform(0, 90), rng.uniform(0, 90)
        obstacles.append(PolygonObstacle([(x, y), (x + rng.uniform(4, 15), y),
                                          (x + 5, y + rng.uniform(4, 15))]))
    points = [(pid, xy) for pid, xy in points
              if not any(o.contains_interior(*xy) for o in obstacles
                         if not isinstance(o, SegmentObstacle))]
    return points, obstacles, random_query(rng)


class TestReachDoublingIOR:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_scenes_match_reference(self, seed):
        points, obstacles, q = mixed_scene(4100 + seed)
        for _pid, xy in points:
            assert_ior_matches_reference(obstacles, q, xy)

    def test_long_detour_one_traversal_per_round(self):
        # A wall along q: the paths round its far ends, more than 8 times
        # the point's farther direct sight line to S or E away, so the
        # point's row is cut in several rings of growing reach.
        wall = [SegmentObstacle(-400, 10, 500, 10)]
        (d_s, d_e), _stats, vg, rounds = assert_ior_matches_reference(
            wall, Q, (50, 20))
        assert min(d_s, d_e) > 8 * math.hypot(50, 20)
        assert vg.work.dijkstra_runs == rounds
        assert vg.work.dijkstra_replays == 0
        assert vg.work.bounded_rows > rounds

    def test_short_detour_one_traversal_per_round(self):
        wall = [SegmentObstacle(-40, 10, 140, 10)]
        (d_s, d_e), _stats, vg, rounds = assert_ior_matches_reference(
            wall, Q, (50, 20))
        assert max(d_s, d_e) > math.hypot(50, 20)
        assert vg.work.dijkstra_runs == rounds
        assert vg.work.dijkstra_replays == 0

    def test_walled_courtyard_terminates_and_drains(self):
        # Four thin rects overlapping at the corners: nothing inside sees
        # out, so S and E are unreachable and IOR must drain the tree.
        ring = [RectObstacle(40, 20, 60, 21), RectObstacle(40, 39, 60, 40),
                RectObstacle(40, 20, 41, 40), RectObstacle(59, 20, 60, 40)]
        far = [RectObstacle(200, 200, 210, 210)]
        (d_s, d_e), stats, _vg, _rounds = assert_ior_matches_reference(
            ring + far, Q, (47.0, 31.0))
        assert math.isinf(d_s) and math.isinf(d_e)
        assert stats.noe == len(ring + far)

    def test_walled_courtyard_query(self, unbounded_first_k):
        ring = [RectObstacle(40, 20, 60, 21), RectObstacle(40, 39, 60, 40),
                RectObstacle(40, 20, 41, 40), RectObstacle(59, 20, 60, 40)]
        points = [("walled", (47.0, 31.0)), ("open", (50.0, -15.0))]
        res = run(points, ring, Q, 2)
        assert_matches_oracle(points, ring, Q, 2, res)
        before = unbounded_first_k(points, ring, Q, 2)
        assert_same_answers(res, before)
        assert (res.stats.npe, res.stats.noe) == \
            (before.stats.npe, before.stats.noe)


class TestBlockedQuerySegment:
    """A query segment that meets an obstacle gets no tent; its first
    evaluations' IOR rounds (an endpoint inside an obstacle included) end
    where plain Dijkstra rounds end."""

    POINTS = [(0, (30.0, 25.0)), (1, (70.0, -20.0)), (2, (55.0, 40.0)),
              (3, (15.0, -35.0))]

    @pytest.mark.parametrize("q", [Segment(0, 0, 100, 0),
                                   Segment(50, 0, 100, 0)],
                             ids=["through", "from_inside"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_answers_and_work_equal_unbounded(self, q, k, unbounded_first_k):
        obstacles = [RectObstacle(40, -5, 60, 5),
                     SegmentObstacle(20, 10, 35, 18)]
        res = run(self.POINTS, obstacles, q, k)
        assert_matches_oracle(self.POINTS, obstacles, q, k, res)
        before = unbounded_first_k(self.POINTS, obstacles, q, k)
        assert_same_answers(res, before)
        assert (res.stats.npe, res.stats.noe) == \
            (before.stats.npe, before.stats.noe)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_scenes_equal_unbounded(self, seed, unbounded_first_k):
        points, obstacles, q = mixed_scene(4200 + seed)
        res = run(points, obstacles, q, 2)
        before = unbounded_first_k(points, obstacles, q, 2)
        assert_same_answers(res, before)
        assert (res.stats.npe, res.stats.noe) == \
            (before.stats.npe, before.stats.noe)
