"""Shadow intervals / visible regions: vectorized == scalar == dense sampling."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.geometry import IntervalSet, Segment
from repro.obstacles import (
    ObstacleSet,
    PolygonObstacle,
    RectObstacle,
    SegmentObstacle,
    shadow_set,
    visible_region,
)
from repro.obstacles.shadow import shadow_intervals_polys
from tests.reference import shadow_intervals_scalar, visible_region_scalar


def random_polygon(rng: random.Random, cx: float, cy: float,
                   radius: float) -> PolygonObstacle:
    """A convex polygon with 3 to 8 vertices on a circle."""
    n = rng.randint(3, 8)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return PolygonObstacle([
        (cx + radius * math.cos(phase + 2.0 * math.pi * i / n),
         cy + radius * math.sin(phase + 2.0 * math.pi * i / n))
        for i in range(n)])


def intervals(shadows):
    """A ``(rows, lo, hi)`` shadow triple as ``(lo, hi)`` tuples, in row order."""
    _rows, lo, hi = shadows
    return list(zip(lo.tolist(), hi.tolist()))


def assert_poly_shadows_exact(vx, vy, qseg, oset: ObstacleSet) -> None:
    """Batched polygon shadows equal the scalar reference tuple for tuple."""
    got = intervals(shadow_intervals_polys(vx, vy, qseg, oset.poly_slab))
    want = [iv for p in oset.polys
            for iv in shadow_intervals_scalar(vx, vy, qseg, p)]
    assert got == want


def sampled_visibility(vx, vy, qseg, oset: ObstacleSet, samples=400):
    """Ground truth by dense sampling of the blocked predicate."""
    ts = np.linspace(0.0, qseg.length, samples)
    out = []
    for t in ts:
        p = qseg.point_at(float(t))
        out.append(not oset.blocked(vx, vy, p.x, p.y))
    return ts, out


def check_against_sampling(vx, vy, qseg, oset, tol=None):
    """The computed VR must agree with sampling except near its boundaries."""
    vr = visible_region(vx, vy, qseg, oset)
    tol = tol if tol is not None else qseg.length / 150.0
    bounds = vr.boundaries()
    ts, visible = sampled_visibility(vx, vy, qseg, oset)
    for t, vis in zip(ts, visible):
        if bounds and min(abs(t - b) for b in bounds) < tol:
            continue  # sampling jitter right at a shadow boundary
        assert vr.contains(float(t)) == vis, (
            f"at t={t}: computed {vr.contains(float(t))}, sampled {vis}")


class TestSingleRect:
    def test_rect_between_viewpoint_and_segment(self):
        q = Segment(0, 0, 10, 0)
        oset = ObstacleSet([RectObstacle(4, 1, 6, 2)])
        vr = visible_region(5, 3, q, oset)
        # The shadow covers the middle; both ends stay visible.
        assert vr.contains(0.5) and vr.contains(9.5)
        assert not vr.contains(5.0)

    def test_rect_behind_viewpoint_no_shadow(self):
        q = Segment(0, 0, 10, 0)
        oset = ObstacleSet([RectObstacle(4, 5, 6, 6)])
        vr = visible_region(5, 3, q, oset)
        assert vr == IntervalSet.full(0.0, 10.0)

    def test_rect_not_between_no_shadow(self):
        q = Segment(0, 0, 10, 0)
        oset = ObstacleSet([RectObstacle(20, 1, 25, 2)])
        assert visible_region(5, 3, q, oset) == IntervalSet.full(0.0, 10.0)

    def test_viewpoint_at_rect_corner(self):
        # A node that IS an obstacle corner still sees along both edges.
        q = Segment(0, 0, 10, 0)
        oset = ObstacleSet([RectObstacle(4, 2, 6, 4)])
        vr = visible_region(4, 2, q, oset)  # bottom-left corner
        assert vr.contains(0.0) and vr.contains(4.0)
        # Points shadowed by its own rectangle (beyond the bottom-right
        # corner, looking through the body) stay visible along the bottom
        # edge, so the whole bottom line of sight is clear.
        assert vr.contains(6.0)

    def test_scalar_vectorized_agree(self):
        q = Segment(0, 0, 10, 0)
        o = RectObstacle(4, 1, 6, 2)
        oset = ObstacleSet([o])
        assert visible_region(5, 3, q, oset) == visible_region_scalar(5, 3, q, oset)

    def test_shadow_single_interval(self):
        q = Segment(0, 0, 10, 0)
        o = RectObstacle(4, 1, 6, 2)
        blocked = shadow_intervals_scalar(5, 3, q, o)
        assert len(blocked) == 1


class TestSingleSegmentObstacle:
    def test_wall_blocks_cone(self):
        q = Segment(0, 0, 10, 0)
        oset = ObstacleSet([SegmentObstacle(4, 1, 6, 1)])
        vr = visible_region(5, 3, q, oset)
        assert not vr.contains(5.0)
        assert vr.contains(0.2) and vr.contains(9.8)

    def test_wall_parallel_to_sightline_invisible_effect(self):
        q = Segment(0, 0, 10, 0)
        oset = ObstacleSet([SegmentObstacle(5, 1, 5, 4)])  # vertical wall
        vr = visible_region(5, 3, q, oset)
        # The wall is collinear with the viewpoint's vertical: only a sliver
        # of q directly below is affected (grazing along the wall is allowed,
        # so nothing is truly blocked).
        assert vr.contains(1.0) and vr.contains(9.0)

    def test_endpoint_grazing_allowed(self):
        q = Segment(0, 0, 10, 0)
        o = SegmentObstacle(4, 1, 6, 1)
        oset = ObstacleSet([o])
        vr = visible_region(4, 1, q, oset)  # viewpoint at wall endpoint
        assert vr == IntervalSet.full(0.0, 10.0)


class TestAgainstSampling:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_scene_rects(self, seed):
        rng = random.Random(seed)
        obs = []
        for _ in range(6):
            x, y = rng.uniform(0, 80), rng.uniform(0, 80)
            obs.append(RectObstacle(x, y, x + rng.uniform(2, 20),
                                    y + rng.uniform(2, 20)))
        oset = ObstacleSet(obs)
        q = Segment(5, 5, 90, 30)
        vx, vy = rng.uniform(0, 90), rng.uniform(0, 90)
        while any(isinstance(o, RectObstacle) and
                  o.rect.contains_point_open(vx, vy) for o in obs):
            vx, vy = rng.uniform(0, 90), rng.uniform(0, 90)
        check_against_sampling(vx, vy, q, oset)

    @pytest.mark.parametrize("seed", range(8, 14))
    def test_random_scene_mixed(self, seed):
        rng = random.Random(seed)
        obs = []
        for _ in range(7):
            x, y = rng.uniform(0, 80), rng.uniform(0, 80)
            if rng.random() < 0.5:
                obs.append(SegmentObstacle(x, y, x + rng.uniform(-15, 15),
                                           y + rng.uniform(-15, 15)))
            else:
                obs.append(RectObstacle(x, y, x + rng.uniform(2, 15),
                                        y + rng.uniform(2, 15)))
        oset = ObstacleSet(obs)
        q = Segment(0, 40, 95, 45)
        vx, vy = rng.uniform(0, 90), rng.uniform(0, 90)
        while any(isinstance(o, RectObstacle) and
                  o.rect.contains_point_open(vx, vy) for o in obs):
            vx, vy = rng.uniform(0, 90), rng.uniform(0, 90)
        check_against_sampling(vx, vy, q, oset)

    @pytest.mark.parametrize("seed", range(14, 20))
    def test_scalar_equals_vectorized_randomized(self, seed):
        rng = random.Random(seed)
        obs = []
        for _ in range(8):
            x, y = rng.uniform(0, 60), rng.uniform(0, 60)
            kind = rng.random()
            if kind < 0.33:
                obs.append(SegmentObstacle(x, y, x + rng.uniform(-10, 10),
                                           y + rng.uniform(-10, 10)))
            elif kind < 0.66:
                obs.append(RectObstacle(x, y, x + rng.uniform(2, 12),
                                        y + rng.uniform(2, 12)))
            else:
                obs.append(random_polygon(rng, x, y, rng.uniform(2, 8)))
        oset = ObstacleSet(obs)
        assert oset.polys
        q = Segment(2, 3, 70, 55)
        # Random viewpoints plus polygon vertices: a vertex viewpoint puts
        # candidate lines through its own polygon's edges.
        views = [(rng.uniform(0, 70), rng.uniform(0, 70)) for _ in range(10)]
        views += [(v.x, v.y) for p in oset.polys for v in p.points]
        for vx, vy in views:
            assert (visible_region(vx, vy, q, oset) ==
                    visible_region_scalar(vx, vy, q, oset))
            assert_poly_shadows_exact(vx, vy, q, oset)

    def test_poly_shadows_after_removal(self):
        rng = random.Random(41)
        polys = [random_polygon(rng, rng.uniform(5, 60), rng.uniform(5, 60),
                                rng.uniform(2, 8)) for _ in range(7)]
        oset = ObstacleSet([RectObstacle(30, 30, 34, 36)] + polys)
        q = Segment(0, 10, 70, 40)
        for victim in (polys[2], polys[0], polys[6]):
            assert oset.remove(victim)
            assert victim not in oset.polys
            for _ in range(6):
                vx, vy = rng.uniform(0, 70), rng.uniform(0, 70)
                assert_poly_shadows_exact(vx, vy, q, oset)
                # Watermark slices: shadows of poly_slab[n:] are those of
                # polys[n:], in order.
                for n in range(len(oset.polys) + 1):
                    got = intervals(shadow_intervals_polys(
                        vx, vy, q, oset.poly_slab[n:]))
                    want = [iv for p in oset.polys[n:]
                            for iv in shadow_intervals_scalar(vx, vy, q, p)]
                    assert got == want


class TestShadowSet:
    def test_union_of_shadows(self):
        q = Segment(0, 0, 10, 0)
        oset = ObstacleSet([RectObstacle(1, 1, 2, 2), RectObstacle(7, 1, 8, 2)])
        shadows = shadow_set(5, 4, q, oset.rects, oset.segs)
        vr = IntervalSet.full(0, 10).subtract(shadows)
        assert vr.contains(5.0)          # gap between the two shadows
        assert not shadows.is_empty()

    def test_empty_obstacles_no_shadow(self):
        q = Segment(0, 0, 10, 0)
        oset = ObstacleSet([])
        assert shadow_set(5, 4, q, oset.rects, oset.segs).is_empty()
