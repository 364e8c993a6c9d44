"""Convex polygon obstacles end to end (the paper's footnote-1 generality)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core import conn, coknn
from repro.baselines import naive_conn
from repro.geometry import Segment
from repro.geometry.vectorized import crosses_convex_polygon
from repro.obstacles import (
    ObstacleSet,
    PolygonObstacle,
    RectObstacle,
    obstructed_distance,
    obstructed_path,
    visible_region,
)
from tests.conftest import (
    build_obstacle_tree,
    build_point_tree,
    first_mismatch,
    random_query,
    random_scene,
    same_values,
)
from tests.reference import visible_region_scalar


def random_convex_polygon(rng, cx, cy, radius, n_vertices=None):
    """A random convex polygon: well-separated points on a circle."""
    n = n_vertices or rng.randint(3, 7)
    while True:
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(2 * math.pi - (angles[-1] - angles[0]))
        if min(gaps) > 0.25:  # no near-duplicate vertices
            break
    return PolygonObstacle([
        (cx + radius * math.cos(a), cy + radius * math.sin(a))
        for a in angles
    ])


class TestConstruction:
    def test_triangle(self):
        tri = PolygonObstacle([(0, 0), (4, 0), (2, 3)])
        assert len(tri.points) == 3
        assert tri.mbr().xhi == 4.0

    def test_clockwise_input_normalized(self):
        cw = PolygonObstacle([(0, 0), (2, 3), (4, 0)])
        ccw = PolygonObstacle([(0, 0), (4, 0), (2, 3)])
        assert set(cw.points) == set(ccw.points)
        # Both must classify interior points identically.
        assert cw.contains_interior(2, 1) and ccw.contains_interior(2, 1)

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            PolygonObstacle([(0, 0), (1, 1)])

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError):
            PolygonObstacle([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            PolygonObstacle([(0, 0), (1, 1), (2, 2)])

    def test_contains_interior(self):
        tri = PolygonObstacle([(0, 0), (4, 0), (2, 3)])
        assert tri.contains_interior(2, 1)
        assert not tri.contains_interior(2, 0)  # on edge
        assert not tri.contains_interior(9, 9)


class TestBlocking:
    def test_through_interior_blocks(self):
        tri = PolygonObstacle([(0, 0), (4, 0), (2, 3)])
        assert tri.blocks(-1, 1, 5, 1)

    def test_miss_does_not_block(self):
        tri = PolygonObstacle([(0, 0), (4, 0), (2, 3)])
        assert not tri.blocks(-1, 5, 5, 5)

    def test_edge_graze_does_not_block(self):
        tri = PolygonObstacle([(0, 0), (4, 0), (2, 3)])
        assert not tri.blocks(-2, 0, 6, 0)

    def test_vertex_touch_does_not_block(self):
        tri = PolygonObstacle([(0, 0), (4, 0), (2, 3)])
        assert not tri.blocks(2, 3, 2, 8)

    def test_chord_between_vertices_blocks(self):
        square = PolygonObstacle([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert square.blocks(0, 0, 4, 4)

    def test_matches_equivalent_rect(self):
        rng = random.Random(5)
        square = PolygonObstacle([(10, 10), (20, 10), (20, 18), (10, 18)])
        rect = RectObstacle(10, 10, 20, 18)
        for _ in range(200):
            a = (rng.uniform(0, 30), rng.uniform(0, 30))
            b = (rng.uniform(0, 30), rng.uniform(0, 30))
            assert square.blocks(*a, *b) == rect.blocks(*a, *b), (a, b)

    def test_vectorized_kernel_shapes(self):
        tri = PolygonObstacle([(0, 0), (4, 0), (2, 3)])
        bx = np.array([5.0, 5.0, 2.0])
        by = np.array([1.0, 5.0, 8.0])
        out = crosses_convex_polygon(-1, 1, bx, by, tri.as_array())
        assert out.tolist() == [True, False, False]


class TestShadowsAndVisibility:
    def test_shadow_blocks_middle(self):
        q = Segment(0, 0, 10, 0)
        tri = PolygonObstacle([(4, 1), (6, 1), (5, 2)])
        oset = ObstacleSet([tri])
        vr = visible_region(5, 3, q, oset)
        assert not vr.contains(5.0)
        assert vr.contains(0.5) and vr.contains(9.5)

    def test_scalar_vectorized_agree(self):
        rng = random.Random(6)
        for _ in range(8):
            poly = random_convex_polygon(rng, rng.uniform(20, 60),
                                         rng.uniform(20, 60), 10)
            oset = ObstacleSet([poly])
            q = Segment(0, 10, 80, 15)
            vx, vy = rng.uniform(0, 80), rng.uniform(0, 80)
            if poly.contains_interior(vx, vy):
                continue
            assert (visible_region(vx, vy, q, oset) ==
                    visible_region_scalar(vx, vy, q, oset))

    def test_visible_region_vs_sampling(self):
        rng = random.Random(7)
        polys = [random_convex_polygon(rng, rng.uniform(10, 70),
                                       rng.uniform(10, 70), 8)
                 for _ in range(4)]
        oset = ObstacleSet(polys)
        q = Segment(0, 40, 80, 42)
        vx, vy = 40.0, 75.0
        vr = visible_region(vx, vy, q, oset)
        bounds = vr.boundaries()
        for t in np.linspace(0, q.length, 160):
            if bounds and min(abs(t - b) for b in bounds) < q.length / 200:
                continue
            p = q.point_at(float(t))
            assert vr.contains(float(t)) == (not oset.blocked(vx, vy, p.x, p.y))


class TestDistancesAndQueries:
    def test_path_bends_at_polygon_vertices(self):
        hexa = PolygonObstacle([(30, 20), (50, 15), (65, 25), (60, 45),
                                (40, 50), (28, 35)])
        d, path = obstructed_path((10, 30), (80, 32), [hexa])
        assert d > math.dist((10, 30), (80, 32))
        vertex_set = {(p.x, p.y) for p in hexa.points}
        for bend in path[1:-1]:
            assert (bend.x, bend.y) in vertex_set

    def test_polygon_vs_equivalent_rect_distance(self):
        rng = random.Random(8)
        square = PolygonObstacle([(30, 30), (60, 30), (60, 50), (30, 50)])
        rect = RectObstacle(30, 30, 60, 50)
        for _ in range(10):
            a = (rng.uniform(0, 90), rng.uniform(0, 90))
            b = (rng.uniform(0, 90), rng.uniform(0, 90))
            if rect.rect.contains_point_open(*a) or \
                    rect.rect.contains_point_open(*b):
                continue
            d1 = obstructed_distance(a, b, [square])
            d2 = obstructed_distance(a, b, [rect])
            assert d1 == pytest.approx(d2, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_conn_with_polygons_matches_oracle(self, seed):
        rng = random.Random(9500 + seed)
        polys = [random_convex_polygon(rng, rng.uniform(10, 90),
                                       rng.uniform(10, 90),
                                       rng.uniform(4, 12))
                 for _ in range(5)]
        points = []
        while len(points) < 10:
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            if not any(p.contains_interior(x, y) for p in polys):
                points.append((len(points), (x, y)))
        q = random_query(rng)
        res = conn(build_point_tree(points), build_obstacle_tree(polys), q)
        ts = np.linspace(0, q.length, 101)
        _owners, want = naive_conn(points, polys, q, ts)
        got = res.envelope.values(ts)
        assert same_values(got, want), first_mismatch(got, want, ts)

    def test_mixed_obstacle_kinds_coknn(self, rng):
        points, obstacles = random_scene(rng, n_points=8, n_obstacles=4)
        obstacles.append(PolygonObstacle([(20, 20), (35, 18), (30, 34)]))
        q = random_query(rng)
        res = coknn(build_point_tree(points), build_obstacle_tree(obstacles),
                    q, k=2)
        ts = np.linspace(0, q.length, 41)
        from repro.baselines import naive_coknn

        want = naive_coknn(points, obstacles, q, ts, 2)
        for j, t in enumerate(ts):
            got = res.knn_at(float(t))
            for lvl in range(2):
                wd = want[j][lvl][1] if lvl < len(want[j]) else math.inf
                gd = got[lvl][1]
                assert (abs(gd - wd) < 1e-5) or \
                    (math.isinf(gd) and math.isinf(wd))
