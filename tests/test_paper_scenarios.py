"""Scenario tests mirroring the paper's running examples.

These reconstruct the *structure* of the paper's figures — Figure 1 (CNN vs
CONN on the gas-station example), Figure 2 (visibility-graph shortest path),
Figure 3 (control points), Figure 5 (obstacle search range) — and assert the
qualitative claims the paper makes about them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import cnn_euclidean
from repro.core import ConnConfig, QueryStats, compute_cpl, conn
from repro.core.ior import ObstacleRetriever, ior_fixpoint
from repro.geometry import Segment
from repro.obstacles import (
    LocalVisibilityGraph,
    RectObstacle,
    obstructed_distance,
    obstructed_path,
)
from tests.conftest import build_obstacle_tree, build_point_tree


class TestFigure1GasStations:
    """CNN vs CONN: obstacles change both split points and answer objects."""

    def setup_method(self):
        # Six "gas stations" along a "highway" q = [S, E], with obstacles
        # arranged so the Euclidean NN of S differs from its obstructed NN
        # (the paper's point d loses to a thanks to obstacle o3).
        self.q = Segment(0, 0, 100, 0)
        self.points = [
            ("a", (2.0, 12.0)),    # slightly farther than d, but unblocked
            ("b", (35.0, 12.0)),
            ("c", (90.0, 14.0)),
            ("d", (10.0, 6.0)),    # Euclidean NN of S, walled off by o3
            ("f", (55.0, 45.0)),
            ("g", (62.0, 13.0)),
        ]
        self.obstacles = [
            RectObstacle(4.0, 0.0, 6.0, 12.0),    # o3: wall between S and d
            RectObstacle(45.0, 4.0, 58.0, 9.0),   # o4-ish: mid highway
        ]

    def test_euclidean_nn_of_start_is_d(self):
        res = cnn_euclidean(build_point_tree(self.points), self.q)
        assert res.owner_at(0.0) == "d"

    def test_obstructed_nn_of_start_changes(self):
        res = conn(build_point_tree(self.points),
                   build_obstacle_tree(self.obstacles), self.q)
        assert res.owner_at(0.0) == "a"

    def test_split_points_differ_from_cnn(self):
        cnn_res = cnn_euclidean(build_point_tree(self.points), self.q)
        conn_res = conn(build_point_tree(self.points),
                        build_obstacle_tree(self.obstacles), self.q)
        assert cnn_res.split_points() != conn_res.split_points()

    def test_result_covers_whole_highway(self):
        res = conn(build_point_tree(self.points),
                   build_obstacle_tree(self.obstacles), self.q)
        tuples = res.tuples()
        assert tuples[0][1][0] == 0.0
        assert tuples[-1][1][1] == pytest.approx(self.q.length)


class TestFigure2ShortestPath:
    """Shortest obstructed path bends only at obstacle vertices."""

    def test_two_obstacle_detour(self):
        o1 = RectObstacle(20, 10, 40, 40)
        o2 = RectObstacle(50, 25, 75, 55)
        ps, pe = (5.0, 30.0), (95.0, 35.0)
        d, path = obstructed_path(ps, pe, [o1, o2])
        assert d > math.dist(ps, pe)
        vertices = {(vx, vy) for o in (o1, o2) for vx, vy in o.vertices()}
        for bend in path[1:-1]:
            assert (bend.x, bend.y) in vertices

    def test_path_is_locally_unblocked(self):
        o1 = RectObstacle(20, 10, 40, 40)
        o2 = RectObstacle(50, 25, 75, 55)
        _d, path = obstructed_path((5, 30), (95, 35), [o1, o2])
        for a, b in zip(path, path[1:]):
            for o in (o1, o2):
                assert not o.blocks(a.x, a.y, b.x, b.y)


class TestFigure3ControlPoints:
    """A point blocked from part of q routes through control points."""

    def test_control_point_decomposition(self):
        q = Segment(0, 0, 100, 0)
        # One obstacle between p and the right part of q.
        wall = RectObstacle(55, 8, 70, 16)
        p = (60.0, 25.0)
        stats = QueryStats()
        vg = LocalVisibilityGraph(q)
        retriever = ObstacleRetriever(build_obstacle_tree([wall]), q, vg, stats)
        node = vg.add_point(*p)
        ior_fixpoint(vg, retriever, node)
        cpl = compute_cpl(vg, node, "p", ConnConfig(), stats)
        cpl.assert_partition()
        # Multiple control points: p itself where visible, wall corners in
        # the shadow.
        cps = {piece.cp for piece in cpl.pieces}
        assert (60.0, 25.0) in cps
        assert len(cps) >= 2
        corner_cps = cps - {(60.0, 25.0)}
        wall_vertices = {(vx, vy) for vx, vy in wall.vertices()}
        assert corner_cps <= wall_vertices
        # Distance through a control point: ||p, cp|| + dist(cp, s).
        shadow_piece = next(pc for pc in cpl.pieces
                            if pc.cp in wall_vertices)
        mid = 0.5 * (shadow_piece.lo + shadow_piece.hi)
        s = q.point_at(mid)
        want = obstructed_distance(p, (s.x, s.y), [wall])
        assert cpl.value(mid) == pytest.approx(want, abs=1e-6)


class TestFigure5SearchRange:
    """IOR retrieves only obstacles that can affect the result (Theorem 2)."""

    def test_far_obstacles_never_fetched(self):
        q = Segment(0, 0, 100, 0)
        near = [RectObstacle(30, 5, 40, 12), RectObstacle(60, 6, 72, 14)]
        far = [RectObstacle(3000 + 50 * i, 3000, 3020 + 50 * i, 3040)
               for i in range(10)]
        points = [("p", (50.0, 30.0))]
        res = conn(build_point_tree(points),
                   build_obstacle_tree(near + far), q)
        assert res.stats.noe <= len(near)

    def test_obstacle_tree_traversed_once(self):
        """Total obstacle-tree I/O stays bounded by one traversal's worth."""
        q = Segment(0, 0, 100, 0)
        obstacles = [RectObstacle(10 * i, 5, 10 * i + 6, 11) for i in range(9)]
        points = [(i, (10.0 * i + 3, 20.0 + 3 * i)) for i in range(8)]
        ot = build_obstacle_tree(obstacles)
        res = conn(build_point_tree(points), ot, q)
        assert res.stats.noe <= len(obstacles)


class TestTheorem4Exactness:
    """'No false misses and no false hits' on a handcrafted scene."""

    def test_every_interval_owner_is_exact(self):
        q = Segment(0, 0, 100, 0)
        points = [("left", (20.0, 15.0)), ("right", (80.0, 15.0)),
                  ("far", (50.0, 60.0))]
        obstacles = [RectObstacle(30, 5, 70, 20)]  # blocks both side points
        res = conn(build_point_tree(points), build_obstacle_tree(obstacles), q)
        for t in np.linspace(0, 100, 41):
            s = q.point_at(float(t))
            dists = {pid: obstructed_distance(xy, (s.x, s.y), obstacles)
                     for pid, xy in points}
            best = min(dists.values())
            got_owner = res.owner_at(float(t))
            assert dists[got_owner] == pytest.approx(best, abs=1e-6)
