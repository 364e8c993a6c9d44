"""The bounded-traversal heuristic equals ``Segment.dist_point`` bit for bit.

``LocalVisibilityGraph._segment_heuristic`` computes every node's distance
to the bound query segment with numpy ufuncs plus a ``math.hypot`` tail.
CPLC's Euclidean prefilter calls the scalar ``qseg.dist_point`` on the
same nodes, and the two prune tests must agree exactly, so the values are
compared with ``==`` on random scenes in the paper's ``[0, 100]`` frame,
translated by 1e6 and scaled by 1e-3 and 1e4 — including nodes added after
the first computation and a degenerate (point) anchor.
"""

from __future__ import annotations

import random

import pytest

from repro.geometry import Segment
from repro.obstacles import LocalVisibilityGraph, RectObstacle, SegmentObstacle


def _scene(rng: random.Random, scale: float, shift: float):
    def pt():
        return (shift + scale * rng.uniform(0, 100),
                shift + scale * rng.uniform(0, 100))

    obstacles = []
    for _ in range(12):
        (x, y), w, h = pt(), scale * rng.uniform(1, 8), scale * rng.uniform(1, 8)
        if rng.random() < 0.5:
            obstacles.append(RectObstacle(x, y, x + w, y + h))
        else:
            obstacles.append(SegmentObstacle(x, y, x + w, y - h))
    return pt, obstacles


def _assert_exact(g: LocalVisibilityGraph, qseg: Segment) -> None:
    h = g._segment_heuristic()
    assert h.size == len(g._xy)
    for i, (x, y) in enumerate(g._xy):
        assert h[i] == qseg.dist_point(x, y), (i, x, y)


@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (1.0, 1e6),
                                          (1e-3, 0.0), (1e4, 0.0),
                                          (1e-3, 1e6)])
@pytest.mark.parametrize("seed", range(4))
def test_heuristic_equals_dist_point(seed, scale, shift):
    rng = random.Random(seed)
    pt, obstacles = _scene(rng, scale, shift)
    qseg = Segment(*pt(), *pt())
    g = LocalVisibilityGraph(qseg)
    g.add_obstacles(obstacles)
    for _ in range(20):
        g.add_point(*pt())
    # Points projecting before, onto and past the segment: both clamps
    # and the interior case run.
    abx, aby = qseg.bx - qseg.ax, qseg.by - qseg.ay
    for t in (-0.5, 0.5, 1.5):
        g.add_point(qseg.ax + t * abx - 0.1 * aby,
                    qseg.ay + t * aby + 0.1 * abx)
    _assert_exact(g, qseg)
    # Nodes that arrive later extend the cached values.
    g.add_obstacles(_scene(rng, scale, shift)[1][:3])
    for _ in range(5):
        g.add_point(*pt())
    _assert_exact(g, qseg)


def test_rebinding_recomputes_for_the_new_segment():
    rng = random.Random(9)
    pt, obstacles = _scene(rng, 1.0, 0.0)
    g = LocalVisibilityGraph(None, obstacles=obstacles)
    for _ in range(3):
        qseg = Segment(*pt(), *pt())
        g.bind(qseg)
        _assert_exact(g, qseg)
        g.unbind()


def test_point_anchor():
    g = LocalVisibilityGraph(Segment(40.0, 60.0, 40.0, 60.0),
                             obstacles=[RectObstacle(10, 10, 20, 30)])
    g.add_point(70.0, 5.0)
    _assert_exact(g, g.qseg)
