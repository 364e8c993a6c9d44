"""Shared fixtures and scene builders for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.geometry import Rect, Segment
from repro.index import RStarTree
from repro.obstacles import (
    Obstacle,
    PolygonObstacle,
    RectObstacle,
    SegmentObstacle,
)


def same_values(a, b, atol: float = 1e-5) -> bool:
    """Elementwise closeness that treats matching infinities as equal."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        both_inf = np.isinf(a) & np.isinf(b)
        close = np.abs(np.where(both_inf, 0.0, a) -
                       np.where(both_inf, 0.0, b)) <= atol
    return bool(np.all(close | both_inf))


def first_mismatch(a, b, ts, atol: float = 1e-5):
    """Index/position/values of the first mismatch for failure messages."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        both_inf = np.isinf(a) & np.isinf(b)
        bad = (np.abs(np.where(both_inf, 0.0, a) -
                      np.where(both_inf, 0.0, b)) > atol) & ~both_inf
    if not bad.any():
        return None
    i = int(np.nonzero(bad)[0][0])
    return (i, float(ts[i]), float(a[i]), float(b[i]))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def random_scene(rng: random.Random, n_points: int = 12, n_obstacles: int = 8,
                 side: float = 100.0, segment_fraction: float = 0.3):
    """A random scene: points outside obstacle interiors, mixed obstacle kinds.

    Returns:
        ``(points, obstacles)`` with points as ``(id, (x, y))``.
    """
    obstacles: list[Obstacle] = []
    for _ in range(n_obstacles):
        x = rng.uniform(0, side)
        y = rng.uniform(0, side)
        if rng.random() < segment_fraction:
            obstacles.append(SegmentObstacle(
                x, y, x + rng.uniform(-side / 5, side / 5),
                y + rng.uniform(-side / 5, side / 5)))
        else:
            obstacles.append(RectObstacle(
                x, y, x + rng.uniform(side / 30, side / 5),
                y + rng.uniform(side / 30, side / 5)))

    def inside(px: float, py: float) -> bool:
        return any(isinstance(o, RectObstacle) and
                   o.rect.contains_point_open(px, py) for o in obstacles)

    points: list[tuple[int, tuple[float, float]]] = []
    while len(points) < n_points:
        x = rng.uniform(0, side)
        y = rng.uniform(0, side)
        if not inside(x, y):
            points.append((len(points), (x, y)))
    return points, obstacles


def random_query(rng: random.Random, side: float = 100.0,
                 min_length: float = 20.0) -> Segment:
    """A random query segment of reasonable length inside the scene."""
    while True:
        seg = Segment(rng.uniform(0, side), rng.uniform(0, side),
                      rng.uniform(0, side), rng.uniform(0, side))
        if seg.length >= min_length:
            return seg


def build_point_tree(points, page_size: int = 256) -> RStarTree:
    tree = RStarTree(page_size=page_size)
    for pid, (x, y) in points:
        tree.insert_point(pid, x, y)
    return tree


def build_obstacle_tree(obstacles, page_size: int = 256) -> RStarTree:
    tree = RStarTree(page_size=page_size)
    for o in obstacles:
        tree.insert(o, o.mbr())
    return tree


def building_lattice(side: int, width: float = 0.4, height: float = 0.3,
                     mixed: bool = False) -> list:
    """A ``side`` x ``side`` lattice of buildings over a 100 x 100 space.

    ``width`` and ``height`` are fractions of the lattice step.  All
    buildings are rects, or with ``mixed`` the kinds cycle wall segment,
    rect, triangle.  This is the city the serving-layer guards run on.
    """
    step = (100.0 - 6.0) / side
    out: list[Obstacle] = []
    for gx in range(side):
        for gy in range(side):
            x, y = 3 + step * gx, 3 + step * gy
            w, h = width * step, height * step
            kind = (gx + gy) % 3 if mixed else 1
            if kind == 0:
                out.append(SegmentObstacle(x, y, x + w, y + h))
            elif kind == 1:
                out.append(RectObstacle(x, y, x + w, y + h))
            else:
                out.append(PolygonObstacle(
                    [(x, y), (x + w, y), (x + 0.5 * w, y + h)]))
    return out


def lattice_sites(obstacles, n: int, seed: int) -> list:
    """``n`` uniform sites outside every building's interior.

    A site inside a building would be unreachable and force every query
    to drain the whole obstacle tree.
    """
    rng = random.Random(seed)
    out: list[tuple[int, tuple[float, float]]] = []
    while len(out) < n:
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        if not any(o.contains_interior(x, y) for o in obstacles
                   if not isinstance(o, SegmentObstacle)):
            out.append((len(out), (x, y)))
    return out
