"""Reference obstructed-distance computation (Definitions 3-4 of the paper).

``obstructed_distance`` builds the *full* visibility graph over the supplied
obstacles — the classic computational-geometry approach the paper reviews in
Section 2.4 — and runs Dijkstra.  It is deliberately simple: quadratic in the
number of vertices, no pruning.  The CONN machinery never calls it; it exists
as the public pairwise-distance API, as the correctness oracle for the local
visibility graph, and as the engine of the naive baselines.

Both halves stay independent of the engines: the adjacency comes from
per-source ``visibility_mask`` calls rather than the lazy visibility graph's
batched rows, and the shortest paths from the textbook ``heapq`` Dijkstra
:func:`~repro.routing.dijkstra.dijkstra_all` rather than the engines'
:class:`~repro.routing.dijkstra.ArrayTraversal`, so the oracle remains a
genuinely independent check.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..geometry.point import Point
from ..geometry.vectorized import visibility_mask
from ..routing.dijkstra import dijkstra_all
from .obstacle import Obstacle, ObstacleSet


def build_full_graph(points: Sequence[Tuple[float, float]],
                     obstacles: ObstacleSet) -> List[dict]:
    """Adjacency of the full visibility graph over ``points`` + all vertices.

    Node ids: ``0 .. len(points)-1`` are the supplied points, followed by all
    obstacle vertices in obstacle order.
    """
    coords: List[Tuple[float, float]] = [(float(x), float(y)) for x, y in points]
    for o in obstacles:
        for vx, vy in o.vertices():
            coords.append((vx, vy))
    n = len(coords)
    adj: List[dict] = [{} for _ in range(n)]
    if n <= 1:
        return adj
    arr = np.asarray(coords, dtype=np.float64)
    rects = obstacles.rects
    segs = obstacles.segs
    polys = [poly.as_array() for poly in obstacles.polys]
    for i in range(n - 1):
        targets = arr[i + 1:]
        mask = visibility_mask(coords[i][0], coords[i][1], targets, rects,
                               segs, polys)
        for off, visible in enumerate(mask):
            if visible:
                j = i + 1 + off
                w = math.hypot(coords[i][0] - coords[j][0],
                               coords[i][1] - coords[j][1])
                adj[i][j] = w
                adj[j][i] = w
    return adj


def _dijkstra(adj: List[dict], source: int) -> Tuple[List[float], List[int]]:
    """Single-source shortest paths over a materialized adjacency.

    A thin adapter over the textbook Dijkstra
    (:func:`repro.routing.dijkstra.dijkstra_all`); kept under its
    historical name for the baselines that import it.
    """
    return dijkstra_all(adj, source)


def obstructed_distance(a: Tuple[float, float], b: Tuple[float, float],
                        obstacles: Iterable[Obstacle]) -> float:
    """Length of the shortest obstacle-avoiding path from ``a`` to ``b``.

    Returns ``inf`` when every route is sealed off.
    """
    dist, _path = obstructed_path(a, b, obstacles)
    return dist


def obstructed_path(a: Tuple[float, float], b: Tuple[float, float],
                    obstacles: Iterable[Obstacle]) -> Tuple[float, List[Point]]:
    """Shortest obstacle-avoiding path: ``(length, polyline)``.

    The polyline runs from ``a`` to ``b`` and bends only at obstacle
    vertices (Section 2.4); it is empty when unreachable.
    """
    obs = obstacles if isinstance(obstacles, ObstacleSet) else ObstacleSet(obstacles)
    adj = build_full_graph([a, b], obs)
    dist, pred = _dijkstra(adj, 0)
    if math.isinf(dist[1]):
        return math.inf, []
    coords: List[Tuple[float, float]] = [(float(a[0]), float(a[1])),
                                         (float(b[0]), float(b[1]))]
    for o in obs:
        for vx, vy in o.vertices():
            coords.append((vx, vy))
    chain = [1]
    while chain[-1] != 0:
        chain.append(pred[chain[-1]])
    chain.reverse()
    return dist[1], [Point(*coords[i]) for i in chain]


def all_obstructed_distances(source: Tuple[float, float],
                             targets: Sequence[Tuple[float, float]],
                             obstacles: Iterable[Obstacle]) -> List[float]:
    """Obstructed distances from ``source`` to each of ``targets`` in one sweep."""
    obs = obstacles if isinstance(obstacles, ObstacleSet) else ObstacleSet(obstacles)
    pts = [source, *targets]
    adj = build_full_graph(pts, obs)
    dist, _pred = _dijkstra(adj, 0)
    return [dist[i] for i in range(1, 1 + len(targets))]
