"""Brute-force references the visibility-graph and shadow suites check against.

Deliberately naive, and independent of the production graph's code paths:

* a **row** is one :func:`~repro.geometry.vectorized.visibility_mask` call
  from the node to every other alive node (permanent nodes and bound
  transients alike) over the graph's current obstacles, weighted with
  ``math.hypot`` — no batching across rows, no cached rows, no repair,
  no transient cells;
* **shortest paths** come from ``networkx.single_source_dijkstra_path_length``
  over those rows;
* a **sight line** is blocked when one scalar ``ObstacleSet.blocked`` call
  says so (:func:`blocked_pairs`): the batched test must agree on every
  line however it chunks, prefilters or terminates early.

Rows must match bit for bit (the production paths all weight edges with
``math.hypot`` too); distances must match within ``abs_tol=1e-9``, and every
predecessor ``p`` of a settled node ``v`` must satisfy ``dist[p] + w(p, v)
== dist[v]`` exactly.  A traversal aimed at the query segment must settle
exactly what :func:`reference_astar` settles (textbook ``heapq`` A* over
the reference rows, ties broken by node id): same ``(dist, node, pred)``
entries in the same order.

The visible-region suites check the numpy shadow functions of
:mod:`repro.obstacles.shadow` against :func:`shadow_intervals_scalar` and
:func:`visible_region_scalar`: the same candidate-line method written one
obstacle and one gap at a time with the scalar predicates.

The IOR suites check the engine's :func:`~repro.core.ior.ior_fixpoint`,
whose rounds settle toward the query segment, against
:func:`reference_ior_fixpoint`, Algorithm 1 with one plain Dijkstra per
round.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.geometry import IntervalSet, Segment
from repro.geometry.predicates import (
    EPS,
    segment_crosses_rect_interior,
    segments_properly_cross,
)
from repro.geometry.vectorized import crosses_convex_polygon, visibility_mask
from repro.obstacles import (
    Obstacle,
    ObstacleSet,
    PolygonObstacle,
    RectObstacle,
    SegmentObstacle,
)

SettledEntry = Tuple[float, int, Optional[int]]


def reference_row(graph, node: int) -> Dict[int, float]:
    """``{neighbor: weight}`` of ``node`` from a brute-force sight test."""
    x, y = graph._xy[node]
    others = [i for i in graph._alive_ids() if i != node]
    if not others:
        return {}
    targets = np.asarray([graph._xy[i] for i in others], dtype=np.float64)
    obs = graph.obstacles
    visible = visibility_mask(x, y, targets, obs.rects, obs.segs,
                              [p.as_array() for p in obs.polys])
    row = {}
    for i, ok in zip(others, visible.tolist()):
        if ok:
            tx, ty = graph._xy[i]
            row[i] = math.hypot(x - tx, y - ty)
    return row


def blocked_pairs(obstacles: ObstacleSet, sources: np.ndarray,
                  targets: np.ndarray) -> List[bool]:
    """Is sight line ``sources[i] -> targets[i]`` blocked?  One scalar
    :meth:`ObstacleSet.blocked` call per pair."""
    return [obstacles.blocked(sx, sy, tx, ty)
            for (sx, sy), (tx, ty) in zip(sources.tolist(), targets.tolist())]


def reference_graph(graph) -> nx.DiGraph:
    """The whole graph rebuilt from :func:`reference_row`."""
    g = nx.DiGraph()
    for v in graph._alive_ids():
        g.add_node(v)
        for u, w in reference_row(graph, v).items():
            g.add_edge(v, u, weight=w)
    return g


def assert_row_matches(graph, node: int,
                       row: Optional[Tuple[np.ndarray, np.ndarray]] = None
                       ) -> None:
    """``graph``'s row of ``node`` (read now unless given) equals the
    reference row: same ids, each once, with bit-equal weights."""
    idx, w = graph.row_arrays(node) if row is None else row
    ids = idx.tolist()
    assert len(set(ids)) == len(ids), f"duplicate entries in row {node}"
    assert dict(zip(ids, w.tolist())) == reference_row(graph, node), node


def assert_traversal_matches(graph, source: int,
                             settled: List[SettledEntry],
                             ref: Optional[nx.DiGraph] = None) -> None:
    """A complete, unpruned settled sequence from ``source`` is a correct
    Dijkstra run over the reference graph."""
    ref = reference_graph(graph) if ref is None else ref
    want = nx.single_source_dijkstra_path_length(ref, source)
    got = {v: d for d, v, _p in settled}
    assert len(got) == len(settled), "a node settled twice"
    assert set(got) == set(want)
    for v, d in got.items():
        assert math.isclose(d, want[v], rel_tol=0.0, abs_tol=1e-9), \
            (v, d, want[v])
    dists = [d for d, _v, _p in settled]
    assert dists == sorted(dists), "settled out of order"
    assert settled[0] == (0.0, source, None)
    for d, v, p in settled[1:]:
        assert got[p] + ref[p][v]["weight"] == d, (v, p)


def reference_astar(rows: Callable[[int], Dict[int, float]], source: int,
                    h: Callable[[int], float]) -> List[SettledEntry]:
    """Textbook ``heapq`` A*: ``(dist, node, pred)`` in settle order.

    The frontier holds ``(dist + h(node), node)`` pairs, so ties on the key
    break by node id; a node settles once, at its first pop, and each
    settled node relaxes its whole row (``rows(node)``, ``{neighbor:
    weight}``) with a strict ``<``.
    """
    dist = {source: 0.0}
    pred: Dict[int, int] = {}
    done = set()
    heap = [(0.0 + h(source), source)]
    out: List[SettledEntry] = []
    while heap:
        _key, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        d = dist[u]
        out.append((d, u, pred.get(u)))
        for v, w in rows(u).items():
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd + h(v), v))
    return out


def assert_aimed_traversal_matches(graph, source: int,
                                   settled: List[SettledEntry],
                                   ref: Optional[nx.DiGraph] = None) -> None:
    """A complete settled sequence of a traversal aimed at ``graph.qseg``
    is textbook A* over the reference rows, entry for entry, and its
    distances are networkx's."""
    ref = reference_graph(graph) if ref is None else ref
    qseg = graph.qseg

    def h(node: int) -> float:
        x, y = graph._xy[node]
        return qseg.dist_point(x, y)

    def rows(node: int) -> Dict[int, float]:
        return {v: a["weight"] for v, a in ref[node].items()}

    assert settled == reference_astar(rows, source, h)
    want = nx.single_source_dijkstra_path_length(ref, source)
    assert {v for _d, v, _p in settled} == set(want)
    for d, v, _p in settled:
        assert math.isclose(d, want[v], rel_tol=0.0, abs_tol=1e-9), \
            (v, d, want[v])


_WIDTH_EPS = 1e-9
"""Gaps this narrow are dropped and intervals this close merge (the
production shadow functions use the same tolerance)."""


def _line_param(qseg: Segment, vx: float, vy: float, cx: float, cy: float):
    """Arc-length parameter where line ``v -> c`` meets the line of ``q``."""
    ln = qseg.length
    ux = (qseg.bx - qseg.ax) / ln
    uy = (qseg.by - qseg.ay) / ln
    dx = cx - vx
    dy = cy - vy
    denom = ux * dy - uy * dx
    scale = max(abs(dx) + abs(dy), 1.0)
    if abs(denom) <= EPS * scale:
        return None
    num = (vx - qseg.ax) * dy - (vy - qseg.ay) * dx
    return num / denom


def _classify_blocked(qseg: Segment, vx: float, vy: float,
                      candidates: List[float], blocked_at) -> List[Tuple[float, float]]:
    """Merge elementary gaps between ``candidates`` whose midpoint is blocked."""
    ln = qseg.length
    ts = sorted({min(max(t, 0.0), ln) for t in candidates} | {0.0, ln})
    out: List[Tuple[float, float]] = []
    for lo, hi in zip(ts, ts[1:]):
        if hi - lo <= _WIDTH_EPS:
            continue
        mid = qseg.point_at((lo + hi) * 0.5)
        if blocked_at(mid.x, mid.y):
            if out and abs(out[-1][1] - lo) <= _WIDTH_EPS:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
    return out


def shadow_intervals_scalar(vx: float, vy: float, qseg: Segment,
                            obstacle: Obstacle) -> List[Tuple[float, float]]:
    """Blocked parameter intervals of one obstacle, one gap at a time."""
    candidates: List[float] = []
    if isinstance(obstacle, RectObstacle):
        r = obstacle.rect
        for cx, cy in r.corners():
            t = _line_param(qseg, vx, vy, cx, cy)
            if t is not None:
                candidates.append(t)
        ln = qseg.length
        ux = (qseg.bx - qseg.ax) / ln
        uy = (qseg.by - qseg.ay) / ln
        if abs(ux) > EPS:
            candidates.append((r.xlo - qseg.ax) / ux)
            candidates.append((r.xhi - qseg.ax) / ux)
        if abs(uy) > EPS:
            candidates.append((r.ylo - qseg.ay) / uy)
            candidates.append((r.yhi - qseg.ay) / uy)

        def blocked_at(mx: float, my: float) -> bool:
            return segment_crosses_rect_interior(vx, vy, mx, my,
                                                 r.xlo, r.ylo, r.xhi, r.yhi)
    elif isinstance(obstacle, SegmentObstacle):
        s = obstacle.seg
        for cx, cy in ((s.ax, s.ay), (s.bx, s.by)):
            t = _line_param(qseg, vx, vy, cx, cy)
            if t is not None:
                candidates.append(t)
        t = qseg.line_intersection_param(s.ax, s.ay, s.bx, s.by)
        if t is not None:
            candidates.append(t)

        def blocked_at(mx: float, my: float) -> bool:
            return segments_properly_cross(vx, vy, mx, my, s.ax, s.ay, s.bx, s.by)
    elif isinstance(obstacle, PolygonObstacle):
        arr = obstacle.as_array()
        n = arr.shape[0]
        for i in range(n):
            t = _line_param(qseg, vx, vy, arr[i, 0], arr[i, 1])
            if t is not None:
                candidates.append(t)
            j = (i + 1) % n
            t = qseg.line_intersection_param(arr[i, 0], arr[i, 1],
                                             arr[j, 0], arr[j, 1])
            if t is not None:
                candidates.append(t)

        def blocked_at(mx: float, my: float) -> bool:
            return bool(crosses_convex_polygon(vx, vy, mx, my, arr))
    else:
        raise TypeError(f"unsupported obstacle type {type(obstacle).__name__}")
    return _classify_blocked(qseg, vx, vy, candidates, blocked_at)


def visible_region_scalar(vx: float, vy: float, qseg: Segment,
                          obstacles: ObstacleSet) -> IntervalSet:
    """Visible region: all of ``q`` minus the per-obstacle shadows."""
    blocked: List[Tuple[float, float]] = []
    for o in obstacles:
        blocked.extend(shadow_intervals_scalar(vx, vy, qseg, o))
    return IntervalSet.full(0.0, qseg.length).subtract(IntervalSet(blocked))


def reference_ior_fixpoint(vg, retriever, point_node: int,
                           bound: float = math.inf) -> Tuple[float, float]:
    """Algorithm 1 with plain Dijkstra rounds: ``(dS, dE)`` at the fixpoint.

    Each round runs Dijkstra from the point until S and E are settled or
    the settled distance reaches ``bound`` (``inf`` for a target not
    settled below it), and retrieves every obstacle up to the longer
    distance: up to ``bound`` when it lies beyond it, all of them when it
    is ``inf``.  Rounds repeat until one retrieves nothing new or the
    distances fit inside the radius already covered.
    """
    while True:
        found: Dict[int, float] = {}
        for d, node, _pred in vg.dijkstra_order(point_node):
            if d >= bound:
                break
            if node in (vg.S, vg.E):
                found[node] = d
                if len(found) == 2:
                    break
        d_s = found.get(vg.S, math.inf)
        d_e = found.get(vg.E, math.inf)
        d_prime = max(d_s, d_e)
        if d_prime <= retriever.radius + EPS:
            return d_s, d_e
        grow = bound if d_prime > bound else d_prime
        if retriever.ensure(grow) == 0:
            return d_s, d_e
