"""Batched convex polygons: the slab, its kernel and the kernel's counters.

Contract under test:

* **Kernel parity** — :func:`crosses_convex_polygons` over a slab that mixes
  3- to 8-vertex polygons (so short rows are padded) returns, for every
  (sight line, polygon) pair, exactly the boolean the one-polygon
  reference :func:`crosses_convex_polygon` returns — on random lines and
  on the tolerance edges: through a vertex, along an edge, ending on the
  boundary, zero length.  Grid broadcast and gathered pairs agree.
* **Slab layout** — rows follow ``ObstacleSet.polys`` through ``add`` and
  ``remove``; ``poly_slab[n:]`` is the slab of ``polys[n:]``.
* **Counters** — every kernel launch of the visibility graph, through
  ``blocked_batch`` and the bulk path alike, accounts each
  (edge, primitive) pair exactly once: ``tested + pruned == M x prims``.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.geometry import Segment
from repro.geometry.vectorized import (
    blocked_batch,
    crosses_convex_polygon,
    crosses_convex_polygons,
    polygon_slab,
    primitive_bounds,
)
from repro.obstacles import (
    LocalVisibilityGraph,
    ObstacleSet,
    PolygonObstacle,
    RectObstacle,
    SegmentObstacle,
)


def regular_polygon(rng: random.Random, n: int, cx: float, cy: float,
                    radius: float) -> PolygonObstacle:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return PolygonObstacle([
        (cx + radius * math.cos(phase + 2.0 * math.pi * i / n),
         cy + radius * math.sin(phase + 2.0 * math.pi * i / n))
        for i in range(n)])


def mixed_polygons(rng: random.Random, count: int = 12):
    """Polygons cycling through 3..8 vertices, so the slab pads rows."""
    return [regular_polygon(rng, 3 + i % 6, rng.uniform(10, 90),
                            rng.uniform(10, 90), rng.uniform(2, 12))
            for i in range(count)]


def edge_case_lines(poly: PolygonObstacle, rng: random.Random):
    """Sight lines on the kernel's tolerance edges for one polygon."""
    pts = poly.as_array()
    n = len(pts)
    cx, cy = pts.mean(axis=0)
    lines = []
    for j in range(n):
        px, py = pts[j]
        qx, qy = pts[(j + 1) % n]
        ox, oy = rng.uniform(0, 100), rng.uniform(0, 100)
        # Through a vertex: from outside, past the vertex.
        lines.append((ox, oy, 2 * px - ox, 2 * py - oy))
        # Along an edge: exactly the edge, and the edge extended.
        lines.append((px, py, qx, qy))
        lines.append((px - 0.5 * (qx - px), py - 0.5 * (qy - py),
                      qx + 0.5 * (qx - px), qy + 0.5 * (qy - py)))
        # Endpoint on the boundary: a vertex or an edge midpoint, aimed
        # through the interior and away from it.
        mx, my = 0.5 * (px + qx), 0.5 * (py + qy)
        lines.append((mx, my, 2 * cx - mx, 2 * cy - my))
        lines.append((mx, my, 2 * mx - cx, 2 * my - cy))
        lines.append((px, py, *pts[(j + n // 2) % n]))
        lines.append((ox, oy, px, py))
        # Zero length: on a vertex, inside, outside.
        lines.append((px, py, px, py))
    lines.append((cx, cy, cx, cy))
    lines.append((cx, cy, cx + 200.0, cy))
    return lines


def reference(lines: np.ndarray, polys) -> np.ndarray:
    """(L, P) blocked matrix from the one-polygon reference kernel."""
    out = np.zeros((lines.shape[0], len(polys)), dtype=bool)
    for j, p in enumerate(polys):
        out[:, j] = crosses_convex_polygon(lines[:, 0], lines[:, 1],
                                           lines[:, 2], lines[:, 3],
                                           p.as_array())
    return out


class TestKernelParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_grid_and_pairs_equal_reference(self, seed):
        rng = random.Random(seed)
        polys = mixed_polygons(rng)
        slab = polygon_slab([p.as_array() for p in polys])
        assert slab.vmax == 8 and not slab.valid.all()
        lines = [(rng.uniform(0, 100), rng.uniform(0, 100),
                  rng.uniform(0, 100), rng.uniform(0, 100))
                 for _ in range(150)]
        for p in polys:
            lines.extend(edge_case_lines(p, rng))
        lines = np.asarray(lines)
        want = reference(lines, polys)
        grid = crosses_convex_polygons(lines[:, :1], lines[:, 1:2],
                                       lines[:, 2:3], lines[:, 3:4], slab)
        assert np.array_equal(grid, want)
        ei, oi = np.nonzero(np.ones_like(want))
        pairs = crosses_convex_polygons(lines[ei, 0], lines[ei, 1],
                                        lines[ei, 2], lines[ei, 3], slab[oi])
        assert np.array_equal(pairs, want[ei, oi])
        # The edge-case lines really exercise both outcomes.
        assert want.any() and not want.all()

    def test_scalar_source_broadcasts(self):
        rng = random.Random(11)
        polys = mixed_polygons(rng, 6)
        slab = polygon_slab([p.as_array() for p in polys])
        for _ in range(50):
            a = (rng.uniform(0, 100), rng.uniform(0, 100))
            b = (rng.uniform(0, 100), rng.uniform(0, 100))
            got = crosses_convex_polygons(*a, *b, slab)
            assert got.tolist() == [p.blocks(*a, *b) for p in polys]

    def test_empty_slab(self):
        slab = polygon_slab([])
        assert len(slab) == 0 and len(slab[0:]) == 0
        assert blocked_batch(np.zeros((3, 2)), np.ones((3, 2)),
                             np.empty((0, 4)), np.empty((0, 4)),
                             slab).tolist() == [False] * 3


class TestSlabRows:
    def test_rows_follow_polys_through_add_and_remove(self):
        rng = random.Random(3)
        polys = mixed_polygons(rng, 9)
        oset = ObstacleSet([RectObstacle(1, 1, 2, 2)] + polys[:5])
        assert len(oset.poly_slab) == 5
        oset.add_many(polys[5:] + [SegmentObstacle(0, 0, 5, 5)])
        for victim in (polys[0], polys[6], polys[3]):
            assert oset.remove(victim)
            live = oset.polys
            slab = oset.poly_slab
            fresh = polygon_slab([p.as_array() for p in live])
            for name in ("px", "py", "ex", "ey", "scale", "valid", "bounds"):
                assert np.array_equal(getattr(slab, name),
                                      getattr(fresh, name))
            # Watermark slices: row i of poly_slab[n:] is polys[n + i].
            for n in range(len(live) + 1):
                tail = slab[n:]
                assert len(tail) == len(live) - n
                for i, p in enumerate(live[n:]):
                    keep = tail.valid[:, i]
                    verts = np.stack([tail.px[keep, i], tail.py[keep, i]],
                                     axis=1)
                    assert np.array_equal(verts, p.as_array())
                    assert tuple(tail.bounds[i]) == tuple(p.mbr())

    def test_obstacle_set_blocked_matches_per_obstacle(self):
        rng = random.Random(4)
        obs = mixed_polygons(rng, 8) + [RectObstacle(40, 40, 50, 45),
                                        SegmentObstacle(10, 80, 30, 60)]
        oset = ObstacleSet(obs)
        for _ in range(300):
            a = (rng.uniform(0, 100), rng.uniform(0, 100))
            b = (rng.uniform(0, 100), rng.uniform(0, 100))
            assert oset.blocked(*a, *b) == any(o.blocks(*a, *b) for o in obs)


def mixed_scene(rng: random.Random, n: int):
    obstacles = []
    for i in range(n):
        x, y = rng.uniform(5, 85), rng.uniform(5, 85)
        w, h = rng.uniform(3, 9), rng.uniform(3, 9)
        kind = i % 3
        if kind == 0:
            obstacles.append(RectObstacle(x, y, x + w, y + h))
        elif kind == 1:
            obstacles.append(SegmentObstacle(x, y, x + w, y + h))
        else:
            obstacles.append(regular_polygon(rng, 3 + i % 6, x, y, w))
    return obstacles


class TestCounterConsistency:
    def test_blocked_batch_accounts_every_pair(self):
        rng = random.Random(5)
        oset = ObstacleSet(mixed_scene(rng, 15))
        rects, segs, slab = oset.rects, oset.segs, oset.poly_slab
        prims = rects.shape[0] + segs.shape[0] + len(slab)
        for m in (1, 7, 400):
            src = np.array([[rng.uniform(0, 100), rng.uniform(0, 100)]
                            for _ in range(m)])
            tgt = src + np.array([[rng.uniform(-20, 20), rng.uniform(-20, 20)]
                                  for _ in range(m)])
            for bounds in (None, primitive_bounds(rects, segs, slab)):
                for tile in (64, 4096, 1 << 20):
                    tally: dict = {}
                    got = blocked_batch(src, tgt, rects, segs, slab,
                                        tile_elems=tile, bounds=bounds,
                                        tally=tally)
                    assert tally["tested"] + tally["pruned"] == m * prims
                    want = [oset.blocked(*s, *t) for s, t in zip(src, tgt)]
                    assert got.tolist() == want

    @pytest.mark.parametrize("seed", range(4))
    def test_every_graph_launch_accounts_every_pair(self, seed, monkeypatch):
        import repro.obstacles.visgraph as visgraph

        rng = random.Random(seed)
        pool = mixed_scene(rng, 15)
        g = LocalVisibilityGraph(None)
        launches = []
        calls = {"batch": 0, "bulk": 0}
        count = g._count_batch
        batch = visgraph.blocked_batch
        bulk = g._blocked_bulk

        def count_spy(edges, prims, tally=None):
            launches.append((edges, prims, tally))
            count(edges, prims, tally)

        def batch_spy(*args, **kwargs):
            calls["batch"] += 1
            return batch(*args, **kwargs)

        def bulk_spy(*args):
            calls["bulk"] += 1
            return bulk(*args)

        monkeypatch.setattr(visgraph, "blocked_batch", batch_spy)
        g._count_batch = count_spy
        g._blocked_bulk = bulk_spy
        g.add_obstacles(pool[:9])
        for _ in range(6):
            g.add_point(rng.uniform(0, 100), rng.uniform(0, 100))
        g.build_all()                      # bulk materialization
        g.add_obstacles(pool[9:])
        for v in g._alive_ids()[::3]:
            g.row_arrays(v)                # per-row repair launches
        g.bind(Segment(10, 20, 90, 70))    # transient columns
        g.shortest_distances(g.S, (g.E,))
        g.unbind()
        g.remove_obstacle(pool[2])         # bulk re-open after removal
        g.build_all()
        assert calls["batch"] > 0 and calls["bulk"] > 0
        assert len(launches) == calls["batch"] + calls["bulk"]
        for edges, prims, tally in launches:
            assert tally["tested"] + tally["pruned"] == edges * prims
        assert g.work.batched_edges_tested + g.work.kernel_pruned_edges == sum(
            e * p for e, p, _t in launches)
