"""Visible regions from prefiltered (viewpoint, obstacle) pair grids, in waves.

Two layers are pinned:

* **pair grid** — :func:`~repro.obstacles.shadow.viewpoint_shadows` gives
  every viewpoint exactly the intervals of the one-viewpoint shadow calls
  over the whole obstacle arrays, tuple for tuple and in the same order:
  the pair-form kernels run the same operations per element, and the
  triangle prefilter only drops pairs that cast no shadow.  Checked on
  viewpoints at obstacle vertices and on obstacle edges, on viewpoints
  whose triangle AABB just touches (or just misses) an obstacle AABB, and
  on scenes translated by 1e6;
* **waves** — growing obstacles in rounds, every ``visible_region_of``
  read equals what a per-node cache computes for the same read sequence
  (the full segment minus every shadow on a first read, the last read's
  region minus the newer shadows after that), in both regimes: waves
  that fit one kernel tile and the per-node fallback.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import Workspace
from repro.geometry import IntervalSet, Segment
from repro.obstacles import (
    ObstacleSet,
    PolygonObstacle,
    RectObstacle,
    SegmentObstacle,
)
from repro.obstacles import visgraph
from repro.geometry.vectorized import primitive_bounds
from repro.obstacles.shadow import (
    shadow_intervals_polys,
    shadow_intervals_rects,
    shadow_intervals_segs,
    viewpoint_shadows,
)
from repro.obstacles.visgraph import LocalVisibilityGraph
from tests.conftest import random_query, random_scene


def mixed_obstacles(rng: random.Random, n: int, offset: float = 0.0,
                    side: float = 100.0) -> list:
    """Rects, walls and convex polygons, shifted by ``offset``."""
    out = []
    for _ in range(n):
        x = offset + rng.uniform(0, side)
        y = offset + rng.uniform(0, side)
        kind = rng.random()
        if kind < 0.4:
            out.append(RectObstacle(x, y, x + rng.uniform(2, 15),
                                    y + rng.uniform(2, 15)))
        elif kind < 0.7:
            out.append(SegmentObstacle(x, y, x + rng.uniform(-15, 15),
                                       y + rng.uniform(-15, 15)))
        else:
            k = rng.randint(3, 7)
            r = rng.uniform(2, 9)
            phase = rng.uniform(0, 2 * math.pi)
            out.append(PolygonObstacle([
                (x + r * math.cos(phase + 2 * math.pi * i / k),
                 y + r * math.sin(phase + 2 * math.pi * i / k))
                for i in range(k)]))
    return out


def one_viewpoint(vx, vy, qseg, rects, segs, slab) -> list:
    """The intervals of the unfiltered one-viewpoint calls, kind by kind."""
    out = []
    for shadows, prims in ((shadow_intervals_rects, rects),
                           (shadow_intervals_segs, segs),
                           (shadow_intervals_polys, slab)):
        _rows, lo, hi = shadows(vx, vy, qseg, prims)
        out.extend(zip(lo.tolist(), hi.tolist()))
    return out


def edge_points(obstacle, rng: random.Random) -> list:
    """The obstacle's vertices and a random point on each edge."""
    verts = obstacle.vertices()
    if isinstance(obstacle, SegmentObstacle):
        edges = [(verts[0], verts[1])]
    else:
        edges = list(zip(verts, verts[1:] + verts[:1]))
    pts = list(verts)
    for (ax, ay), (bx, by) in edges:
        f = rng.random()
        pts.append((ax + f * (bx - ax), ay + f * (by - ay)))
    return pts


def assert_grid_matches(xs, ys, qseg, oset: ObstacleSet) -> None:
    got = viewpoint_shadows(xs, ys, qseg, oset.rects, oset.segs,
                            oset.poly_slab)
    assert len(got) == len(xs)
    for vx, vy, intervals in zip(xs, ys, got):
        want = one_viewpoint(vx, vy, qseg, oset.rects, oset.segs,
                             oset.poly_slab)
        assert intervals == want, (vx, vy)


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("seed", range(6))
def test_pair_grid_equals_one_viewpoint_calls(seed, offset):
    rng = random.Random(seed)
    obstacles = mixed_obstacles(rng, 14, offset)
    oset = ObstacleSet(obstacles)
    q = Segment(*(offset + c for c in random_query(rng)))
    views = [(offset + rng.uniform(0, 100), offset + rng.uniform(0, 100))
             for _ in range(12)]
    views += [pt for o in obstacles for pt in edge_points(o, rng)]
    views += [(q.ax, q.ay), (q.bx, q.by)]
    xs = [x for x, _ in views]
    ys = [y for _, y in views]
    assert_grid_matches(xs, ys, q, oset)
    # A region wave mixes missing and stale nodes: slices past a
    # watermark prefilter against their own rows.
    n = len(oset.rects) // 2, len(oset.segs) // 2, len(oset.polys) // 2
    got = viewpoint_shadows(xs, ys, q, oset.rects[n[0]:], oset.segs[n[1]:],
                            oset.poly_slab[n[2]:])
    for vx, vy, intervals in zip(xs, ys, got):
        assert intervals == one_viewpoint(vx, vy, q, oset.rects[n[0]:],
                                          oset.segs[n[1]:],
                                          oset.poly_slab[n[2]:])


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_pair_grid_at_touching_triangle_aabbs(offset):
    """Viewpoints whose triangle ``(v, S, E)`` AABB touches an obstacle's
    AABB, or misses it by a hair on either side of the prefilter pad."""
    rng = random.Random(11)
    q = Segment(offset + 0.0, offset + 0.0, offset + 20.0, offset + 10.0)
    obstacles = mixed_obstacles(rng, 10, offset + 30.0, side=60.0)
    oset = ObstacleSet(obstacles)
    scale = 1.0 + max(abs(c) for c in q) + 100.0
    pad = 8e-9 * scale
    xs, ys = [], []
    for o in obstacles:
        r = o.mbr()
        for d in (0.0, -0.5 * pad, 0.5 * pad, -2.0 * pad, 2.0 * pad,
                  -1e-12, 1e-12):
            # The triangle's right side at the obstacle's left side, then
            # its top at the obstacle's bottom, then corner to corner.
            xs += [r.xlo + d, rng.uniform(q.ax, r.xhi), r.xlo + d]
            ys += [rng.uniform(r.ylo, r.yhi), r.ylo + d, r.ylo + d]
        for vx, vy in o.vertices():  # a vertex viewpoint touches trivially
            xs.append(vx)
            ys.append(vy)
    assert_grid_matches(xs, ys, q, oset)


def test_pair_form_rows_take_their_own_viewpoint():
    """Aligned viewpoint arrays: row i equals the scalar call on row i."""
    rng = random.Random(5)
    oset = ObstacleSet(mixed_obstacles(rng, 30))
    q = Segment(5.0, 40.0, 95.0, 60.0)
    mx, my = 50.0, 50.0
    kinds = zip((shadow_intervals_rects, shadow_intervals_segs,
                 shadow_intervals_polys),
                (oset.rects, oset.segs, oset.poly_slab),
                primitive_bounds(oset.rects, oset.segs, oset.poly_slab))
    for shadows, prims, boxes in kinds:
        n = len(prims)
        # Odd rows look at q from behind their own obstacle (as seen from
        # q's midpoint), even rows from anywhere.
        cx = 0.5 * (boxes[:, 0] + boxes[:, 2])
        cy = 0.5 * (boxes[:, 1] + boxes[:, 3])
        odd = np.arange(n) % 2 == 1
        xs = np.where(odd, 2 * cx - mx, [rng.uniform(0, 100) for _ in cx])
        ys = np.where(odd, 2 * cy - my, [rng.uniform(0, 100) for _ in cy])
        rows, lo, hi = shadows(xs, ys, q, prims)
        got = list(zip(rows.tolist(), lo.tolist(), hi.tolist()))
        want = []
        for i in range(n):
            _r, l1, h1 = shadows(xs[i], ys[i], q, prims[i:i + 1])
            want += [(i, lo_, hi_) for lo_, hi_ in zip(l1.tolist(),
                                                        h1.tolist())]
        assert got == want
        assert got, "the scene should cast some shadows"


class PerNodeRegions:
    """The per-node region cache: fill at first read, narrow at later ones."""

    def __init__(self, qseg: Segment):
        self.qseg = qseg
        self.cache = {}
        self.misses = 0

    def read(self, v, x, y, oset: ObstacleSet) -> list:
        mark = (oset.rects.shape[0], oset.segs.shape[0], len(oset.polys))
        got = self.cache.get(v)
        if got is None:
            region = IntervalSet.full(0.0, self.qseg.length)
            since = (0, 0, 0)
        else:
            region, since = got
        if got is None or since != mark:
            self.misses += 1
            region = region.subtract(IntervalSet(one_viewpoint(
                x, y, self.qseg, oset.rects[since[0]:],
                oset.segs[since[1]:], oset.poly_slab[since[2]:])))
        self.cache[v] = (region, mark)
        return region.intervals


@pytest.mark.parametrize("regime", ["wave", "per-node"])
@pytest.mark.parametrize("seed", range(3))
def test_regions_in_rounds_equal_per_node_reads(seed, regime, monkeypatch):
    if regime == "per-node":
        monkeypatch.setattr(visgraph, "BATCH_TILE_ELEMS", -1)
    rng = random.Random(100 + seed)
    obstacles = mixed_obstacles(rng, 15)
    q = Segment(10.0, 20.0, 90.0, 70.0)
    g = LocalVisibilityGraph(q)
    ref = PerNodeRegions(q)
    points = []
    for start in range(0, len(obstacles), 3):
        g.add_obstacles(obstacles[start:start + 3])
        if rng.random() < 0.5:
            points.append(g.add_point(rng.uniform(0, 100),
                                      rng.uniform(0, 100)))
        if len(points) > 1 and rng.random() < 0.3:
            g.remove_point(points.pop(0))
        alive = g._alive_ids()
        for v in rng.sample(alive, max(1, len(alive) // 3)) + alive[:2]:
            x, y = g._xy[v]
            assert g.visible_region_of(v).intervals == \
                ref.read(v, x, y, g.obstacles), (v, start)
    for v in g._alive_ids():
        x, y = g._xy[v]
        assert g.visible_region_of(v).intervals == \
            ref.read(v, x, y, g.obstacles)
    if regime == "wave":
        assert g.work.region_waves > 0
        assert g.work.regions_computed >= ref.misses
    else:
        assert g.work.region_waves == 0
        assert g.work.regions_computed == ref.misses


@pytest.mark.parametrize("seed", range(3))
def test_query_answers_match_across_regimes(seed, monkeypatch):
    """CONN / COkNN tuples do not depend on which regime filled regions."""
    rng = random.Random(seed)
    points, obstacles = random_scene(rng, n_points=15, n_obstacles=10)
    queries = [random_query(rng) for _ in range(4)]

    def answers():
        ws = Workspace.from_points(points, obstacles)
        out, waves = [], 0
        for q in queries:
            for res in (ws.coknn(q, k=2), ws.conn(q)):
                out.append(res.tuples())
                waves += res.stats.backend.region_waves
        return out, waves

    waved, waves = answers()
    assert waves > 0
    monkeypatch.setattr(visgraph, "BATCH_TILE_ELEMS", -1)
    single, waves = answers()
    assert waves == 0
    assert waved == single
