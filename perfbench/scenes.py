"""Seeded inputs: the fixed scenes and the per-seed operation lists.

Every scene is a pure function of a constant scene seed.  So is the
*pool* of operations a list of a given length is made from: the query
segments and the fixed sequence of site and obstacle updates.  ``--seed``
draws the list from that pool: the order of the queries, where they fall
between the updates, the warm-up op and the sample of queries whose
answers are checked.  Every seed thus runs the same mix of work in a
different order, so seeds differ in detail but not in which region or
which cost class they stress, and identical arguments replay identical
operations, which is what lets the count fingerprint repeat exactly.

While it draws a list, the generator tracks the live sites and obstacles,
so every update applies, no query or site lands inside a live obstacle,
and each checked query carries the exact scene it was answered against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro import PolygonObstacle, RectObstacle, SegmentObstacle
from repro.bench.experiments import make_dataset
from repro.bench.workloads import (
    clustered_query_workload,
    query_workload,
    random_query_segment,
)
from repro.datasets.synthetic import ObstacleGrid
from repro.geometry.predicates import segment_crosses_rect_interior
from repro.geometry.segment import Segment
from repro.service.updates import AddObstacle, AddSite, RemoveObstacle, RemoveSite

SCENE_SEED = 1
"""Seed of every scene and operation pool."""

UNIT = (0.0, 0.0, 100.0, 100.0)
"""Bounds of the mixed-obstacle scenes (warm_corridor, sharded_churn)."""

SITE_IDS = 2_000_000
OBSTACLE_IDS = 1_000_000
"""First ids of the sites and obstacles an operation list adds."""

Site = Tuple[int, Tuple[float, float]]


@dataclass
class Scene:
    points: List[Site]
    obstacles: list
    bounds: Tuple[float, float, float, float]


@dataclass
class Op:
    """One entry of an operation list: a query segment or an update."""

    kind: str          # "query" or "update"
    payload: object    # a Segment (query) or a repro Update
    border: bool = False  # query drawn to straddle a shard border


@dataclass
class OpList:
    warmup: Segment
    """A query drawn outside the list, run untimed before it."""
    ops: List[Op] = field(default_factory=list)
    checks: Dict[int, Tuple[List[Site], list]] = field(default_factory=dict)
    """``op index -> (live sites, live obstacles)`` for the sampled
    queries whose answers are re-derived after the timed loop."""


# --------------------------------------------------------------------- scenes
def paper_scene(scale: str) -> Scene:
    """CL data: CA-like clustered points among LA-like street obstacles."""
    points, obstacles = make_dataset("CL", scale, seed=SCENE_SEED)
    return Scene(list(points), list(obstacles), (0.0, 0.0, 10000.0, 10000.0))


def blocked(obstacles, x: float, y: float) -> bool:
    """True when ``(x, y)`` is strictly inside a solid obstacle."""
    return any(hasattr(o, "contains_interior") and o.contains_interior(x, y)
               for o in obstacles)


def _obstacle_in_cell(rng: random.Random, x0: float, y0: float, step: float,
                      oid: int):
    """A rect, wall segment or convex polygon inside one lattice cell."""
    roll = rng.random()
    cx = x0 + step * rng.uniform(0.35, 0.65)
    cy = y0 + step * rng.uniform(0.35, 0.65)
    if roll < 0.55:
        w = step * rng.uniform(0.2, 0.45)
        h = step * rng.uniform(0.2, 0.45)
        return RectObstacle(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2,
                            oid=oid)
    if roll < 0.8:
        half = step * rng.uniform(0.15, 0.3)
        theta = rng.uniform(0.0, math.pi)
        dx, dy = half * math.cos(theta), half * math.sin(theta)
        return SegmentObstacle(cx - dx, cy - dy, cx + dx, cy + dy, oid=oid)
    sides = rng.choice((3, 5, 6))
    radius = step * rng.uniform(0.15, 0.25)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return PolygonObstacle(
        [(cx + radius * math.cos(phase + 2.0 * math.pi * i / sides),
          cy + radius * math.sin(phase + 2.0 * math.pi * i / sides))
         for i in range(sides)], oid=oid)


def mixed_scene(side: int, n_points: int) -> Scene:
    """A jittered ``side`` x ``side`` lattice of rect, wall and polygon
    obstacles over ``[0, 100]^2`` plus uniform reachable sites."""
    rng = random.Random(SCENE_SEED)
    step = 100.0 / side
    obstacles = [_obstacle_in_cell(rng, gx * step, gy * step, step,
                                   oid=gx * side + gy)
                 for gx in range(side) for gy in range(side)]
    points: List[Site] = []
    while len(points) < n_points:
        x, y = rng.uniform(0.5, 99.5), rng.uniform(0.5, 99.5)
        if not blocked(obstacles, x, y):
            points.append((len(points), (x, y)))
    return Scene(points, obstacles, UNIT)


def mbr_proxies(obstacles) -> List[RectObstacle]:
    """Each obstacle's MBR as a rect, for the library's workload
    generators, which test clearance against rect interiors only: a query
    clear of every MBR interior is clear of every obstacle."""
    return [RectObstacle(r.xlo, r.ylo, r.xhi, r.yhi)
            for r in (o.mbr() for o in obstacles)]


def _segment_clear(seg: Segment, obstacles) -> bool:
    """``seg`` cuts no obstacle's MBR interior (conservative)."""
    for o in obstacles:
        r = o.mbr()
        if segment_crosses_rect_interior(seg.ax, seg.ay, seg.bx, seg.by,
                                         r.xlo, r.ylo, r.xhi, r.yhi):
            return False
    return True


# ---------------------------------------------------------------------- pools
def _cells(rng: random.Random, count: int, bounds, grid: int = 4):
    """Spread ``count`` draws evenly over a ``grid`` x ``grid`` tiling of
    ``bounds``: ``[(cell bounds, draws), ...]`` in random cell order."""
    xlo, ylo, xhi, yhi = bounds
    w, h = (xhi - xlo) / grid, (yhi - ylo) / grid
    cells = [(xlo + i * w, ylo + j * h, xlo + (i + 1) * w, ylo + (j + 1) * h)
             for i in range(grid) for j in range(grid)]
    rng.shuffle(cells)
    base, extra = divmod(count, len(cells))
    return [(cell, base + (k < extra)) for k, cell in enumerate(cells)]


def _scaled(percent: float, bounds, cell) -> float:
    """``percent`` of the side of ``bounds`` as a percent of ``cell``'s."""
    return percent * (bounds[2] - bounds[0]) / (cell[2] - cell[0])


def site_pool(rng: random.Random, count: int, bounds, obstacles
              ) -> List[Site]:
    """``count`` new sites, uniform over ``bounds`` and outside every
    obstacle of ``obstacles``."""
    xlo, ylo, xhi, yhi = bounds
    mx, my = 0.01 * (xhi - xlo), 0.01 * (yhi - ylo)
    out: List[Site] = []
    while len(out) < count:
        x = rng.uniform(xlo + mx, xhi - mx)
        y = rng.uniform(ylo + my, yhi - my)
        if not blocked(obstacles, x, y):
            out.append((SITE_IDS + len(out), (x, y)))
    return out


def obstacle_pool(rng: random.Random, count: int, scene: Scene,
                  pinned: Sequence[Segment]) -> List[RectObstacle]:
    """``count`` small rects, pairwise apart and apart from every scene
    obstacle, scene site and ``pinned`` geometry, so any of them may be
    added at any point of a list."""
    out: List[RectObstacle] = []
    for _ in range(1000 * count):
        if len(out) == count:
            return out
        x, y = rng.uniform(3, 95), rng.uniform(3, 95)
        r = RectObstacle(x, y, x + rng.uniform(0.6, 2.0),
                         y + rng.uniform(0.6, 2.0), oid=OBSTACLE_IDS + len(out))
        pad = r.rect.expanded(0.05)
        if (any(pad.contains_point(px, py) for _p, (px, py) in scene.points)
                or any(pad.mindist_segment(s.ax, s.ay, s.bx, s.by) <= 0.5
                       for s in pinned)
                or any(pad.intersects(o.mbr())
                       for o in (*scene.obstacles, *out))):
            continue
        out.append(r)
    raise RuntimeError("no free obstacle placement")


# ----------------------------------------------------------------- op lists
class _Stream:
    """Live state plus the list being drawn.

    Site updates alternate add and remove, and so do obstacle updates, so
    each pool item is added once and removed by the next update of its
    kind.  The pools come in a fixed order: every list of one length holds
    the same updates in the same order, and a seed moves only the queries
    between them.  The R*-trees' shape drifts with the order of inserts
    and deletes, so a seeded update order would move the page reads of
    every query after it.
    """

    def __init__(self, scene: Scene, rng: random.Random,
                 sites: Sequence[Site] = (), obstacles: Sequence = ()):
        self.rng = rng
        self.live_obs = list(scene.obstacles)
        self.live_sites = list(scene.points)
        self.site_pool = list(sites)
        self.obstacle_pool = list(obstacles)
        self.added_site = None
        self.added_obs = None
        self.ops: List[Op] = []
        self.checks: Dict[int, Tuple[List[Site], list]] = {}

    def query(self, seg: Segment, checked: bool, border: bool = False) -> None:
        if checked:
            self.checks[len(self.ops)] = (list(self.live_sites),
                                          list(self.live_obs))
        self.ops.append(Op("query", seg, border))

    def site_op(self) -> None:
        site = self.added_site
        if site is None:
            site = self.added_site = self.site_pool.pop()
            self.live_sites.append(site)
            self.ops.append(Op("update", AddSite(site[0], *site[1])))
        else:
            self.added_site = None
            self.live_sites.remove(site)
            self.ops.append(Op("update", RemoveSite(site[0], *site[1])))

    def obstacle_op(self) -> None:
        obstacle = self.added_obs
        if obstacle is None:
            obstacle = self.added_obs = self.obstacle_pool.pop()
            self.live_obs.append(obstacle)
            self.ops.append(Op("update", AddObstacle(obstacle)))
        else:
            self.added_obs = None
            self.live_obs.remove(obstacle)
            self.ops.append(Op("update", RemoveObstacle(obstacle)))

    def interleave(self, queries: Sequence[Tuple[Segment, bool]],
                   updates: Sequence[Callable[[], None]],
                   checks: int) -> None:
        """Shuffle ``queries`` (in their given order) and ``updates`` (in
        theirs) into one stream; ``checks`` of the queries, drawn at
        random, are marked for checking."""
        rng = self.rng
        kinds = [True] * len(queries) + [False] * len(updates)
        rng.shuffle(kinds)
        checked = set(rng.sample(range(len(queries)),
                                 min(checks, len(queries))))
        qi = ui = 0
        for is_query in kinds:
            if is_query:
                seg, border = queries[qi]
                self.query(seg, qi in checked, border)
                qi += 1
            else:
                updates[ui]()
                ui += 1


def _near_data(rng: random.Random, scene: Scene, grid: ObstacleGrid,
               ql: float) -> Segment:
    """A segment of ``ql`` % of the space side starting within one
    segment length of a random data point.

    On clustered data a uniformly placed segment often lies in an empty
    region, where the k-th neighbor is far and one query builds a graph
    over a large part of the space (CL tiny: p90 1.6 s beside a 0.2 s
    median); near the data the p90 stays below twice the median.
    """
    xlo, ylo, xhi, yhi = scene.bounds
    reach = (xhi - xlo) * ql / 100.0
    _p, (x, y) = rng.choice(scene.points)
    bx = min(max(x - reach, xlo), xhi - 2 * reach)
    by = min(max(y - reach, ylo), yhi - 2 * reach)
    box = (bx, by, bx + 2 * reach, by + 2 * reach)
    return random_query_segment(rng, _scaled(ql, scene.bounds, box), grid,
                                box)


def paper_ops(scene: Scene, seed: int, queries: int, updates: int,
              ql: float, checks: int) -> OpList:
    """Query segments of ``ql`` % of the space side near the data, in
    seeded order, interleaved with site inserts and deletes."""
    pool = random.Random(SCENE_SEED)
    grid = ObstacleGrid(scene.obstacles, scene.bounds)
    segs = [_near_data(pool, scene, grid, ql) for _ in range(queries)]
    sites = site_pool(pool, (updates + 1) // 2, scene.bounds, scene.obstacles)
    rng = random.Random(seed)
    warmup = _near_data(rng, scene, grid, ql)
    rng.shuffle(segs)
    stream = _Stream(scene, rng, sites)
    stream.interleave([(s, False) for s in segs],
                      [stream.site_op] * updates, checks)
    return OpList(warmup, stream.ops, stream.checks)


def corridor_ops(scene: Scene, seed: int, queries: int, updates: int,
                 ql: float, spread: float, checks: int) -> OpList:
    """One corridor per cell of a 6 x 6 tiling: a run of jittered copies
    of one anchor segment (a re-evaluated route).  The runs come in seeded
    order, interleaved with site inserts and deletes."""
    pool = random.Random(SCENE_SEED)
    proxies = mbr_proxies(scene.obstacles)
    runs = [clustered_query_workload(
        pool, n, _scaled(ql, scene.bounds, cell), proxies, cell,
        spread_percent=_scaled(spread, scene.bounds, cell))
        for cell, n in _cells(pool, queries, scene.bounds, grid=6)]
    sites = site_pool(pool, (updates + 1) // 2, scene.bounds, scene.obstacles)
    rng = random.Random(seed)
    warmup = query_workload(rng, 1, ql, proxies, scene.bounds)[0]
    rng.shuffle(runs)
    stream = _Stream(scene, rng, sites)
    stream.interleave([(s, False) for run in runs for s in run],
                      [stream.site_op] * updates, checks)
    return OpList(warmup, stream.ops, stream.checks)


def churn_ops(scene: Scene, seed: int, queries: int, updates: int,
              border_share: float, obstacle_share: float,
              shard_of: Callable[[float, float], int],
              pinned: Sequence[Segment], length: float,
              checks: int) -> OpList:
    """One interleaved stream of CONN queries and site/obstacle churn.

    ``border_share`` of the queries have their endpoints in different
    shards (``shard_of``); the rest stay inside one shard and are centred
    in the cells of a stratified tiling.  ``obstacle_share`` of the
    updates add or remove an obstacle, the rest a site.  No query, site or
    pinned monitor geometry meets a pool obstacle, so every update applies
    and every query stays clear at any position in the stream.
    """
    pool = random.Random(SCENE_SEED)
    n_obs = round(obstacle_share * updates)
    obstacles = obstacle_pool(pool, (n_obs + 1) // 2, scene, pinned)
    solid = [*scene.obstacles, *obstacles]
    sites = site_pool(pool, (updates - n_obs + 1) // 2, (3, 3, 97, 97),
                      solid)

    def draw_query(rng: random.Random, area, border: bool) -> Segment:
        xlo, ylo, xhi, yhi = area
        for _ in range(10_000):
            cx, cy = rng.uniform(xlo, xhi), rng.uniform(ylo, yhi)
            theta = rng.uniform(0, 2 * math.pi)
            dx = 0.5 * length * math.cos(theta)
            dy = 0.5 * length * math.sin(theta)
            seg = Segment(cx - dx, cy - dy, cx + dx, cy + dy)
            crosses = shard_of(seg.ax, seg.ay) != shard_of(seg.bx, seg.by)
            if (crosses == border
                    and all(1.0 <= v <= 99.0
                            for v in (seg.ax, seg.ay, seg.bx, seg.by))
                    and _segment_clear(seg, solid)):
                return seg
        raise RuntimeError("no clear query placement")

    inner = (5, 5, 95, 95)
    n_border = round(border_share * queries)
    segs = [(draw_query(pool, inner, True), True) for _ in range(n_border)]
    segs += [(draw_query(pool, cell, False), False)
             for cell, n in _cells(pool, queries - n_border, inner)
             for _ in range(n)]
    rng = random.Random(seed)
    warmup = draw_query(rng, inner, False)
    rng.shuffle(segs)
    stream = _Stream(scene, rng, sites, obstacles)
    churn = ([stream.obstacle_op] * n_obs
             + [stream.site_op] * (updates - n_obs))
    pool.shuffle(churn)
    stream.interleave(segs, churn, checks)
    return OpList(warmup, stream.ops, stream.checks)
