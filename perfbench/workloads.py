"""The three workloads: inputs, set-up, one operation, counters, checks.

Each workload object answers the same questions for the run loop in
``runner.py``: which inputs a seed gives (:meth:`inputs`, untimed), what a
user pays before the first answer (:meth:`setup`, timed), how to run one
operation of the list (:meth:`run`), which cumulative counters the live
state holds (:meth:`counters`), and whether the answers were right
(:meth:`check`, after the timed loop).
"""

from __future__ import annotations

import math
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro import (
    CoknnQuery,
    ConnQuery,
    HilbertPartitioner,
    LRUBuffer,
    OnnQuery,
    RangeQuery,
    Segment,
    ShardedWorkspace,
    Workspace,
    naive_coknn,
    naive_conn,
    naive_onn,
)
from repro.geometry.rectangle import Rect

import scenes
from stats import add_block

SAMPLES = 9
"""Positions per query at which answers are re-derived by the oracle."""

TOL = 1e-6


FEW_UPDATES = 100
"""Site updates among the queries of paper_cold and warm_corridor: the
fewest a p90 may be read from, and no more, since each one changes the
state the queries after it read (buffer pages, tree shape, graph nodes).
They give these workloads' ``update_*`` metrics, which sharded_churn is
built to stress."""


def _list_size(seconds: int, rate: float) -> int:
    """Queries of a list planned to run about ``seconds``.

    The list length depends only on the arguments, never on the clock, so
    a seed replays the same operations on any machine.  A list holds at
    least 100 queries, the fewest a p90 may be read from.
    """
    return max(100, round(seconds * rate))


# -------------------------------------------------------------- answer checks
def _near(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return math.isinf(a) and math.isinf(b)
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _local(sites, obstacles, seg: Segment, radius: float):
    """Sites and obstacles within ``radius`` of ``seg``.

    Every obstructed path of length ``<= radius`` from the segment stays in
    that ball, so the oracle run on this subset gives exact distances for
    every answer at or below the radius -- the only ones the engine's
    answer can contain -- and ones above it for the rest.
    """
    if math.isinf(radius):
        return list(sites), list(obstacles)
    reach = radius * (1 + 1e-9) + 1e-6
    near_sites = [s for s in sites
                  if Rect.point(*s[1]).mindist_segment(seg.ax, seg.ay, seg.bx,
                                                       seg.by) <= reach]
    near_obs = [o for o in obstacles
                if o.mbr().mindist_segment(seg.ax, seg.ay, seg.bx,
                                           seg.by) <= reach]
    return near_sites, near_obs


def matches_oracle(result, k: int, seg: Segment, sites, obstacles) -> bool:
    """The k obstructed distances of ``result`` equal the brute-force
    oracle's (``naive_conn`` / ``naive_coknn``) at :data:`SAMPLES`
    positions along ``seg``."""
    radius = result.levels[-1].max_endpoint_value()
    sites, obstacles = _local(sites, obstacles, seg, radius)
    ts = np.linspace(0.0, seg.length, SAMPLES)
    if k == 1:
        _owners, dists = naive_conn(sites, obstacles, seg, ts)
        want = [[d] for d in dists]
    else:
        want = [[d for _p, d in row] for row in
                naive_coknn(sites, obstacles, seg, ts, k)]
    for t, row in zip(ts, want):
        row = list(row) + [math.inf] * (k - len(row))
        got = [d for _p, d in result.knn_at(float(t))]
        if not all(_near(g, w) for g, w in zip(got, row)):
            return False
    return True


def same_answer(a, b, query) -> bool:
    """Two answers to ``query`` agree on every distance (and the neighbor
    sets of point queries)."""
    if isinstance(query, CoknnQuery):
        ts = np.linspace(0.0, query.segment.length, SAMPLES)
        return all(_near(x, y)
                   for t in ts
                   for (_p, x), (_q, y) in zip(a.knn_at(float(t)),
                                               b.knn_at(float(t))))
    rows_a, rows_b = a.tuples(), b.tuples()
    return (len(rows_a) == len(rows_b)
            and {p for p, _d in rows_a} == {p for p, _d in rows_b}
            and all(_near(x, y) for (_p, x), (_q, y) in zip(rows_a, rows_b)))


def _guarded(check, label: str) -> bool:
    """Run one check; a raise counts as a failed check."""
    try:
        ok = check()
    except Exception:  # a broken answer path must not stop the report
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"check failed: {label}", file=sys.stderr)
    return ok


# ----------------------------------------------------------------- workloads
@dataclass
class Inputs:
    scene: scenes.Scene
    ops: scenes.OpList


def _add_workspace(out: Counter, ws: Workspace) -> None:
    for tree in (ws.data_tree, ws.obstacle_tree):
        add_block(out, "ws.io.", tree.tracker.stats)
    add_block(out, "ws.backend.", ws.routing.stats)
    add_block(out, "ws.backend.", ws.per_query_backend.stats)
    add_block(out, "ws.cache.", ws.cache.stats)


class PaperCold:
    """The paper's defaults (CL data, COkNN k=5, ql=4.5%, 2T, an LRU
    buffer below the page working set), every query cold: index reads, IOR
    rounds and per-query graph builds dominate, and the obstacle cache and
    shared graph are bypassed.  :data:`FEW_UPDATES` site updates fall
    between the queries."""

    name = "paper_cold"
    K = 5
    QL = 4.5
    BUFFER_PCT = 32
    """Fig. 12's largest buffer, as % of each tree's pages."""
    RATE = 12.0
    CHECKS = 6

    def inputs(self, seed: int, seconds: int) -> Inputs:
        scene = scenes.paper_scene("tiny")
        queries = _list_size(seconds, self.RATE)
        ops = scenes.paper_ops(scene, seed, queries, FEW_UPDATES,
                               self.QL, self.CHECKS)
        return Inputs(scene, ops)

    def setup(self, inp: Inputs):
        ws = Workspace.from_points(inp.scene.points, inp.scene.obstacles)
        self.attach_buffers(ws)
        return {"writer": ws, "retired": Counter()}

    def attach_buffers(self, ws: Workspace) -> None:
        for tree in (ws.data_tree, ws.obstacle_tree):
            tree.attach_buffer(LRUBuffer(
                max(1, round(tree.num_pages * self.BUFFER_PCT / 100.0))))

    def warmup(self, state, inp: Inputs) -> None:
        """The warm-up query, then an empty buffer for the list."""
        self.query(state, inp.ops.warmup)
        self.attach_buffers(state["writer"])

    def query(self, state, seg: Segment):
        """One cold query: a fresh workspace over the shared trees, so
        only the LRU buffer carries over from the query before."""
        writer = state["writer"]
        ws = Workspace.from_trees(writer.data_tree, writer.obstacle_tree)
        result = ws.execute(CoknnQuery(seg, self.K))
        add_block(state["retired"], "ws.cache.", ws.cache.stats)
        return result

    def run(self, state, op: scenes.Op):
        if op.kind == "query":
            return self.query(state, op.payload)
        return state["writer"].apply([op.payload])[0]

    def counters(self, state) -> Counter:
        out = Counter(state["retired"])
        writer = state["writer"]
        for tree in (writer.data_tree, writer.obstacle_tree):
            add_block(out, "ws.io.", tree.tracker.stats)
            buf = tree.tracker.buffer
            out["ws.buffer.hits"] += buf.hits
            out["ws.buffer.misses"] += buf.misses
        return out

    def check(self, state, inp: Inputs, answers: Dict[int, Any]) -> int:
        failed = 0
        for i, (sites, obstacles) in inp.ops.checks.items():
            seg = inp.ops.ops[i].payload
            failed += not _guarded(
                lambda: matches_oracle(answers[i], self.K, seg, sites,
                                       obstacles), f"op {i} vs oracle")
        return failed

    def sizes(self, inp: Inputs, state) -> Dict[str, Any]:
        writer = state["writer"]
        return {"points": len(inp.scene.points),
                "obstacles": len(inp.scene.obstacles),
                "tree_pages": writer.data_tree.num_pages
                + writer.obstacle_tree.num_pages,
                "buffer_pages": sum(t.tracker.buffer.capacity for t in (
                    writer.data_tree, writer.obstacle_tree))}


class WarmCorridor:
    """One long-lived, fully warmed workspace over rect, segment and
    polygon obstacles; clustered CONN queries.  Time sits in traversal,
    CPLC envelopes and visibility columns, not in reads or builds.
    :data:`FEW_UPDATES` site updates fall between the queries."""

    name = "warm_corridor"
    SIDE = 10
    POINTS = 200
    QL = 5.0
    SPREAD = 2.0
    RATE = 8.0
    CHECKS = 6

    def inputs(self, seed: int, seconds: int) -> Inputs:
        scene = scenes.mixed_scene(self.SIDE, self.POINTS)
        queries = _list_size(seconds, self.RATE)
        ops = scenes.corridor_ops(scene, seed, queries, FEW_UPDATES,
                                  self.QL, self.SPREAD, self.CHECKS)
        return Inputs(scene, ops)

    def setup(self, inp: Inputs):
        ws = Workspace.from_points(inp.scene.points, inp.scene.obstacles)
        ws.prefetch_all()
        ws.routing.warm()
        return ws

    def warmup(self, state, inp: Inputs) -> None:
        state.execute(ConnQuery(inp.ops.warmup))

    def run(self, ws: Workspace, op: scenes.Op):
        if op.kind == "query":
            return ws.execute(ConnQuery(op.payload))
        return ws.apply([op.payload])[0]

    def counters(self, ws: Workspace) -> Counter:
        out = Counter()
        _add_workspace(out, ws)
        return out

    def check(self, ws, inp: Inputs, answers: Dict[int, Any]) -> int:
        failed = 0
        for i, (sites, obstacles) in inp.ops.checks.items():
            seg = inp.ops.ops[i].payload
            failed += not _guarded(
                lambda: matches_oracle(answers[i], 1, seg, sites, obstacles),
                f"op {i} vs oracle")
        return failed

    def sizes(self, inp: Inputs, ws) -> Dict[str, Any]:
        return {"points": len(inp.scene.points),
                "obstacles": len(inp.scene.obstacles),
                "tree_pages": ws.data_tree.num_pages
                + ws.obstacle_tree.num_pages,
                "buffer_pages": 0}


class ShardedChurn:
    """Writes beside reads: a 4-shard Hilbert workspace with CONN, COkNN,
    ONN and range monitors, one stream of obstacle and site churn beside
    CONN queries, some across shard borders.  It runs the write path and
    the monitor and shard layers, which no other workload touches."""

    name = "sharded_churn"
    SIDE = 10
    POINTS = 200
    SHARDS = 4
    LENGTH = 6.0
    BORDER_SHARE = 0.3
    OBSTACLE_SHARE = 0.3
    """Share of the updates that add or remove an obstacle; the rest are
    site updates.  A fixed share keeps ``update_p50_ms`` inside the cheap
    site updates and ``update_p90_ms`` inside the obstacle removals and
    the updates that re-run a monitor, whatever the seed."""
    RATE = 13.0
    UPDATE_SHARE = 0.5
    CHECKS = 6
    MONITORS = (CoknnQuery(Segment(20.0, 31.0, 34.0, 31.0), 3),
                CoknnQuery(Segment(61.0, 68.0, 61.0, 84.0), 2),
                OnnQuery((41.0, 59.0), 3),
                RangeQuery((71.0, 29.0), 8.0))

    def _partitioner(self, scene: scenes.Scene) -> HilbertPartitioner:
        return HilbertPartitioner(Rect(*scene.bounds), self.SHARDS,
                                  sites=[xy for _p, xy in scene.points])

    def inputs(self, seed: int, seconds: int) -> Inputs:
        scene = scenes.mixed_scene(self.SIDE, self.POINTS)
        queries = _list_size(seconds, self.RATE)
        updates = max(100, round(queries * self.UPDATE_SHARE))
        pinned = []
        for q in self.MONITORS:
            if isinstance(q, CoknnQuery):
                pinned.append(q.segment)
            else:
                pinned.append(Segment(q.point.x, q.point.y,
                                      q.point.x, q.point.y))
        ops = scenes.churn_ops(scene, seed, queries, updates,
                               self.BORDER_SHARE, self.OBSTACLE_SHARE,
                               self._partitioner(scene).shard_of, pinned,
                               self.LENGTH, self.CHECKS)
        return Inputs(scene, ops)

    def setup(self, inp: Inputs):
        sws = ShardedWorkspace.from_points(
            inp.scene.points, inp.scene.obstacles,
            partitioner=self._partitioner(inp.scene))
        sws.prefetch_all()
        for ws in sws.shards:
            ws.routing.warm()
        for q in self.MONITORS:
            sws.monitors.register(q)
        return sws

    def warmup(self, sws, inp: Inputs) -> None:
        sws.execute(ConnQuery(inp.ops.warmup))

    def run(self, sws: ShardedWorkspace, op: scenes.Op):
        if op.kind == "query":
            return sws.execute(ConnQuery(op.payload))
        return sws.apply([op.payload])[0]

    def counters(self, sws: ShardedWorkspace) -> Counter:
        out = Counter()
        for ws in sws.shards:
            _add_workspace(out, ws)
        add_block(out, "ws.shard.", sws.stats)
        add_block(out, "ws.monitor.", sws.monitors.stats)
        return out

    def check(self, sws, inp: Inputs, answers: Dict[int, Any]) -> int:
        failed = 0
        for i, (sites, obstacles) in inp.ops.checks.items():
            seg = inp.ops.ops[i].payload
            failed += not _guarded(
                lambda: matches_oracle(answers[i], 1, seg, sites, obstacles),
                f"op {i} vs oracle")
            failed += not _guarded(
                lambda: same_answer(
                    answers[i],
                    Workspace.from_points(sites, obstacles).execute(
                        ConnQuery(seg)), ConnQuery(seg)),
                f"op {i} vs unsharded workspace")
        final_sites = [(p, (r.xlo, r.ylo)) for ws in sws.shards
                       for p, r in ws.data_tree.items()]
        final_obs = list({o: None for ws in sws.shards
                          for o, _r in ws.obstacle_tree.items()})
        for m in sws.monitors:
            failed += not _guarded(
                lambda: same_answer(m.result, sws.execute(m.query), m.query),
                f"monitor {m.id} vs fresh execute")
            if isinstance(m.query, OnnQuery):
                failed += not _guarded(
                    lambda: self._onn_matches(m, final_sites, final_obs),
                    f"monitor {m.id} vs oracle")
        return failed

    @staticmethod
    def _onn_matches(monitor, sites, obstacles) -> bool:
        """An ONN monitor's standing answer equals ``naive_onn``."""
        p = monitor.query.point
        rows = monitor.result.tuples()
        radius = (rows[-1][1] if len(rows) == monitor.query.knn
                  else math.inf)
        sites, obstacles = _local(sites, obstacles,
                                  Segment(p.x, p.y, p.x, p.y), radius)
        want = naive_onn(sites, obstacles, (p.x, p.y), monitor.query.knn)
        return len(rows) == len(want) and all(
            _near(d, w) for (_p, d), (_q, w) in zip(rows, want))

    def sizes(self, inp: Inputs, sws) -> Dict[str, Any]:
        return {"points": len(inp.scene.points),
                "obstacles": len(inp.scene.obstacles),
                "shards": sws.num_shards,
                "tree_pages": sum(ws.data_tree.num_pages
                                  + ws.obstacle_tree.num_pages
                                  for ws in sws.shards),
                "buffer_pages": 0}


WORKLOADS = {w.name: w for w in (PaperCold(), WarmCorridor(), ShardedChurn())}
