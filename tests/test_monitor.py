"""Continuous-query monitors: affected-tests, local repair, deltas.

Contract under test:

* **Exactness** — after any update sequence, every monitor's standing
  result equals a fresh execution of its query on the mutated dataset,
  whether the maintenance path was no-op, span repair, or full re-run;
* **Incrementality** — updates outside a monitor's influence region are
  dismissed without touching the obstacle index, and span repairs re-run
  strictly less than the whole segment;
* **Deltas** — emitted events describe exactly what changed.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import (
    AddObstacle,
    AddSite,
    CoknnQuery,
    ConnQuery,
    OnnQuery,
    RangeQuery,
    RectObstacle,
    RemoveObstacle,
    RemoveSite,
    SegmentObstacle,
    SemiJoinQuery,
    Workspace,
)
from repro.geometry import Segment
from repro.monitor import NO_OP, REPAIR, RERUN
from tests.conftest import (
    build_point_tree,
    building_lattice,
    lattice_sites,
    random_query,
    random_scene,
    same_values,
)


def assert_monitor_fresh(monitor, points, obstacles):
    """The standing result equals a cold run on the mutated dataset."""
    fresh_ws = Workspace.from_points(points, obstacles)
    fresh = fresh_ws.execute(monitor.query)
    if isinstance(monitor.query, CoknnQuery):
        qseg = monitor.query.segment
        ts = np.linspace(0.0, qseg.length, 151)
        for lv_g, lv_w in zip(monitor.result.levels, fresh.levels):
            assert same_values(lv_g.values(ts), lv_w.values(ts))
        got, want = monitor.result.tuples(), fresh.tuples()
        assert [o for o, _ in got] == [o for o, _ in want]
        assert np.allclose([iv for _, iv in got], [iv for _, iv in want],
                           atol=1e-6)
    else:
        got, want = monitor.result.tuples(), fresh.tuples()
        assert [p for p, _ in got] == [p for p, _ in want]
        assert [d for _, d in got] == pytest.approx([d for _, d in want],
                                                    abs=1e-6)


class TestAffectedTest:
    def test_far_update_is_noop_with_zero_reads(self):
        points = [("a", (10.0, 10.0)), ("b", (20.0, 12.0))]
        obstacles = [RectObstacle(12, 4, 14, 7)]  # near, not on, the segment
        ws = Workspace.from_points(points, obstacles)
        m = ws.monitors.register(ConnQuery(Segment(5, 10, 25, 10)))
        snap = ws.obstacle_tree.tracker.stats.snapshot()
        ws.add_site("far", (900.0, 900.0))
        # The affected-test ran on recorded state alone: a site insert never
        # touches the obstacle tree, and the dismissal added no reads.
        assert ws.obstacle_tree.tracker.stats.delta(snap).logical_reads == 0
        ws.add_obstacle(RectObstacle(800, 800, 810, 805))
        assert [e.action for e in m.events[-2:]] == [NO_OP, NO_OP]
        assert ws.monitors.stats.noops == 2

    def test_obstacle_insert_ignores_unreachable_pieces(self):
        """A segment walled off mid-way has infinite pieces; an obstacle
        insert far away still cannot affect them (site inserts can)."""
        points = [("a", (10.0, 10.0))]
        # The wall straddles the query segment: the far side is unreachable
        # only locally around the crossing (paths bend around wall ends).
        wall = SegmentObstacle(15.0, 9.0, 15.0, 11.0)
        ws = Workspace.from_points(points, [wall])
        m = ws.monitors.register(ConnQuery(Segment(5, 10, 25, 10)))
        ws.add_obstacle(RectObstacle(800, 800, 810, 805))
        assert m.events[-1].action == NO_OP

    def test_remove_unrelated_site_is_noop(self):
        points = [("a", (10.0, 10.0)), ("b", (20.0, 12.0)),
                  ("far", (90.0, 90.0))]
        ws = Workspace.from_points(points, [RectObstacle(40, 40, 44, 43)])
        m = ws.monitors.register(OnnQuery((12.0, 10.0), knn=2))
        ws.remove_site("far", (90.0, 90.0))
        assert m.events[-1].action == NO_OP
        assert m.events[-1].delta.empty

    def test_near_update_triggers_maintenance(self):
        points = [("a", (10.0, 10.0)), ("b", (20.0, 12.0))]
        ws = Workspace.from_points(points, [RectObstacle(40, 40, 44, 43)])
        m = ws.monitors.register(ConnQuery(Segment(5, 10, 25, 10)))
        ws.add_site("mid", (15.0, 10.5))
        assert m.events[-1].action in (REPAIR, RERUN)
        assert ("mid", ) in [row[3] for row in m.events[-1].delta.intervals]


class TestSegmentRepair:
    @pytest.mark.parametrize("seed", [2, 13, 31, 57])
    def test_update_storm_stays_exact(self, seed):
        rng = random.Random(seed)
        points, obstacles = random_scene(rng, n_points=12, n_obstacles=8)
        points = list(points)
        obstacles = list(obstacles)
        ws = Workspace.from_points(points, obstacles)
        q = CoknnQuery(random_query(rng), knn=2)
        m = ws.monitors.register(q)
        next_id = 1000
        for _ in range(12):
            roll = rng.random()
            if roll < 0.3 and len(points) > 3:
                pid, xy = points.pop(rng.randrange(len(points)))
                assert ws.remove_site(pid, xy)
            elif roll < 0.55:
                xy = (rng.uniform(0, 100), rng.uniform(0, 100))
                ws.add_site(next_id, xy)
                points.append((next_id, xy))
                next_id += 1
            elif roll < 0.75 and len(obstacles) > 2:
                obs = obstacles.pop(rng.randrange(len(obstacles)))
                assert ws.remove_obstacle(obs)
            else:
                x, y = rng.uniform(0, 92), rng.uniform(0, 92)
                obs = RectObstacle(x, y, x + rng.uniform(1, 7),
                                   y + rng.uniform(1, 5))
                ws.add_obstacle(obs)
                obstacles.append(obs)
            assert_monitor_fresh(m, points, obstacles)
        assert len(m.events) == 12

    def test_local_insert_repairs_partial_span(self):
        """A site insert near one end repairs a strict sub-span."""
        points = [(i, (float(5 + 10 * i), 30.0)) for i in range(10)]
        ws = Workspace.from_points(points, [RectObstacle(48, 24, 52, 28)])
        q = CoknnQuery(Segment(0, 20, 100, 20), knn=1)
        m = ws.monitors.register(q)
        ws.add_site("new", (8.0, 21.0))
        event = m.events[-1]
        assert event.action == REPAIR
        covered = sum(hi - lo for lo, hi in event.spans)
        assert 0.0 < covered < q.segment.length
        assert not event.delta.empty
        assert_monitor_fresh(m, points + [("new", (8.0, 21.0))],
                             [RectObstacle(48, 24, 52, 28)])

    def test_remove_site_repairs_only_its_intervals(self):
        points = [(i, (float(5 + 10 * i), 30.0)) for i in range(10)]
        ws = Workspace.from_points(points, [])
        q = ConnQuery(Segment(0, 20, 100, 20))
        m = ws.monitors.register(q)
        owner_spans = [iv for o, iv in m.result.tuples() if o == 0]
        assert owner_spans
        ws.remove_site(0, (5.0, 30.0))
        event = m.events[-1]
        assert event.action == REPAIR
        assert all(o != 0 for o, _iv in m.result.tuples())
        assert_monitor_fresh(m, points[1:], [])

    def test_obstacle_insert_cutting_paths(self):
        points = [("a", (20.0, 40.0)), ("b", (80.0, 40.0))]
        ws = Workspace.from_points(points, [])
        q = ConnQuery(Segment(10, 10, 90, 10))
        m = ws.monitors.register(q)
        wall = SegmentObstacle(50.0, 5.0, 50.0, 60.0)
        ws.add_obstacle(wall)
        assert m.events[-1].action in (REPAIR, RERUN)
        assert_monitor_fresh(m, points, [wall])


    def test_repair_span_boundary_on_wall_crossing(self):
        """Regression (Hypothesis seed 1004): a repair span whose boundary
        sits exactly on an obstacle-crossing parameter must not let the
        sub-query's endpoint tunnel through the wall.

        Without edge padding, the sub-segment starts exactly on the wall,
        the engine's endpoint node sees both sides (each leg only grazes),
        and the spliced distance undercuts the true obstructed distance.
        """
        rng = random.Random(1004)
        points, obstacles = random_scene(rng, n_points=8, n_obstacles=5)
        points = list(points)
        q = CoknnQuery(random_query(rng), knn=2)
        ws = Workspace.from_points(points, obstacles)
        m = ws.monitors.register(q)
        assert rng.random() < 0.4  # the recorded op pattern: add then remove
        xy = (rng.uniform(0, 100), rng.uniform(0, 100))
        ws.add_site(50000, xy)
        points.append((50000, xy))
        assert 0.4 <= rng.random() < 0.6
        pid, pxy = points.pop(rng.randrange(len(points)))
        assert pid == 50000  # the repair span lands on the wall crossing
        ws.remove_site(pid, pxy)
        assert_monitor_fresh(m, points, obstacles)


class TestPointMonitors:
    def test_onn_delta_reports_displaced_neighbor(self):
        points = [("a", (10.0, 0.0)), ("b", (30.0, 0.0))]
        ws = Workspace.from_points(points, [])
        m = ws.monitors.register(OnnQuery((0.0, 0.0), knn=2))
        assert [p for p, _ in m.result.tuples()] == ["a", "b"]
        ws.add_site("c", (5.0, 0.0))
        event = m.events[-1]
        assert event.action == RERUN
        assert ("c", 5.0) in event.delta.added
        assert [p for p, _ in event.delta.removed] == ["b"]
        assert [p for p, _ in m.result.tuples()] == ["c", "a"]

    def test_range_monitor_membership_changes(self):
        points = [("in", (5.0, 0.0)), ("edge", (12.0, 0.0))]
        ws = Workspace.from_points(points, [])
        m = ws.monitors.register(RangeQuery((0.0, 0.0), 10.0))
        assert [p for p, _ in m.result.tuples()] == ["in"]
        # Outside the radius: provably irrelevant, not even a re-run.
        ws.add_site("far", (25.0, 0.0))
        assert m.events[-1].action == NO_OP
        ws.add_site("close", (3.0, 0.0))
        assert m.events[-1].action == RERUN
        assert ("close", 3.0) in m.events[-1].delta.added
        # A wall pushes the obstructed distance of "in" past the radius.
        wall = SegmentObstacle(4.0, -30.0, 4.0, 30.0)
        ws.add_obstacle(wall)
        assert [p for p, _ in m.events[-1].delta.removed] == ["in"]
        assert_monitor_fresh(
            m, points + [("far", (25.0, 0.0)), ("close", (3.0, 0.0))],
            [wall])

    def test_obstacle_removal_restores_neighbor(self):
        wall = SegmentObstacle(4.0, -30.0, 4.0, 30.0)
        points = [("p", (8.0, 0.0))]
        ws = Workspace.from_points(points, [wall])
        m = ws.monitors.register(OnnQuery((0.0, 0.0), knn=1))
        assert m.result.tuples()[0][1] > 8.0
        ws.remove_obstacle(wall)
        assert m.events[-1].action == RERUN
        assert m.result.tuples()[0][1] == pytest.approx(8.0, abs=1e-9)
        changed = dict(m.events[-1].delta.changed)
        assert changed["p"] == pytest.approx(8.0, abs=1e-9)


class TestRegistry:
    def test_callback_and_unregister(self):
        points = [("a", (10.0, 10.0))]
        ws = Workspace.from_points(points, [])
        seen = []
        m = ws.monitors.register(OnnQuery((0.0, 0.0)), callback=seen.append)
        ws.add_site("b", (5.0, 5.0))
        assert len(seen) == 1 and seen[0].monitor is m
        assert len(ws.monitors) == 1
        assert ws.monitors.unregister(m) is True
        assert ws.monitors.unregister(m) is False
        ws.add_site("c", (1.0, 1.0))
        assert len(seen) == 1  # no further events after unregister
        assert not m.active

    def test_unregister_during_fanout_skips_peer(self):
        """A callback unregistering a peer mid-update must silence it."""
        points = [("a", (10.0, 10.0))]
        ws = Workspace.from_points(points, [])
        second_events = []
        holder = {}

        def first_callback(event):
            ws.monitors.unregister(holder["second"])

        ws.monitors.register(OnnQuery((0.0, 0.0)), callback=first_callback)
        holder["second"] = ws.monitors.register(
            OnnQuery((1.0, 1.0)), callback=second_events.append)
        ws.add_site("b", (2.0, 2.0))
        assert second_events == []
        assert len(ws.monitors) == 1

    def test_join_queries_are_rejected(self):
        points, obstacles = random_scene(random.Random(3), 6, 4)
        ws = Workspace.from_points(points, obstacles)
        other = build_point_tree(points)
        with pytest.raises(ValueError, match="no monitor"):
            ws.monitors.register(SemiJoinQuery(other, other))

    def test_maintenance_stats_accumulate(self):
        points = [("a", (10.0, 10.0)), ("b", (20.0, 12.0))]
        ws = Workspace.from_points(points, [])
        ws.monitors.register(OnnQuery((12.0, 10.0), knn=1))
        ws.add_site("far", (500.0, 500.0))
        ws.add_site("near", (11.5, 10.0))
        stats = ws.monitors.stats
        assert stats.updates == 2
        assert stats.noops == 1
        assert stats.reruns == 1
        assert 0.0 < stats.noop_rate < 1.0

    def test_events_record_workspace_version(self):
        ws = Workspace.from_points([("a", (1.0, 1.0))], [])
        m = ws.monitors.register(OnnQuery((0.0, 0.0)))
        ws.add_site("b", (2.0, 2.0))
        ws.add_site("c", (3.0, 3.0))
        assert [e.workspace_version for e in m.events] == [1, 2]


class TestMonitorOnUnifiedLayout:
    def test_1t_monitor_stays_exact(self):
        rng = random.Random(9)
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
        ws = Workspace.from_points(points, obstacles, layout="1T")
        q = CoknnQuery(random_query(rng), knn=2)
        m = ws.monitors.register(q)
        new_obs = RectObstacle(30, 50, 36, 54)
        ws.add_obstacle(new_obs)
        ws.add_site("x", (55.0, 45.0))
        fresh = Workspace.from_points(
            points + [("x", (55.0, 45.0))], obstacles + [new_obs],
            layout="1T").execute(q)
        ts = np.linspace(0.0, q.segment.length, 151)
        for lv_g, lv_w in zip(m.result.levels, fresh.levels):
            assert same_values(lv_g.values(ts), lv_w.values(ts))


def test_monitor_influence_handles_unreachable_segment():
    """An island query point (influence = inf) must treat every update as
    potentially affecting — and stay exact when the wall opens."""
    # A pinwheel: the walls overlap past the corners, so paths cannot graze
    # out through a shared vertex the way they could with a plain box.
    box = [SegmentObstacle(-2, -1, 2, -1), SegmentObstacle(1, -2, 1, 2),
           SegmentObstacle(2, 1, -2, 1), SegmentObstacle(-1, 2, -1, -2)]
    points = [("out", (10.0, 0.0))]
    ws = Workspace.from_points(points, box)
    m = ws.monitors.register(OnnQuery((0.0, 0.0), knn=1))
    assert m.result.tuples() == [] or \
        math.isinf(m.result.tuples()[0][1])
    ws.remove_obstacle(box[1])  # open the east wall
    assert m.events[-1].action == RERUN
    got = m.result.tuples()
    assert got and got[0][0] == "out" and math.isfinite(got[0][1])


def test_segment_monitor_exact_after_interleaved_batch(rng):
    points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
    ws = Workspace.from_points(points, obstacles)
    q = ConnQuery(random_query(rng))
    m = ws.monitors.register(q)
    from repro import AddObstacle, AddSite, RemoveSite

    new_obs = RectObstacle(25, 60, 31, 64)
    ws.apply([AddSite("s1", 70.0, 20.0), AddObstacle(new_obs),
              RemoveSite(points[4][0], *points[4][1])])
    mutated = [p for p in points if p[0] != points[4][0]]
    mutated.append(("s1", (70.0, 20.0)))
    assert_monitor_fresh(m, mutated, obstacles + [new_obs])


def test_repair_spans_reuse_workspace_backend():
    """Repair spans and reruns run on the workspace-shared routing backend.

    A monitor storm is exactly the correlated workload the shared
    incremental visibility graph exists for: across many repairs the
    workspace builds its shared graph at most once per graph-dropping
    update, every repair span reuses it, and announced obstacle inserts
    are patched in place rather than triggering rebuilds.
    """
    points = [(i, (12.0 * i + 5.0, 48.0)) for i in range(8)]
    obstacles = [RectObstacle(30, 40, 40, 60)]
    ws = Workspace.from_points(points, obstacles)
    seg = Segment(0, 50, 100, 50)
    m = ws.monitors.register(ConnQuery(seg))
    assert ws.routing.stats.sessions == 0  # initial run was a cold one-shot

    maintained = 0
    for i in range(4):
        # Small obstacles right next to the segment: guaranteed affecting.
        ws.add_obstacle(RectObstacle(15.0 + 18.0 * i, 46.0,
                                     17.0 + 18.0 * i, 49.0))
        maintained += 1
        assert m.events[-1].action in (REPAIR, RERUN)
        assert m.result.stats.backend_name == "shared-vg"
    assert maintained == 4

    rs = ws.routing.stats
    assert rs.sessions >= maintained  # every maintenance span attached
    assert rs.graphs_built == 1       # built once, never rebuilt...
    assert rs.graph_reuses >= maintained - 1  # ...and reused across spans
    # Every insert after the shared graph existed was patched in place
    # (the first one preceded the first repair, so no graph existed yet).
    assert rs.patched == maintained - 1
    assert rs.invalidations == 0

    # The standing result stays exact on the shared substrate.
    assert_monitor_fresh(m, points,
                         obstacles + [RectObstacle(15.0 + 18.0 * i, 46.0,
                                                   17.0 + 18.0 * i, 49.0)
                                      for i in range(4)])


def hot_spot_updates(obstacles, n: int, seed: int, next_id: int) -> list:
    """``n`` draws of site and obstacle inserts/removals within 6 units of
    one spot."""
    radius = 6.0
    rng = random.Random(seed)
    hx, hy = rng.uniform(25, 75), rng.uniform(25, 75)
    updates, live_sites, live_obs = [], [], []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.4:
            x = hx + rng.uniform(-radius, radius)
            y = hy + rng.uniform(-radius, radius)
            if any(o.contains_interior(x, y) for o in obstacles):
                continue
            updates.append(AddSite(next_id, x, y))
            live_sites.append((next_id, (x, y)))
            next_id += 1
        elif roll < 0.55 and live_sites:
            pid, (x, y) = live_sites.pop(rng.randrange(len(live_sites)))
            updates.append(RemoveSite(pid, x, y))
        elif roll < 0.85:
            x = hx + rng.uniform(-radius, radius)
            y = hy + rng.uniform(-radius, radius)
            obs = RectObstacle(x, y, x + rng.uniform(0.5, 2.5),
                               y + rng.uniform(0.5, 2.0))
            updates.append(AddObstacle(obs))
            live_obs.append(obs)
        elif live_obs:
            updates.append(RemoveObstacle(
                live_obs.pop(rng.randrange(len(live_obs)))))
    return updates


def test_incremental_maintenance_reads_less_than_recompute():
    """Monitors match recomputing every query cold after every update, and
    read fewer obstacle-tree pages doing it.

    Scene: a 5 x 5 building lattice, 30 sites, 2 CONN and 2 ONN (k=2)
    monitors spread over the city, and 6 site/obstacle updates clustered
    around one hot spot.
    """
    obstacles = building_lattice(5)
    points = lattice_sites(obstacles, 30, seed=7)
    rng = random.Random(8)
    queries = []
    for i in range(4):
        ax, ay = rng.uniform(10, 90), rng.uniform(10, 90)
        if i % 2 == 0:
            bx = min(95.0, ax + rng.uniform(8, 15))
            by = min(95.0, ay + rng.uniform(-6, 6))
            queries.append(ConnQuery(Segment(ax, ay, bx, by)))
        else:
            queries.append(OnnQuery((ax, ay), knn=2))
    updates = hot_spot_updates(obstacles, 6, seed=9, next_id=len(points))
    assert updates

    ws = Workspace.from_points(points, obstacles, page_size=256)
    for q in queries:
        ws.execute(q)
    tracker = ws.obstacle_tree.tracker.stats
    snap = tracker.snapshot()
    recomputed = [ws.execute(q) for q in queries]
    for u in updates:
        ws.apply([u])
        ws.cache.invalidate()
        recomputed = [ws.execute(q) for q in queries]
    recompute_reads = tracker.delta(snap).logical_reads

    ws = Workspace.from_points(points, obstacles, page_size=256)
    monitors = [ws.monitors.register(q) for q in queries]
    tracker = ws.obstacle_tree.tracker.stats
    snap = tracker.snapshot()
    ws.apply(updates)
    incremental_reads = tracker.delta(snap).logical_reads

    for m, res in zip(monitors, recomputed):
        got, want = m.result.tuples(), res.tuples()
        assert [row[0] for row in got] == [row[0] for row in want]
        assert np.ravel([row[1] for row in got]).tolist() == pytest.approx(
            np.ravel([row[1] for row in want]).tolist(), abs=1e-5)
    assert incremental_reads < recompute_reads, \
        (incremental_reads, recompute_reads)
