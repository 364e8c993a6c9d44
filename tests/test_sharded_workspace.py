"""Sharded workspaces: router, border expansion, updates, monitors, stats.

The deterministic counterpart of the Hypothesis equivalence suite
(``test_shard_equivalence.py``): constructed scenes where the expected
routing — which shards are consulted, when the border protocol expands,
when a monitor re-homes — is known in advance, plus the bookkeeping
surfaces (``ShardStats``, ``explain()``, snapshot expiry, border queries
read in place) that randomized equivalence checks cannot pin down.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro import (
    AddObstacle,
    AddSite,
    ClosestPairQuery,
    CoknnQuery,
    ConnQuery,
    EDistanceJoinQuery,
    GridPartitioner,
    OnnQuery,
    QueryStats,
    RangeQuery,
    Rect,
    RectObstacle,
    Segment,
    SemiJoinQuery,
    ShardStats,
    ShardedWorkspace,
    SnapshotExpired,
    TrajectoryQuery,
    Workspace,
    WorkspaceSnapshot,
)
from repro.index import RStarTree
from repro.shard import HilbertPartitioner
from tests.conftest import random_scene

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


def quad_partitioner() -> GridPartitioner:
    return GridPartitioner(BOUNDS, 2, 2)


def build_pair(rng_seed=3, n_points=24, n_obstacles=12, shards=4):
    """An unsharded workspace and its sharded twin over one random scene."""
    rng = random.Random(rng_seed)
    points, obstacles = random_scene(rng, n_points=n_points,
                                     n_obstacles=n_obstacles)
    ws = Workspace.from_points(points, obstacles, layout="2T")
    sws = ShardedWorkspace.from_points(points, obstacles, shards=shards)
    return ws, sws


class TestConstruction:
    def test_sites_partitioned_obstacles_replicated(self):
        points = [(0, (10.0, 10.0)), (1, (90.0, 10.0)), (2, (10.0, 90.0)),
                  (3, (90.0, 90.0))]
        straddler = RectObstacle(45, 45, 55, 55)  # touches all four shards
        local = RectObstacle(10, 20, 14, 24)      # shard 0 only
        sws = ShardedWorkspace.from_points(
            points, [straddler, local], partitioner=quad_partitioner())
        assert [ws.data_tree.size for ws in sws.shards] == [1, 1, 1, 1]
        assert [ws.obstacle_tree.size for ws in sws.shards] == [2, 1, 1, 1]
        assert sws.stats.replicated_obstacles == 3
        assert sws.size == 4

    def test_shard_count_defaults_to_most_square_grid(self):
        ws, sws = build_pair(shards=9)
        assert sws.num_shards == 9
        assert isinstance(sws.partitioner, GridPartitioner)
        assert (sws.partitioner.nx, sws.partitioner.ny) == (3, 3)

    def test_from_workspace_reshards_current_contents(self):
        ws, _ = build_pair()
        sws = ShardedWorkspace.from_workspace(ws, shards=4)
        assert sws.size == ws.data_tree.size
        q = OnnQuery((50, 50), knn=3)
        assert sws.execute(q).tuples() == ws.execute(q).tuples()

    def test_rejects_1t_shards(self):
        points = [(0, (1.0, 1.0))]
        ws_1t = Workspace.from_points(points, [], layout="1T")
        with pytest.raises(ValueError, match="2T"):
            ShardedWorkspace([ws_1t], GridPartitioner(BOUNDS, 1, 1))
        with pytest.raises(ValueError, match="only 2T"):
            ShardedWorkspace.from_workspace(ws_1t)

    def test_shard_count_must_match_partitioner(self):
        ws = Workspace.from_points([(0, (1.0, 1.0))], [])
        with pytest.raises(ValueError, match="expects 4"):
            ShardedWorkspace([ws], quad_partitioner())


class TestRouting:
    def test_local_query_stays_on_one_shard(self):
        points = [(0, (10.0, 10.0)), (1, (12.0, 10.0)), (2, (90.0, 90.0))]
        sws = ShardedWorkspace.from_points(points, [],
                                           partitioner=quad_partitioner())
        result = sws.execute(OnnQuery((10, 10), knn=1))
        block = result.stats.shard
        assert block.fanout == 1
        assert block.border_expansions == 0
        assert set(block.by_shard) == {0}

    def test_border_expansion_crosses_into_neighbor(self):
        # Query point in shard 0; its only NN lives across the x=50 edge.
        points = [(0, (55.0, 10.0)), (1, (90.0, 90.0))]
        sws = ShardedWorkspace.from_points(points, [],
                                           partitioner=quad_partitioner())
        result = sws.execute(OnnQuery((45, 10), knn=1))
        assert result.tuples()[0][0] == 0
        block = result.stats.shard
        assert block.border_expansions >= 1
        assert {0, 1} <= set(block.by_shard)

    def test_expansion_answer_identical_to_unsharded(self):
        ws, sws = build_pair(rng_seed=17)
        # Segment straddling the center: guaranteed multi-shard.
        q = CoknnQuery(Segment(35, 35, 65, 65), 3)
        a, b = ws.execute(q), sws.execute(q)
        assert a.tuples() == b.tuples()
        assert a.knn_intervals() == b.knn_intervals()
        assert b.stats.shard.fanout >= 2

    def test_all_query_kinds_identical(self):
        ws, sws = build_pair(rng_seed=29)
        queries = [
            ConnQuery(Segment(10, 15, 35, 15)),
            CoknnQuery(Segment(40, 40, 60, 70), 2),
            OnnQuery((50, 50), knn=4),
            RangeQuery((30, 60), 22.0),
            TrajectoryQuery(((5, 5), (50, 50), (95, 10)), 2),
        ]
        for q in queries:
            a, b = ws.execute(q), sws.execute(q)
            if isinstance(q, TrajectoryQuery):
                assert [leg.tuples() for leg in a.legs] == \
                       [leg.tuples() for leg in b.legs]
            else:
                assert a.tuples() == b.tuples()

    def test_semi_join_routes_globally(self):
        ws, sws = build_pair(rng_seed=11, n_points=10, n_obstacles=6)
        rng = random.Random(99)
        inner = RStarTree(page_size=256)
        for i in range(6):
            inner.insert_point(1000 + i, rng.uniform(0, 100),
                               rng.uniform(0, 100))
        q = SemiJoinQuery(ws.data_tree, inner)
        a, b = ws.execute(q), sws.execute(q)
        assert a.tuples() == b.tuples()
        assert b.stats.shard.fanout == sws.num_shards

    @pytest.mark.parametrize("kind", ["e-distance", "closest-pair"])
    def test_pair_joins_route_globally(self, kind):
        ws, sws = build_pair(rng_seed=11, n_points=10, n_obstacles=6)
        rng = random.Random(98)
        inner = RStarTree(page_size=256)
        for i in range(6):
            inner.insert_point(1000 + i, rng.uniform(0, 100),
                               rng.uniform(0, 100))
        q = (EDistanceJoinQuery(ws.data_tree, inner, 30.0)
             if kind == "e-distance"
             else ClosestPairQuery(ws.data_tree, inner))
        a, b = ws.execute(q), sws.execute(q)
        assert a.tuples() == b.tuples()
        assert b.stats.shard.fanout == sws.num_shards

    def test_legacy_shortcuts_route(self):
        ws, sws = build_pair(rng_seed=5)
        seg = Segment(20, 20, 70, 30)
        assert sws.conn(seg).tuples() == ws.conn(seg).tuples()
        assert sws.coknn(seg, 2).tuples() == ws.coknn(seg, 2).tuples()
        assert sws.onn(50, 50, k=2)[0] == ws.onn(50, 50, k=2)[0]
        assert sws.range(40, 40, 18.0)[0] == ws.range(40, 40, 18.0)[0]

    def test_stream_preserves_submission_order(self):
        ws, sws = build_pair(rng_seed=7)
        queries = [OnnQuery((20 * i + 5, 30), knn=2, label=f"q{i}")
                   for i in range(4)]
        got = [r.tuples() for r in sws.stream(queries)]
        want = [ws.execute(q).tuples() for q in queries]
        assert got == want

    def test_hilbert_partitioner_identical_too(self):
        rng = random.Random(13)
        points, obstacles = random_scene(rng, n_points=30, n_obstacles=10)
        ws = Workspace.from_points(points, obstacles)
        part = HilbertPartitioner(BOUNDS, 4,
                                  sites=[xy for _p, xy in points], order=4)
        sws = ShardedWorkspace.from_points(points, obstacles,
                                           partitioner=part)
        for q in [OnnQuery((50, 50), knn=3), RangeQuery((25, 70), 20.0),
                  ConnQuery(Segment(10, 80, 80, 20))]:
            assert ws.execute(q).tuples() == sws.execute(q).tuples()


def _refuse(*_args, **_kwargs):
    raise AssertionError("a border query built a workspace or a tree")


class TestBorderRunsInPlace:
    """A multi-shard set is read in place: no merged workspace, no fresh
    tree, and updates land only on the shards they overlap."""

    CENTER = CoknnQuery(Segment(35, 35, 65, 65), 3)  # bbox spans all four

    def test_border_query_builds_no_workspace_or_tree(self, monkeypatch):
        ws, sws = build_pair(rng_seed=17)
        want = ws.execute(self.CENTER)
        for w in sws.shards:  # warm shards would plan their shared graphs
            w.routing.warm()
        monkeypatch.setattr(Workspace, "from_points", _refuse)
        monkeypatch.setattr(RStarTree, "bulk_load", _refuse)
        got = sws.execute(self.CENTER)
        assert got.stats.shard.fanout >= 2
        assert got.tuples() == want.tuples()
        assert got.knn_intervals() == want.knn_intervals()
        assert got.stats.backend_name == "per-query-vg"

    def test_border_plan_builds_no_workspace_or_tree(self, monkeypatch):
        _ws, sws = build_pair(rng_seed=17)
        monkeypatch.setattr(Workspace, "from_points", _refuse)
        monkeypatch.setattr(RStarTree, "bulk_load", _refuse)
        plan = sws.plan(self.CENTER)
        assert plan.est_shard_fanout >= 2

    def test_update_keeps_border_answers_exact(self):
        ws, sws = build_pair(rng_seed=17)
        sws.execute(self.CENTER)
        update = AddSite(777, 52.0, 48.0)
        ws.apply([update])
        sws.apply([update])
        assert ws.execute(self.CENTER).tuples() == \
               sws.execute(self.CENTER).tuples()

    def test_obstacle_update_reaches_overlapped_shards_only(self,
                                                            monkeypatch):
        _ws, sws = build_pair(rng_seed=17)
        sws.execute(self.CENTER)  # border runs leave nothing to update
        seen = []
        apply_one = Workspace._apply_one

        def record(self, update):
            seen.append(self)
            return apply_one(self, update)

        monkeypatch.setattr(Workspace, "_apply_one", record)
        for update in (AddObstacle(RectObstacle(44, 20, 56, 24)),
                       AddObstacle(RectObstacle(10, 10, 12, 12))):
            seen.clear()
            sws.apply([update])
            sids = sws.partitioner.shards_for_rect(update.obstacle.mbr())
            assert [id(w) for w in seen] == \
                   [id(sws.shards[sid]) for sid in sorted(sids)]

    def test_border_reads_charged_to_member_trackers(self):
        _ws, sws = build_pair(rng_seed=17)
        data = [w.data_tree.tracker for w in sws.shards]
        obstacles = [w.obstacle_tree.tracker for w in sws.shards]
        trackers = data + obstacles
        assert len({id(t) for t in trackers}) == len(trackers)
        before = [t.local_stats.snapshot() for t in trackers]
        result = sws.execute(self.CENTER)
        assert result.stats.shard.fanout == sws.num_shards
        assert result.stats.shard.border_expansions == 0
        reads = [t.local_stats.delta(snap).logical_reads
                 for t, snap in zip(trackers, before)]
        assert sum(reads) > 0
        assert result.stats.io.logical_reads == sum(reads)
        assert result.stats.obstacle_reads == sum(reads[len(data):])


class TestUpdates:
    def test_site_update_routes_to_owner_only(self):
        points = [(0, (10.0, 10.0)), (1, (90.0, 90.0))]
        sws = ShardedWorkspace.from_points(points, [],
                                           partitioner=quad_partitioner())
        sizes = [w.data_tree.size for w in sws.shards]
        assert sws.add_site(7, 80, 20)  # shard 1
        assert [w.data_tree.size for w in sws.shards] == \
               [sizes[0], sizes[1] + 1, sizes[2], sizes[3]]
        assert sws.remove_site(7, 80, 20)
        assert not sws.remove_site(7, 80, 20)

    def test_obstacle_replicas_stay_in_lockstep(self):
        points = [(0, (10.0, 10.0)), (1, (90.0, 90.0))]
        sws = ShardedWorkspace.from_points(points, [],
                                           partitioner=quad_partitioner())
        straddler = RectObstacle(40, 40, 60, 60)
        assert sws.add_obstacle(straddler)
        assert [w.obstacle_tree.size for w in sws.shards] == [1, 1, 1, 1]
        assert sws.stats.replicated_obstacles == 3
        assert sws.remove_obstacle(straddler)
        assert [w.obstacle_tree.size for w in sws.shards] == [0, 0, 0, 0]
        assert sws.stats.replicated_obstacles == 0
        assert not sws.remove_obstacle(straddler)

    def test_version_bumps_once_per_applied_update(self):
        ws, sws = build_pair()
        v = sws.version
        sws.add_obstacle(RectObstacle(40, 40, 60, 60))
        assert sws.version == v + 1
        assert not sws.remove_site(424242, 1, 1)  # no-match: no bump
        assert sws.version == v + 1

    def test_interleaved_updates_preserve_equivalence(self):
        ws, sws = build_pair(rng_seed=43)
        rng = random.Random(4)
        q = CoknnQuery(Segment(20, 50, 80, 50), 2)
        for step in range(6):
            x, y = rng.uniform(5, 95), rng.uniform(5, 95)
            if step % 2:
                update = AddSite(900 + step, x, y)
            else:
                update = AddObstacle(RectObstacle(x, y, x + 3, y + 2))
            ws.apply([update])
            sws.apply([update])
            assert ws.execute(q).tuples() == sws.execute(q).tuples()


class TestMonitors:
    def test_monitor_results_and_deltas_match_unsharded(self):
        ws, sws = build_pair(rng_seed=19)
        q = OnnQuery((50, 50), knn=3)
        m_plain = ws.monitors.register(q)
        m_shard = sws.monitors.register(q)
        events = []
        sws.monitors.register(RangeQuery((40, 60), 18.0),
                              callback=events.append)
        for update in [AddSite(800, 51.0, 52.0), AddSite(801, 10.0, 10.0),
                       AddObstacle(RectObstacle(48, 48, 52, 52))]:
            ws.apply([update])
            sws.apply([update])
            assert m_plain.result.tuples() == m_shard.result.tuples()
            ep, es = m_plain.events[-1], m_shard.events[-1]
            assert (ep.delta.added, ep.delta.removed, ep.delta.changed) == \
                   (es.delta.added, es.delta.removed, es.delta.changed)
        assert len(events) == 3  # callback saw every update
        assert len(sws.monitors) == 2
        assert sws.monitors.stats.updates == 3

    def test_monitor_pinned_home_and_rehome(self):
        points = [(0, (12.0, 10.0)), (1, (60.0, 10.0))]
        sws = ShardedWorkspace.from_points(points, [],
                                           partitioner=quad_partitioner())
        monitor = sws.monitors.register(OnnQuery((10, 10), knn=1))
        assert monitor.home == {0}  # NN two units away: ball stays local
        rehomes = sws.stats.rehomes
        sws.remove_site(0, 12, 10)  # NN now across the x=50 border
        assert monitor.result.tuples()[0][0] == 1
        assert 1 in monitor.home
        assert sws.stats.rehomes == rehomes + 1

    def test_far_update_dismissed_without_rerun(self):
        points = [(0, (12.0, 10.0)), (1, (90.0, 90.0))]
        sws = ShardedWorkspace.from_points(points, [],
                                           partitioner=quad_partitioner())
        sws.monitors.register(OnnQuery((10, 10), knn=1))
        sws.add_site(5, 95, 95)  # far outside the influence ball
        assert sws.monitors.stats.noops == 1
        assert sws.monitors.stats.reruns == 0

    def test_unregister_stops_maintenance(self):
        ws, sws = build_pair()
        monitor = sws.monitors.register(OnnQuery((50, 50), knn=2))
        assert sws.monitors.unregister(monitor)
        assert not sws.monitors.unregister(monitor.id)
        sws.add_site(888, 50.5, 50.5)
        assert len(monitor.events) == 0

    def test_rejects_unmonitorable_queries(self):
        ws, sws = build_pair()
        with pytest.raises(ValueError, match="no monitor"):
            sws.monitors.register(
                TrajectoryQuery(((0, 0), (10, 10)), 1))


class TestSnapshots:
    def test_snapshot_expires_on_any_shard_mutation(self):
        ws, sws = build_pair()
        snap = sws.snapshot()
        assert isinstance(snap, WorkspaceSnapshot)
        assert not snap.expired
        snap.execute(OnnQuery((20, 20), knn=2))
        sws.add_site(999, 21.0, 21.0)
        assert snap.expired
        with pytest.raises(SnapshotExpired):
            snap.execute(OnnQuery((20, 20), knn=2))
        assert sws.snapshots_taken == 1

    @pytest.mark.parametrize("tree", ["data_tree", "obstacle_tree"])
    def test_snapshot_pins_shard_trees(self, tree):
        """An unannounced mutation of a shard's tree expires a sharded
        snapshot, as it does a plain workspace's."""
        _ws, sws = build_pair()
        snap = sws.snapshot()
        target = getattr(sws.shards[0], tree)
        if tree == "data_tree":
            target.insert_point(999, 10.0, 10.0)
        else:
            wall = RectObstacle(1.0, 1.0, 2.0, 2.0)
            target.insert(wall, wall.mbr())
        assert sws.version == snap.workspace_version
        assert snap.expired
        with pytest.raises(SnapshotExpired):
            snap.execute(OnnQuery((20, 20), knn=2))

    def test_snapshot_execute_many(self):
        ws, sws = build_pair()
        queries = [OnnQuery((25, 25), knn=2), RangeQuery((60, 60), 15.0)]
        snap = sws.snapshot()
        got = [r.tuples() for r in snap.execute_many(queries)]
        want = [ws.execute(q).tuples() for q in queries]
        assert got == want


def plan_scene():
    """An unsharded workspace and its 2x2 twin with known home sets."""
    points = [(0, (10.0, 10.0)), (1, (12.0, 10.0)), (2, (45.0, 12.0)),
              (3, (55.0, 12.0)), (4, (90.0, 90.0))]
    ws = Workspace.from_points(points, [])
    sws = ShardedWorkspace.from_points(points, [],
                                       partitioner=quad_partitioner())
    return ws, sws


def count_plans(monkeypatch):
    """Record the (shard set, backend pin) of every router plan."""
    calls = []
    plan = ShardedWorkspace._plan

    def counting(self, sids, query, backend):
        calls.append((sids, backend))
        return plan(self, sids, query, backend)

    monkeypatch.setattr(ShardedWorkspace, "_plan", counting)
    return calls


PLAN_CASES = [
    # (query, its home shards, a new site in the home set's last shard)
    (OnnQuery((10, 10), knn=1), {0}, (11.0, 11.0)),
    (ConnQuery(Segment(40, 10, 60, 10)), {0, 1}, (70.0, 20.0)),
]


class TestPlanOnce:
    @pytest.mark.parametrize("query, home, _site", PLAN_CASES)
    def test_current_plan_runs_as_planned(self, monkeypatch, query, home,
                                          _site):
        ws, sws = plan_scene()
        calls = count_plans(monkeypatch)
        result = sws.execute(sws.plan(query))
        assert calls == [(frozenset(home), None)]
        assert result.stats.shard.border_expansions == 0
        assert result.tuples() == ws.execute(query).tuples()

    @pytest.mark.parametrize("query, home, site", PLAN_CASES)
    def test_stale_plan_replans_under_its_pin(self, monkeypatch, query,
                                              home, site):
        ws, sws = plan_scene()
        plan = sws.plan(query, backend="shared")
        assert ws.add_site(99, *site) and sws.add_site(99, *site)
        calls = count_plans(monkeypatch)
        result = sws.execute(plan)
        # A border plan is pinned per-query (see ShardedWorkspace._plan).
        assert calls == [(frozenset(home), plan.backend_override)]
        assert plan.backend_override == ("shared" if len(home) == 1
                                         else "per-query")
        assert result.tuples() == ws.execute(query).tuples()


class TestFrontParity:
    """The front both classes share answers the same on both."""

    def test_shared_front_matches_unsharded(self):
        ws, sws = build_pair(rng_seed=9)
        seg = Segment(20, 20, 70, 30)
        walk = ((10.0, 10.0), (40.0, 60.0), (80.0, 70.0))
        queries = [ConnQuery(seg), CoknnQuery(seg, 2),
                   OnnQuery((50, 50), knn=2), RangeQuery((40, 40), 18.0),
                   TrajectoryQuery(walk, 2)]

        def front(w):
            out = [w.conn(seg).tuples(), w.coknn(seg, 2).tuples(),
                   w.onn(50, 50, k=2)[0], w.range(40, 40, 18.0)[0],
                   w.trajectory(walk, 2).tuples()]
            out += [r.tuples() for r in w.stream(queries)]
            with w.service.serve(workers=2) as svc:
                futures = [svc.submit(q) for q in queries]
                out += [f.result(timeout=120).tuples() for f in futures]
            snap = w.snapshot()
            out += [snap.execute(q).tuples() for q in queries]
            out += [r.tuples() for r in snap.execute_many(queries)]
            out += [r.tuples()
                    for r in snap.execute_many(queries, workers=2)]
            return out

        def updates(w):
            wall = RectObstacle(47.0, 47.0, 47.5, 47.5)
            return [w.add_site(900, 30.0, 30.0),
                    w.remove_site(900, 30.0, 30.0),
                    w.remove_site(900, 30.0, 30.0),
                    w.add_obstacle(wall), w.remove_obstacle(wall),
                    w.remove_obstacle(wall), w.add_site(901, 52.0, 48.0)]

        assert front(sws) == front(ws)
        assert updates(sws) == updates(ws) == [True, True, False, True,
                                               True, False, True]
        assert front(sws) == front(ws)
        assert sws.snapshots_taken == ws.snapshots_taken == 2

    def test_epoch_waits_count_blocked_updates(self):
        ws, sws = build_pair()
        for w in (ws, sws):
            writer = threading.Thread(target=w.add_site,
                                      args=(902, 30.0, 30.0))
            with w.read_lock():
                writer.start()
                deadline = time.monotonic() + 60
                while w.epoch_waits == 0 and time.monotonic() < deadline:
                    time.sleep(0.001)
            writer.join(timeout=60)
            assert not writer.is_alive()
        assert sws.epoch_waits == ws.epoch_waits == 1
        assert sws.onn(30, 30)[0] == ws.onn(30, 30)[0]


class TestExecuteMany:
    @pytest.mark.parametrize("mode", ["thread", "fork"])
    def test_parallel_matches_serial_and_unsharded(self, mode):
        ws, sws = build_pair(rng_seed=31, n_points=30)
        rng = random.Random(8)
        queries = [OnnQuery((rng.uniform(5, 95), rng.uniform(5, 95)), knn=2,
                            label=f"q{i}") for i in range(10)]
        queries.append(RangeQuery((50, 50), 20.0))
        want = [ws.execute(q).tuples() for q in queries]
        serial = [r.tuples() for r in sws.execute_many(queries)]
        parallel = [r.tuples()
                    for r in sws.execute_many(queries, workers=3, mode=mode)]
        assert serial == want
        assert parallel == want

    def test_every_result_carries_shard_block(self):
        ws, sws = build_pair()
        results = sws.execute_many(
            [OnnQuery((20, 20), knn=1), OnnQuery((80, 80), knn=1)],
            workers=2, mode="thread")
        for r in results:
            assert isinstance(r.stats.shard, ShardStats)
            assert r.stats.shard.queries == 1

    def test_rejects_unknown_mode(self):
        ws, sws = build_pair()
        with pytest.raises(ValueError, match="unknown mode"):
            sws.execute_many([OnnQuery((1, 1), knn=1)], workers=2,
                             mode="greenlet")


class TestStatsAndExplain:
    def test_cumulative_stats_accumulate(self):
        ws, sws = build_pair(rng_seed=17)
        sws.execute(OnnQuery((10, 10), knn=1))
        sws.execute(CoknnQuery(Segment(35, 35, 65, 65), 3))
        s = sws.stats
        assert s.queries == 2
        assert s.fanout >= 2
        assert s.fanout_ratio >= 1.0
        assert sum(s.by_shard.values()) == s.fanout
        text = s.describe()
        assert "2 queries" in text and "fan-out" in text

    def test_query_stats_merge_carries_shard_block(self):
        ws, sws = build_pair()
        total = QueryStats()
        for q in [OnnQuery((20, 20), knn=1), OnnQuery((80, 80), knn=1)]:
            total.merge(sws.execute(q).stats)
        assert total.shard is not None
        assert total.shard.queries == 2
        plain = QueryStats()
        plain.merge(ws.execute(OnnQuery((20, 20), knn=1)).stats)
        assert plain.shard is None  # unsharded stats stay shard-free

    def test_plan_reports_fanout_and_explain_line(self):
        ws, sws = build_pair(rng_seed=17)
        plan = sws.plan(CoknnQuery(Segment(35, 35, 65, 65), 3))
        assert plan.est_shard_fanout >= 2
        text = plan.explain()
        assert "shards" in text and "fan-out" in text
        assert any("sharded: home shard(s)" in note for note in plan.notes)
        assert any("border run: a per-query graph over 4 shards' feeds"
                   in note for note in plan.notes)
        assert plan.backend == "per-query-vg"
        unsharded_plan = ws.plan(CoknnQuery(Segment(35, 35, 65, 65), 3))
        assert unsharded_plan.est_shard_fanout == 0
        assert "shards" not in unsharded_plan.explain()

    def test_border_plan_estimates_cover_every_member(self):
        _ws, sws = build_pair(rng_seed=17)
        q = CoknnQuery(Segment(35, 35, 65, 65), 3)
        members = [sws.shards[sid] for sid in sorted(sws._initial_shards(q))]
        assert len(members) == 4
        cold = sws.plan(q)
        singles = [m.plan(q, backend="per-query") for m in members]
        assert not cold.warm
        assert cold.est_obstacle_io == \
            sum(p.est_obstacle_io for p in singles) > singles[0].est_obstacle_io
        sws.prefetch_all()
        warm = sws.plan(q)
        caches = [set(m.cache.obstacles) for m in members]
        assert [len(c) for c in caches] == [0, 4, 3, 6]
        assert warm.cached_obstacles == len(set().union(*caches))
        assert warm.capsules == sum(m.cache.coverage_regions
                                    for m in members)
        assert warm.warm and warm.est_obstacle_io == 0
        # One member left uncovered makes the whole plan cold.
        members[2].cache.invalidate()
        partly = sws.plan(q)
        assert not partly.warm
        assert partly.est_obstacle_io == \
            members[2].plan(q, backend="per-query").est_obstacle_io > 0

    def test_single_shard_plan_is_the_shards_own(self):
        _ws, sws = build_pair(rng_seed=17)
        q = OnnQuery((10, 10), knn=1)
        (sid,) = sws._initial_shards(q)
        got, want = sws.plan(q), sws.shards[sid].plan(q)
        assert (got.cached_obstacles, got.capsules, got.warm,
                got.est_obstacle_io) == \
            (want.cached_obstacles, want.capsules, want.warm,
             want.est_obstacle_io)

    def test_stats_describe_empty(self):
        assert ShardStats().describe() == "no sharded queries yet"
