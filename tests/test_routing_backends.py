"""Routing backends: protocol, sessions, sharing, maintenance, planning.

Contract under test:

* **Parity** — a session (per-query or shared) reports the same results
  and the same paper metrics (NOE, |SVG|) as the seed's raw per-query
  local visibility graph;
* **Sharing** — the shared backend builds its graph once and reuses it
  across a warm workload, with zero rebuilds on a static obstacle set;
* **Maintenance** — announced inserts patch the shared graph in place,
  announced removals and unannounced tree mutations drop it (never a
  stale serve), and rebuilds are lazy;
* **Planning** — ``auto`` picks per-query for cold one-shots and the
  shared graph when warm, forced choices are honored, and ``explain()``
  names the selection and quotes its counters as of plan time;
* **Conservation** — each query's counter block is exactly the change it
  made to its backend's totals, and maintenance work is charged to the
  backend alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import fields, replace

import numpy as np
import pytest

from repro import (
    AddObstacle,
    BackendStats,
    ConnQuery,
    OnnQuery,
    PerQueryVGBackend,
    RangeQuery,
    RectObstacle,
    RemoveObstacle,
    SegmentObstacle,
    SharedVGBackend,
    Workspace,
    build_unified_tree,
)
from repro.core.stats import QueryStats
from repro.geometry import Segment
from repro.obstacles import LocalVisibilityGraph
from repro.routing import ArrayTraversal, ObstructedDistanceBackend
from tests.conftest import (
    build_obstacle_tree,
    build_point_tree,
    building_lattice,
    lattice_sites,
    random_query,
    random_scene,
    same_values,
)

SEG = Segment(0, 50, 100, 50)
OBS = [RectObstacle(30, 40, 40, 60), RectObstacle(55, 30, 60, 70)]
POINTS = [(i, (12.0 * i + 5.0, 48.0)) for i in range(8)]


def make_ws(points=POINTS, obstacles=OBS, **kwargs):
    return Workspace.from_points(points, obstacles, **kwargs)


def assert_same_result(a, b, qseg):
    ts = np.linspace(0.0, qseg.length, 101)
    for lv_a, lv_b in zip(a.levels, b.levels):
        assert same_values(lv_a.values(ts), lv_b.values(ts))
    assert [o for o, _iv in a.tuples()] == [o for o, _iv in b.tuples()]


def flat_rows(adj):
    """A dict-of-weights adjacency list as an ``ArrayTraversal`` row source."""
    rows = [(np.array(list(row), dtype=np.int64),
             np.array(list(row.values()), dtype=np.float64)) for row in adj]
    return rows.__getitem__


class TestTraversal:
    def test_resume_after_early_stop(self):
        adj = [{1: 1.0}, {0: 1.0, 2: 1.0}, {1: 1.0, 3: 5.0}, {2: 5.0}]
        t = ArrayTraversal(flat_rows(adj), 0, len(adj))
        first = t.advance()
        assert first == (0.0, 0, None)
        # A second consumer replays the prefix and extends the frontier.
        order = [node for _d, node, _p in t.order()]
        assert order == [0, 1, 2, 3]
        assert t.dist[3] == pytest.approx(7.0)

    def test_skip_predicate_blocks_relaxation(self):
        # The alive mask is the traversal's skip predicate: a node dead at
        # relaxation time is never relaxed.
        adj = [{1: 1.0, 2: 10.0}, {0: 1.0, 2: 1.0}, {0: 10.0, 1: 1.0}]
        alive = np.array([True, False, True])
        t = ArrayTraversal(flat_rows(adj), 0, len(adj), alive=lambda: alive)
        t.run_to_completion()
        assert not np.isfinite(t.dist[1])
        assert t.dist[2] == pytest.approx(10.0)  # forced the long way


class TestSessionParity:
    """Backend sessions must match the raw graph the seed engine used."""

    def test_per_query_session_matches_raw_graph(self):
        raw = LocalVisibilityGraph(SEG)
        raw.add_obstacles(OBS)
        want = raw.shortest_distances(raw.S, [raw.E])[raw.E]

        backend = PerQueryVGBackend()
        with backend.attach_endpoints(SEG) as session:
            assert session.add_obstacles(OBS) == len(OBS)
            got = session.shortest_distances(session.S,
                                             [session.E])[session.E]
        assert got == pytest.approx(want, abs=1e-9)
        assert backend.stats.sessions == 1
        assert backend.stats.graphs_built == 1

    def test_shared_session_counts_admission_per_query(self):
        """NOE/|SVG| parity: resident obstacles still count per session."""
        ot = build_obstacle_tree(OBS)
        backend = SharedVGBackend(ot)
        for _round in range(2):
            with backend.attach_endpoints(SEG) as session:
                assert session.add_obstacles(OBS) == len(OBS)
                assert session.add_obstacles(OBS) == 0  # re-offer, same query
                assert session.svg_size == 2 + 4 + 4
        assert backend.stats.graphs_built == 1
        assert backend.stats.graph_reuses == 1

    def test_stats_flushed_into_query_stats(self):
        backend = PerQueryVGBackend()
        qs = QueryStats()
        with backend.attach_endpoints(SEG, qs) as session:
            session.add_obstacles(OBS)
            session.shortest_distances(session.S, [session.E])
        assert qs.backend_name == "per-query-vg"
        assert qs.backend.sessions == 1
        assert qs.backend.dijkstra_runs >= 1
        assert qs.backend.nodes_settled > 0
        assert qs.backend.visibility_tests > 0

    def test_dijkstra_order_delegation(self):
        raw = LocalVisibilityGraph(SEG)
        raw.add_obstacles(OBS)
        want = list(raw.dijkstra_order(raw.S))
        backend = PerQueryVGBackend()
        with backend.attach_endpoints(SEG) as session:
            session.add_obstacles(OBS)
            assert list(session.dijkstra_order(session.S)) == want


class TestSharedGraphLifecycle:
    def test_zero_rebuilds_on_static_warm_workload(self):
        ws = make_ws()
        ws.prefetch_all()
        rng = random.Random(5)
        for _ in range(12):
            ws.conn(random_query(rng, min_length=10.0))
        assert ws.routing.stats.graphs_built == 1
        assert ws.routing.stats.graph_reuses == 11
        assert ws.routing.stats.invalidations == 0

    def test_monitor_storm_reuses_the_shared_graph(self):
        """A storm of monitor repairs runs on fewer shared-graph builds than
        repair sessions.

        Scene: a 9 x 9 building lattice, 50 sites, 2 CONN monitors near
        the centre and 4 site/obstacle updates clustered around it.
        """
        obstacles = building_lattice(9)
        ws = make_ws(lattice_sites(obstacles, 50, seed=11), obstacles,
                     page_size=256, backend="shared")
        rng = random.Random(14)
        for _ in range(2):
            ax, ay = rng.uniform(35, 65), rng.uniform(42, 58)
            seg = Segment(ax, ay, min(95.0, ax + rng.uniform(10, 18)), ay)
            ws.monitors.register(ConnQuery(seg))
        rng = random.Random(13)
        live, next_id = [], 100_000
        for _ in range(4):
            roll = rng.random()
            x, y = 50.0 + rng.uniform(-8, 8), 50.0 + rng.uniform(-8, 8)
            if roll < 0.5 and not any(o.contains_interior(x, y)
                                      for o in obstacles):
                ws.add_site(next_id, x, y)
                live.append((next_id, (x, y)))
                next_id += 1
            elif roll < 0.7 and live:
                ws.remove_site(*live.pop(rng.randrange(len(live))))
            else:
                ws.add_obstacle(RectObstacle(x, y, x + rng.uniform(0.4, 1.5),
                                             y + rng.uniform(0.4, 1.2)))
        stats = ws.routing.stats
        assert stats.sessions > 0
        assert stats.graphs_built < stats.sessions

    def test_insert_patches_graph_in_place(self):
        ws = make_ws()
        ws.prefetch_all()
        ws.conn(SEG)  # builds the shared graph
        built = ws.routing.stats.graphs_built
        new_obs = RectObstacle(70, 45, 75, 55)
        assert ws.add_obstacle(new_obs)
        assert ws.routing.stats.patched == 1
        assert ws.routing.stats.graphs_built == built  # no rebuild
        got = ws.execute(ws.plan(ConnQuery(SEG), backend="shared"))
        want = Workspace.from_points(
            POINTS, [*OBS, new_obs]).conn(SEG)
        assert_same_result(got, want, SEG)
        assert ws.routing.stats.graphs_built == built

    def test_remove_repairs_graph_in_place(self):
        ws = make_ws()
        ws.prefetch_all()
        ws.conn(SEG)
        assert ws.routing.ready
        built = ws.routing.stats.graphs_built
        assert ws.remove_obstacle(OBS[0])
        # Surgical repair: the graph survives, nothing is invalidated,
        # and the removal shows up in the repair counters.
        assert ws.routing.stats.invalidations == 0
        assert ws.routing.stats.graph_repairs >= 1
        assert ws.routing.ready  # still resident, repaired in place
        got = ws.execute(ws.plan(ConnQuery(SEG), backend="shared"))
        want = Workspace.from_points(POINTS, OBS[1:]).conn(SEG)
        assert_same_result(got, want, SEG)
        assert ws.routing.stats.graphs_built == built  # no rebuild

    def test_unannounced_tree_mutation_invalidates_at_attach(self):
        ws = make_ws()
        ws.prefetch_all()
        ws.conn(SEG)
        assert ws.routing.ready
        sneaky = RectObstacle(48, 20, 52, 80)
        ws.obstacle_tree.insert(sneaky, sneaky.mbr())  # behind the back
        got = ws.execute(ws.plan(ConnQuery(SEG), backend="shared"))
        want = Workspace.from_points(POINTS, [*OBS, sneaky]).conn(SEG)
        assert_same_result(got, want, SEG)
        assert ws.routing.stats.invalidations == 1

    def test_1t_site_updates_do_not_invalidate(self):
        tree = build_unified_tree(POINTS, OBS, page_size=256)
        ws = Workspace.from_unified(tree)
        ws.conn(SEG)
        ws.execute(ws.plan(ConnQuery(SEG), backend="shared"))
        assert ws.routing.ready
        ws.add_site(99, (50.0, 52.0))
        got = ws.execute(ws.plan(ConnQuery(SEG), backend="shared"))
        assert ws.routing.stats.invalidations == 0
        want = Workspace.from_points(
            [*POINTS, (99, (50.0, 52.0))], OBS, layout="1T").conn(SEG)
        assert_same_result(got, want, SEG)

    def test_nested_attach_gets_its_own_graph(self):
        """A second attach while the primary is busy (a nested sub-query or
        a concurrent worker) is served by its own spawned graph — never by
        the graph another session is mutating."""
        ot = build_obstacle_tree(OBS)
        backend = SharedVGBackend(ot)
        outer = backend.attach_endpoints(SEG)
        inner = backend.attach_endpoints(Segment(0, 10, 100, 10))
        assert outer.shared and inner.shared
        assert inner.graph is not outer.graph
        assert outer.graph is backend._graph
        inner.detach()
        assert outer.graph.qseg is not None  # outer still bound
        assert backend.pooled_graphs == 1  # inner's graph returned to pool
        outer.detach()
        assert backend.stats.graph_spawns == 1
        # The pooled spare is reused by the next concurrent pair, not
        # rebuilt.
        outer = backend.attach_endpoints(SEG)
        inner = backend.attach_endpoints(Segment(0, 10, 100, 10))
        assert backend.stats.graph_spawns == 1
        inner.detach()
        outer.detach()

    def test_dead_slots_stay_bounded_over_long_workloads(self):
        """Compaction keeps a long-lived shared graph O(skeleton), not
        O(queries ever served) — with identical answers throughout."""
        ws = make_ws()
        ws.prefetch_all()
        want = ws.conn(SEG).tuples()
        rng = random.Random(9)
        for _ in range(60):
            ws.conn(random_query(rng, min_length=10.0))
            ws.onn(rng.uniform(10, 90), rng.uniform(10, 90), k=2)
        graph = ws.routing._graph
        assert graph is not None
        assert ws.routing.stats.compactions > 0
        assert graph.dead_slots <= max(64, graph.num_nodes) + 4
        assert ws.conn(SEG).tuples() == want  # still exact after compaction

    def test_compact_preserves_cached_rows_and_distances(self):
        g = LocalVisibilityGraph(obstacles=OBS)
        g.bind(SEG)
        d_before = g.shortest_distances(g.S, [g.E])[g.E]
        g.unbind()
        for i in range(80):  # grow a dead-slot history
            p = g.add_point(float(i), 10.0)
            g.remove_point(p)
        vt_before = g.work.visibility_tests
        assert g.compact() == 82  # 80 dead points + the 2 unbound endpoints
        assert g.dead_slots == 0
        g.bind(SEG)
        d_after = g.shortest_distances(g.S, [g.E])[g.E]
        assert d_after == pytest.approx(d_before, abs=1e-9)
        # The skeleton rows survived: only edges to the two fresh endpoints
        # needed visibility tests, not the whole pairwise skeleton.
        assert g.work.visibility_tests - vt_before < vt_before
        g.unbind()

    def test_stale_plan_replan_keeps_backend_pin(self):
        ws = make_ws()
        plan = ws.plan(ConnQuery(SEG), backend="shared")
        assert plan.backend == "shared-vg"
        ws.add_site(500, (70.0, 30.0))  # stale: forces a re-plan
        res = ws.execute(plan)
        assert res.stats.backend_name == "shared-vg"
        pinned_per = ws.plan(ConnQuery(SEG), backend="per-query")
        ws.add_site(501, (72.0, 30.0))
        assert ws.execute(pinned_per).stats.backend_name == "per-query-vg"

    def test_monitor_respects_per_query_alias(self):
        for policy in ("per-query", "per-query-vg"):
            ws = make_ws(backend=policy)
            m = ws.monitors.register(ConnQuery(SEG))
            ws.add_obstacle(RectObstacle(20.0, 46.0, 22.0, 49.0))
            assert m.result.stats.backend_name == "per-query-vg"
            assert ws.routing.stats.sessions == 0

    def test_bind_unbind_guards(self):
        g = LocalVisibilityGraph(SEG)
        with pytest.raises(RuntimeError):
            g.bind(SEG)  # anchored at construction
        with pytest.raises(RuntimeError):
            g.unbind()  # endpoints are permanent
        shared = LocalVisibilityGraph()
        with pytest.raises(RuntimeError):
            shared.unbind()  # not bound yet
        shared.bind(SEG)
        shared.unbind()
        shared.bind(Segment(0, 0, 10, 10))  # rebinding works
        assert shared.qseg is not None


class TestTraversalMemo:
    def test_repeated_shortest_path_replays(self):
        vg = LocalVisibilityGraph(SEG, obstacles=OBS)
        d1, p1 = vg.shortest_path(vg.S, vg.E)
        runs = vg.work.dijkstra_runs
        d2, p2 = vg.shortest_path(vg.S, vg.E)
        assert (d1, p1) == (d2, p2)
        assert vg.work.dijkstra_runs == runs  # no fresh traversal
        assert vg.work.dijkstra_replays >= 1

    def test_mutation_invalidates_memo(self):
        vg = LocalVisibilityGraph(SEG, obstacles=OBS[:1])
        d1, _ = vg.shortest_path(vg.S, vg.E)
        vg.add_obstacles(OBS[1:])
        d2, _ = vg.shortest_path(vg.S, vg.E)
        assert d2 > d1  # the new wall lengthens the detour
        assert vg.work.dijkstra_runs >= 2

    def test_removed_transient_never_served_from_memo(self):
        vg = LocalVisibilityGraph(SEG, obstacles=OBS)
        p = vg.add_point(50.0, 45.0)
        vg.shortest_distances(vg.S, [p])
        vg.remove_point(p)
        settled = {node for _d, node, _p in vg.dijkstra_order(vg.S)}
        assert p not in settled


class TestPlannerSelection:
    def test_auto_cold_picks_per_query(self):
        ws = make_ws()
        plan = ws.plan(ConnQuery(SEG))
        assert plan.backend == "per-query-vg"
        assert plan.est_graph_builds == 1

    def test_auto_warm_picks_shared(self):
        ws = make_ws()
        ws.prefetch_all()
        plan = ws.plan(ConnQuery(SEG))
        assert plan.backend == "shared-vg"
        ws.execute(plan)
        after = ws.plan(ConnQuery(SEG))
        assert after.backend == "shared-vg"
        assert after.est_graph_builds == 0  # resident now
        assert any("resident" in n for n in after.notes)

    def test_forced_options_and_overrides(self):
        ws = make_ws(backend="shared")
        assert ws.plan(ConnQuery(SEG)).backend == "shared-vg"
        assert ws.plan(ConnQuery(SEG),
                       backend="per-query").backend == "per-query-vg"
        with pytest.raises(ValueError):
            ws.plan(ConnQuery(SEG), backend="bogus")

    def test_explain_names_backend(self):
        ws = make_ws()
        text = ws.plan(ConnQuery(SEG)).explain()
        assert "backend   : per-query-vg" in text
        ws.prefetch_all()
        warm = ws.plan(OnnQuery((50, 50), knn=2)).explain()
        assert "backend   : shared-vg" in warm

    def test_joins_report_pairwise_backend(self):
        ws = make_ws()
        from repro import SemiJoinQuery

        other = build_point_tree([(100 + i, (9.0 * i, 60.0))
                                  for i in range(4)])
        plan = ws.plan(SemiJoinQuery(ws.data_tree, other))
        assert plan.backend == "pairwise-vg"
        assert "backend   : pairwise-vg" in plan.explain()

    @staticmethod
    def counter_lines(text):
        return [line for line in text.splitlines()
                if line.startswith(("  kernels   :", "  cold/churn:"))]

    def test_explain_quotes_chosen_backend_at_plan_time(self):
        ws = make_ws()
        ws.prefetch_all()
        other = Segment(0, 20, 100, 80)
        for policy in ("per-query", "shared"):
            ws.execute(ws.plan(ConnQuery(other), backend=policy))
        assert ws.remove_obstacle(OBS[0])  # a repair on the shared graph
        for policy, backend in (("per-query", ws.per_query_backend),
                                ("shared", ws.routing)):
            b = replace(backend.stats)
            plan = ws.plan(ConnQuery(SEG), backend=policy)
            ws.execute(plan)  # later work must not leak into the plan
            assert backend.stats.dijkstra_runs > b.dijkstra_runs
            assert self.counter_lines(plan.explain()) == [
                f"  kernels   : {b.batch_visibility_calls} batch visibility "
                f"calls, {b.batched_edges_tested} batched edges tested, "
                f"{b.kernel_pruned_edges} bbox-pruned, "
                f"{b.heap_bulk_pushes} bulk heap pushes, "
                f"{b.dijkstra_runs} traversals so far",
                f"  cold/churn: {b.rows_bulk_materialized} bulk rows in "
                f"{b.bulk_pair_launches} bulk pair launches, "
                f"{b.graph_repairs} removal repairs "
                f"({b.repair_retested_pairs} pairs retested so far)",
            ], policy
        assert ws.routing.stats.graph_repairs >= 1
        assert ws.per_query_backend.stats.graph_repairs == 0

    def test_join_plan_quotes_no_backend_counters(self):
        """The joins run their own pairwise graph, so no backend's totals
        describe them."""
        ws = make_ws(backend="per-query")
        ws.conn(SEG)  # the per-query backend has counts to (mis)quote
        from repro import SemiJoinQuery

        other = build_point_tree([(100 + i, (9.0 * i, 60.0))
                                  for i in range(4)])
        plan = ws.plan(SemiJoinQuery(ws.data_tree, other))
        assert plan.backend == "pairwise-vg"
        assert plan.backend_stats is None
        assert self.counter_lines(plan.explain()) == []

    def test_backends_satisfy_protocol(self):
        ws = make_ws()
        assert isinstance(ws.routing, ObstructedDistanceBackend)
        assert isinstance(ws.per_query_backend, ObstructedDistanceBackend)


class TestBackendResultEquivalence:
    """Deterministic spot checks (the Hypothesis suite drives the fuzz)."""

    @pytest.mark.parametrize("seed", [2, 13, 77])
    @pytest.mark.parametrize("k", [1, 2])
    def test_conn_matches_across_backends(self, seed, k):
        rng = random.Random(seed)
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=7)
        q = random_query(rng)
        shared = Workspace.from_points(
            points, obstacles, backend="shared")
        per = Workspace.from_points(
            points, obstacles, backend="per-query")
        for _ in range(2):  # second round runs on the reused shared graph
            assert_same_result(shared.coknn(q, k=k), per.coknn(q, k=k), q)
        assert shared.routing.stats.graphs_built == 1

    @pytest.mark.parametrize("seed", [4, 29])
    def test_onn_and_range_match_across_backends(self, seed):
        rng = random.Random(seed)
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=7)
        x, y = rng.uniform(10, 90), rng.uniform(10, 90)
        shared = Workspace.from_points(
            points, obstacles, backend="shared")
        per = Workspace.from_points(
            points, obstacles, backend="per-query")
        for _ in range(2):
            nn_s, st_s = shared.onn(x, y, k=3)
            nn_p, st_p = per.onn(x, y, k=3)
            assert [p for p, _d in nn_s] == [p for p, _d in nn_p]
            assert same_values([d for _p, d in nn_s],
                               [d for _p, d in nn_p])
            assert st_s.noe == st_p.noe
            r_s, _ = shared.range(x, y, 25.0)
            r_p, _ = per.range(x, y, 25.0)
            assert [p for p, _d in r_s] == [p for p, _d in r_p]

    def test_unreachable_point_agrees(self):
        from repro import SegmentObstacle

        # A pinwheel around (50, 50): walls overlap past the corners, so
        # paths cannot graze out through a shared vertex.
        walls = [SegmentObstacle(48, 49, 52, 49), SegmentObstacle(51, 48, 51, 52),
                 SegmentObstacle(52, 51, 48, 51), SegmentObstacle(49, 52, 49, 48)]
        points = [(0, (50.0, 50.0)), (1, (10.0, 50.0))]
        shared = Workspace.from_points(
            points, walls, backend="shared")
        per = Workspace.from_points(
            points, walls, backend="per-query")
        for ws in (shared, per):
            nn, _ = ws.onn(5.0, 50.0, k=2)
            assert [p for p, _d in nn] == [1]  # 0 is sealed off
        d_s = shared.onn(5.0, 50.0, k=1)[0][0][1]
        d_p = per.onn(5.0, 50.0, k=1)[0][0][1]
        assert d_s == pytest.approx(d_p, abs=1e-9)
        assert math.isfinite(d_s)


class TestBackendStatsMerge:
    def test_merge_sums_every_field(self):
        names = [f.name for f in fields(BackendStats)]
        a = BackendStats(**{n: i + 1 for i, n in enumerate(names)})
        b = BackendStats(**{n: 100 * (i + 1) for i, n in enumerate(names)})
        a.merge(b)
        for i, n in enumerate(names):
            assert getattr(a, n) == 101 * (i + 1), n
        assert getattr(b, names[0]) == 100   # the argument is untouched


def stats_diff(after: BackendStats, before: BackendStats) -> BackendStats:
    """Field-wise ``after - before`` of two backend stats blocks."""
    return BackendStats(**{f.name: getattr(after, f.name)
                           - getattr(before, f.name)
                           for f in fields(BackendStats)})


def stats_mismatches(got: BackendStats, want: BackendStats,
                     skip=("compactions",)):
    """Names of the fields where two blocks disagree (floats approx)."""
    return [f.name for f in fields(BackendStats) if f.name not in skip
            and getattr(got, f.name)
            != pytest.approx(getattr(want, f.name), rel=1e-9, abs=1e-12)]


class TestCounterConservation:
    """Every unit of backend work lands in exactly one place: a query's own
    block, or (for maintenance) the backend's cumulative block only."""

    def mixed_ops(self, rng, obstacles):
        ops = []
        for i in range(30):
            if i % 3 == 0:
                ops.append(ConnQuery(random_query(rng, min_length=10.0)))
            elif i % 3 == 1:
                ops.append(OnnQuery((rng.uniform(10, 90),
                                     rng.uniform(10, 90)), knn=2))
            else:
                ops.append(RangeQuery((rng.uniform(10, 90),
                                       rng.uniform(10, 90)), 20.0))
        ops.insert(10, AddObstacle(SegmentObstacle(20.0, 33.0, 41.0, 37.0)))
        ops.insert(20, RemoveObstacle(obstacles[0]))
        return ops

    @pytest.mark.parametrize("policy", ["shared", "per-query"])
    def test_query_blocks_equal_backend_deltas(self, policy, monkeypatch):
        # An independent witness: every kernel launch of every graph.
        launches = []
        count_batch = LocalVisibilityGraph._count_batch

        def spy(graph, edges, prims, tally=None):
            launches.append(graph)
            count_batch(graph, edges, prims, tally)

        monkeypatch.setattr(LocalVisibilityGraph, "_count_batch", spy)
        rng = random.Random(5)
        points, obstacles = random_scene(rng, n_points=14, n_obstacles=8)
        ws = Workspace.from_points(points, obstacles,
                                   backend=policy)
        backend = ws.routing if policy == "shared" else ws.per_query_backend
        if policy == "shared":
            ws.prefetch_all()
            ws.routing.warm()
        total = BackendStats()
        queries = 0
        for op in self.mixed_ops(rng, obstacles):
            if isinstance(op, (AddObstacle, RemoveObstacle)):
                assert ws.apply([op]) == [True]
                continue
            before = replace(backend.stats)
            launched = len(launches)
            res = ws.execute(op)
            assert res.stats.backend_name == backend.name
            delta = stats_diff(backend.stats, before)
            assert stats_mismatches(res.stats.backend, delta) == [], op
            assert res.stats.backend.batch_visibility_calls == \
                len(launches) - launched, op
            assert res.stats.visibility_tests == \
                res.stats.backend.visibility_tests
            total.merge(res.stats.backend)
            queries += 1
        assert queries == 30
        assert total.sessions == 30
        assert total.visibility_tests > 0 and total.nodes_settled > 0
        # Every launch is counted once: by a query, or by maintenance.
        assert backend.stats.batch_visibility_calls == len(launches)
        if policy == "per-query":
            # Nothing but queries ever touches the per-query backend.
            assert stats_mismatches(backend.stats, total, skip=()) == []
        else:
            assert backend.stats.graph_repairs >= 1  # the removal's repair
            assert total.graph_repairs == 0  # ... charged to no query
