"""Surgical removal repair: byte-identity with a fresh build.

Contract under test:

* **Graph repair** — after any interleaving of obstacle inserts and
  removals, a surgically repaired graph holds exactly the adjacency
  (same neighbor sets, bitwise-equal weights), exactly the visible
  regions and exactly the shortest distances of a graph freshly built
  over the surviving obstacles, and every row equals the brute-force
  row of :mod:`tests.reference`;
* **Lazy catch-up** — removal itself only remaps row watermarks and logs
  the removed box (no kernel launch); rows read in any order, at any
  point of a storm, or compacted before they were read, catch up to the
  fresh build, and the removal log stays bounded;
* **Workspace answers** — a shared-backend workspace that repairs every
  removal in place answers every query of an insert/remove storm with
  the float-identical tuples of the per-query backend, which builds a
  fresh graph per query (what a drop-and-rebuild would serve);
* **Sharding** — removing a boundary obstacle replicated into several
  shards repairs every replica, and the sharded answers stay identical
  to the unsharded workspace's;
* **Slab clip** — ``_segment_hits_box`` (the filter that bounds the
  repair's retest set) is exact on axis-parallel, degenerate and
  clipped-span segments, and never prunes a segment the removed
  obstacle actually blocked.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ConnQuery,
    RectObstacle,
    ShardedWorkspace,
    Workspace,
)
from repro.geometry import Segment
from repro.obstacles import LocalVisibilityGraph, visgraph
from repro.obstacles.visgraph import _segment_hits_box
from tests.reference import assert_row_matches
from tests.test_bulk_materialize import mixed_scene

Q = Segment(0, 50, 100, 50)


def row_dict(g: LocalVisibilityGraph, v: int) -> dict:
    idx, w = g.row_arrays(v)
    return dict(zip(idx.tolist(), w.tolist()))


def assert_graphs_equivalent(repaired: LocalVisibilityGraph,
                             fresh: LocalVisibilityGraph) -> None:
    """Same alive permanent nodes, adjacency, regions and distances.

    Repair appends re-opened edges at the end of a surviving row while a
    fresh build emits candidates in ascending id order, so rows compare
    as mappings; the weights still go through the same ``math.hypot`` in
    both paths and must be bitwise equal.
    """
    repaired.build_all()
    fresh.build_all()
    perm = [(v, repaired._xy[v]) for v in repaired._alive_ids()
            if not repaired._transient[v]]
    fresh_xy = {fresh._xy[v]: v for v in fresh._alive_ids()
                if not fresh._transient[v]}
    assert sorted(xy for _v, xy in perm) == sorted(fresh_xy)
    remap = {v: fresh_xy[xy] for v, xy in perm}
    for v, _xy in perm:
        got = {remap[u]: w for u, w in row_dict(repaired, v).items()
               if u in remap}
        want = {u: w for u, w in row_dict(fresh, remap[v]).items()}
        assert got == want
        assert_row_matches(repaired, v)
        assert list(repaired.visible_region_of(v)) == \
            list(fresh.visible_region_of(remap[v]))
    d_rep = repaired.shortest_distances(repaired.S, (repaired.E,))
    d_new = fresh.shortest_distances(fresh.S, (fresh.E,))
    assert d_rep == d_new


def assert_rows_match_fresh(g: LocalVisibilityGraph, resident: list,
                            order: list) -> None:
    """Read every permanent row of ``g`` in ``order``, one at a time (each
    read catches its row up alone), and compare it with a fresh build."""
    fresh = LocalVisibilityGraph(Q)
    fresh.add_obstacles(resident)
    fresh_xy = {fresh._xy[v]: v for v in fresh._alive_ids()
                if not fresh._transient[v]}
    perm = [v for v in order if g._alive[v] and not g._transient[v]]
    assert sorted(g._xy[v] for v in perm) == sorted(fresh_xy)
    remap = {v: fresh_xy[g._xy[v]] for v in perm}
    for v in perm:
        row = g.row_arrays(v)
        got = {remap[u]: w for u, w in zip(row[0].tolist(), row[1].tolist())}
        assert got == row_dict(fresh, remap[v])
        assert_row_matches(g, v, row)


class TestGraphRepair:
    def test_removal_restores_blocked_edge_exactly(self):
        blocker = RectObstacle(45, 40, 55, 60)
        g = LocalVisibilityGraph(Q)
        g.add_obstacles([blocker])
        assert g.E not in row_dict(g, g.S)
        assert g.remove_obstacle(blocker) is True
        assert g.work.graph_repairs == 1
        assert g.work.repair_retested_pairs == 0   # nothing read yet
        clean = LocalVisibilityGraph(Q)
        assert row_dict(g, g.S)[g.E] == row_dict(clean, clean.S)[clean.E]
        assert g.work.repair_retested_pairs > 0    # counted by the read

    def test_remove_nonresident_is_false(self):
        g = LocalVisibilityGraph(Q)
        g.add_obstacles([RectObstacle(10, 10, 20, 20)])
        assert g.remove_obstacle(RectObstacle(70, 70, 80, 80)) is False
        assert g.work.graph_repairs == 0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_insert_remove_storm_equals_fresh_build(self, seed):
        rng = random.Random(seed)
        pool = mixed_scene(rng, 8)
        g = LocalVisibilityGraph(Q)
        resident: list = []
        for _step in range(12):
            if resident and rng.random() < 0.45:
                victim = resident.pop(rng.randrange(len(resident)))
                assert g.remove_obstacle(victim)
            elif pool:
                o = pool.pop()
                g.add_obstacles([o])
                resident.append(o)
            if rng.random() < 0.3:
                g.build_all()   # interleave eager materialization
        fresh = LocalVisibilityGraph(Q)
        fresh.add_obstacles(resident)
        assert_graphs_equivalent(g, fresh)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_partial_reads_then_every_row_equals_fresh_build(self, seed):
        """Rows read between removals catch up part-way; the rest stay
        behind several removals and insertions at once."""
        rng = random.Random(seed)
        pool = mixed_scene(rng, 10)
        g = LocalVisibilityGraph(Q)
        resident: list = []
        for _step in range(14):
            if resident and rng.random() < 0.45:
                victim = resident.pop(rng.randrange(len(resident)))
                assert g.remove_obstacle(victim)
            elif pool:
                o = pool.pop()
                g.add_obstacles([o])
                resident.append(o)
            alive = g._alive_ids()
            for v in rng.sample(alive, rng.randrange(len(alive) + 1)):
                g.row_arrays(v)
        order = g._alive_ids()
        rng.shuffle(order)
        assert_rows_match_fresh(g, resident, order)

    def test_reopen_in_small_tiles_equals_fresh_build(self, monkeypatch):
        """Rows behind several removals re-open over many (pair, box)
        tiles when the tile is tiny."""
        monkeypatch.setattr(visgraph, "BATCH_TILE_ELEMS", 7)
        rng = random.Random(31)
        obstacles = mixed_scene(rng, 10)
        g = LocalVisibilityGraph(Q)
        g.add_obstacles(obstacles)
        g.build_all()
        for i in (0, 3, 4, 8):
            assert g.remove_obstacle(obstacles[i])
        resident = [o for i, o in enumerate(obstacles)
                    if i not in (0, 3, 4, 8)]
        order = g._alive_ids()
        rng.shuffle(order)
        assert_rows_match_fresh(g, resident, order)

    def test_compact_after_unread_removals_equals_fresh_build(self):
        rng = random.Random(8)
        obstacles = mixed_scene(rng, 9)
        g = LocalVisibilityGraph(Q)
        g.add_obstacles(obstacles)
        g.build_all()
        for victim in (obstacles[1], obstacles[5], obstacles[6]):
            assert g.remove_obstacle(victim)
        assert g.compact() > 0      # the victims' vertices, never read
        resident = [o for i, o in enumerate(obstacles) if i not in (1, 5, 6)]
        fresh = LocalVisibilityGraph(Q)
        fresh.add_obstacles(resident)
        assert_graphs_equivalent(g, fresh)

    def test_removal_launches_no_kernel(self):
        rng = random.Random(4)
        obstacles = mixed_scene(rng, 12)
        g = LocalVisibilityGraph(Q)
        g.add_obstacles(obstacles[:6])
        g.build_all()
        g.add_obstacles(obstacles[6:])    # every cached row is now stale
        assert all(g._row_stale(v) for v in g._indptr)
        before = (g.work.bulk_pair_launches, g.work.batched_edges_tested,
                  g.work.batch_visibility_calls)
        for victim in (obstacles[2], obstacles[9]):
            assert g.remove_obstacle(victim)
        assert (g.work.bulk_pair_launches, g.work.batched_edges_tested,
                g.work.batch_visibility_calls) == before
        assert g.work.repair_retested_pairs == 0
        resident = [o for i, o in enumerate(obstacles) if i not in (2, 9)]
        assert_rows_match_fresh(g, resident, g._alive_ids())

    def test_obstacle_added_and_removed_unread_costs_no_retest(self):
        """Rows not read while an obstacle was resident never considered
        it: its removal leaves them current, with nothing to re-test."""
        rng = random.Random(5)
        obstacles = mixed_scene(rng, 8)
        g = LocalVisibilityGraph(Q)
        g.add_obstacles(obstacles[:7])
        g.build_all()
        launches = g.work.batch_visibility_calls
        g.add_obstacles(obstacles[7:])
        assert g.remove_obstacle(obstacles[7])
        assert not any(g._row_stale(v) for v in g._indptr)
        assert_rows_match_fresh(g, obstacles[:7], g._alive_ids())
        assert g.work.repair_retested_pairs == 0
        assert g.work.batch_visibility_calls == launches

    def test_removal_log_stays_bounded(self):
        """200 removals of a churned scene whose early rows are never read
        again: the log holds at most one entry per resident obstacle, and
        rows behind a trimmed entry rematerialize correctly."""
        rng = random.Random(12)
        g = LocalVisibilityGraph(Q)
        resident = mixed_scene(rng, 6)
        g.add_obstacles(resident)
        g.build_all()
        for step in range(200):
            victim = resident.pop(rng.randrange(len(resident)))
            assert g.remove_obstacle(victim)
            assert len(g._removal_log) <= max(1, len(g.obstacles))
            o = mixed_scene(rng, 1)[0]
            g.add_obstacles([o])
            resident.append(o)
            if step % 50 == 0:
                g.row_arrays(g.S)
        assert g._log_base > 0      # entries were trimmed
        assert all(m[4] >= g._log_base for m in g._row_marks.values())
        assert_rows_match_fresh(g, resident, g._alive_ids())

    def test_row_behind_trimmed_entry_rematerializes(self):
        """The blocker's entry is trimmed before any row re-opened S-E."""
        blocker = RectObstacle(45, 40, 55, 60)
        others = [RectObstacle(10, 80, 15, 85), RectObstacle(80, 10, 85, 15)]
        g = LocalVisibilityGraph(Q)
        g.add_obstacles([blocker, *others])
        assert g.E not in row_dict(g, g.S)
        g.build_all()
        assert g.remove_obstacle(blocker)
        assert g.remove_obstacle(others[0])     # one obstacle left: trim
        assert g._log_base == 1 and len(g._removal_log) == 1
        assert g.S not in g._indptr             # dropped, not caught up
        assert_rows_match_fresh(g, others[1:], g._alive_ids())

    def test_repair_only_adds_visibility(self):
        rng = random.Random(21)
        obstacles = mixed_scene(rng, 9)
        g = LocalVisibilityGraph(Q)
        g.add_obstacles(obstacles)
        g.build_all()
        before = {v: set(row_dict(g, v)) for v in g._alive_ids()}
        victim = obstacles[4]
        dead = set(g._obstacle_nodes[victim])
        g.remove_obstacle(victim)
        for v in g._alive_ids():
            if v in before:
                assert before[v] - dead <= set(row_dict(g, v))


def storm_script(rng: random.Random, n_rounds: int):
    """(obstacle, query, query) insert/remove rounds near the corridor."""
    rounds = []
    for i in range(n_rounds):
        x = rng.uniform(15.0, 70.0)
        y = 50.0 + rng.uniform(-8.0, 6.0)
        o = RectObstacle(x, y, x + rng.uniform(2.0, 5.0),
                         y + rng.uniform(2.0, 5.0))
        qx = rng.uniform(0.0, 20.0)
        qy = 50.0 + rng.uniform(-3.0, 3.0)
        q = ConnQuery(Segment(qx, qy, qx + rng.uniform(30, 60), qy),
                      label=f"storm-{i}")
        rounds.append((o, q))
    return rounds


POINTS = [(i, (11.0 * i + 3.0, 47.0 + (i % 3))) for i in range(9)]


def run_storm(backend: str, rounds) -> tuple:
    ws = Workspace.from_points(POINTS, [RectObstacle(40, 44, 46, 56)],
                               backend=backend)
    answers = []
    for o, q in rounds:
        ws.add_obstacle(o)
        answers.append([(owner, lo, hi)
                        for owner, (lo, hi) in ws.execute(q).tuples()])
        assert ws.remove_obstacle(o)
        answers.append([(owner, lo, hi)
                        for owner, (lo, hi) in ws.execute(q).tuples()])
    return answers, ws


class TestWorkspaceStorm:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_repair_and_rebuild_answers_identical(self, seed):
        rounds = storm_script(random.Random(seed), 4)
        got, shared = run_storm("shared", rounds)
        want, per = run_storm("per-query", rounds)
        assert got == want                      # exact floats, all rounds
        stats = shared.routing.stats
        assert stats.graph_repairs >= 4         # every removal repaired
        assert stats.graphs_built == 1 and stats.invalidations == 0
        assert per.per_query_backend.stats.graphs_built >= 8

    def test_repair_keeps_graph_resident(self):
        rounds = storm_script(random.Random(3), 3)
        _answers, ws = run_storm("shared", rounds)
        assert ws.routing.stats.graphs_built == 1   # never rebuilt


class TestShardedRepair:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_replicated_boundary_obstacle_removal(self, shards):
        points = [(i, (12.0 * i + 5.0, 48.0)) for i in range(8)]
        base = [RectObstacle(20, 40, 26, 60)]
        # Straddles every shard boundary of the 2x1 and 2x2 grids.
        straddler = RectObstacle(44, 38, 56, 62)
        q = ConnQuery(Segment(5, 50, 90, 50), label="border")
        flat = Workspace.from_points(points, base,
                                     backend="shared")
        sws = ShardedWorkspace.from_points(
            points, base, shards=shards,
            backend="shared")
        for ws in (flat, sws):
            ws.add_obstacle(straddler)
        # The corridor query spans shards and runs on a per-query graph,
        # so warm each shard's shared graph: its replica of the straddler
        # is then resident and must repair on removal.
        for w in sws.shards:
            w.prefetch_all()
            w.routing.warm()
        with_it = flat.execute(q).tuples()
        assert sws.execute(q).tuples() == with_it
        for ws in (flat, sws):
            assert ws.remove_obstacle(straddler)
        without = flat.execute(q).tuples()
        assert sws.execute(q).tuples() == without
        assert with_it != without               # the obstacle mattered
        repairs = sum(w.routing.stats.graph_repairs for w in sws.shards)
        assert repairs == shards                # every resident replica repaired

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=8, deadline=None)
    def test_sharded_storm_matches_unsharded(self, seed):
        rng = random.Random(seed)
        rounds = storm_script(rng, 3)
        points = POINTS
        flat = Workspace.from_points(points, [],
                                     backend="shared")
        sws = ShardedWorkspace.from_points(
            points, [], shards=4, backend="shared")
        for o, q in rounds:
            for ws in (flat, sws):
                ws.add_obstacle(o)
            assert sws.execute(q).tuples() == flat.execute(q).tuples()
            for ws in (flat, sws):
                assert ws.remove_obstacle(o)
            assert sws.execute(q).tuples() == flat.execute(q).tuples()


class TestSegmentHitsBox:
    BOX = (10.0, 10.0, 20.0, 20.0)

    def hits(self, vx, vy, tx, ty):
        out = _segment_hits_box(vx, vy, np.asarray([tx]), np.asarray([ty]),
                                *self.BOX)
        return bool(out[0])

    def test_crossing_segment(self):
        assert self.hits(5, 15, 25, 15)

    def test_vertical_segment(self):
        assert self.hits(15, 5, 15, 25)
        assert not self.hits(25, 5, 25, 25)     # parallel, outside the slab

    def test_horizontal_segment(self):
        assert self.hits(5, 12, 25, 12)
        assert not self.hits(5, 25, 25, 25)

    def test_degenerate_point_segment(self):
        assert self.hits(15, 15, 15, 15)        # inside the box
        assert not self.hits(5, 5, 5, 5)        # outside the box

    def test_span_stops_short_of_box(self):
        # The infinite line crosses, but the [0, 1] span ends before it.
        assert not self.hits(0, 15, 5, 15)

    def test_endpoint_on_boundary(self):
        assert self.hits(10, 15, 0, 15)         # starts on the box edge

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_never_prunes_a_blocked_pair(self, seed):
        """Soundness: blocked by the rect => segment crosses its bbox."""
        rng = random.Random(seed)
        o = RectObstacle(40, 40, 60, 60)
        vx, vy = rng.uniform(0, 100), rng.uniform(0, 100)
        tx, ty = rng.uniform(0, 100), rng.uniform(0, 100)
        if o.blocks(vx, vy, tx, ty):
            assert _segment_hits_box(vx, vy, np.asarray([tx]),
                                     np.asarray([ty]), 40, 40, 60, 60)[0]
