"""Dynamic updates through the workspace: correctness before performance.

The headline contract of the update subsystem: a *warmed* workspace that
receives site/obstacle updates answers every subsequent query identically
to a workspace freshly built on the mutated dataset — the obstacle cache is
maintained surgically (patch on insert, evict on remove), and any mutation
that bypasses the workspace trips the cache's version guard into a full
invalidation, never a silent stale serve.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import (
    AddObstacle,
    AddSite,
    CoknnQuery,
    RectObstacle,
    RemoveObstacle,
    RemoveSite,
    SegmentObstacle,
    Workspace,
)
from repro.geometry import Rect
from tests.conftest import random_query, random_scene, same_values


def fresh_like(points, obstacles, layout="2T", **kwargs):
    return Workspace.from_points(points, obstacles, layout=layout, **kwargs)


def assert_matches_fresh(ws, points, obstacles, qseg, k=2, layout="2T"):
    """Every query kind on ``ws`` equals a cold workspace on the same data."""
    fresh = fresh_like(points, obstacles, layout=layout)
    got = ws.coknn(qseg, k=k)
    want = fresh.coknn(qseg, k=k)
    ts = np.linspace(0.0, qseg.length, 101)
    for lv_g, lv_w in zip(got.levels, want.levels):
        assert same_values(lv_g.values(ts), lv_w.values(ts))
    assert [o for o, _iv in got.tuples()] == [o for o, _iv in want.tuples()]
    x, y = qseg.point_at(0.3 * qseg.length)
    got_nn, _ = ws.onn(x, y, k=k)
    want_nn, _ = fresh.onn(x, y, k=k)
    assert [p for p, _d in got_nn] == [p for p, _d in want_nn]
    assert got_nn == pytest.approx(want_nn, abs=1e-6) or \
        [d for _p, d in got_nn] == pytest.approx([d for _p, d in want_nn],
                                                 abs=1e-6)
    got_r, _ = ws.range(x, y, 25.0)
    want_r, _ = fresh.range(x, y, 25.0)
    assert sorted(p for p, _d in got_r) == sorted(p for p, _d in want_r)


class TestStaleCacheGuard:
    """Satellite bugfix: stale serving is impossible even without monitors."""

    def test_direct_tree_mutation_invalidates_cache(self, rng):
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
        ws = Workspace.from_points(points, obstacles)
        q = random_query(rng)
        ws.coknn(q, k=2)  # warm: capsules + cached obstacles recorded
        assert ws.cache.coverage_regions > 0
        # Mutate the obstacle tree *behind the workspace's back*.
        wall = SegmentObstacle(q.ax, q.ay - 5.0, q.bx, q.by + 5.0)
        ws.obstacle_tree.insert(wall, wall.mbr())
        assert_matches_fresh(ws, points, obstacles + [wall], q)
        assert ws.cache.stats.invalidations >= 1

    def test_direct_delete_never_serves_ghost_obstacle(self):
        wall = SegmentObstacle(5.0, -50.0, 5.0, 50.0)
        points = [("p", (10.0, 0.0))]
        ws = Workspace.from_points(points, [wall])
        detour, _ = ws.onn(0.0, 0.0, k=1)
        assert detour[0][1] > 10.0  # walled off: path detours
        assert ws.obstacle_tree.delete(wall, wall.mbr())
        direct, _ = ws.onn(0.0, 0.0, k=1)
        assert direct[0][1] == pytest.approx(10.0, abs=1e-9)

    def test_unannounced_mutation_between_announced_ones(self, rng):
        points, obstacles = random_scene(rng, n_points=8, n_obstacles=5)
        ws = Workspace.from_points(points, obstacles)
        q = random_query(rng)
        ws.coknn(q, k=1)
        extra = RectObstacle(10, 10, 14, 13)
        ws.obstacle_tree.insert(extra, extra.mbr())  # foreign
        late = RectObstacle(40, 40, 45, 44)
        ws.add_obstacle(late)  # announced, but the version gap is 2
        assert ws.cache.stats.invalidations >= 1
        assert_matches_fresh(ws, points, obstacles + [extra, late], q)


class TestSurgicalMaintenance:
    def test_obstacle_insert_is_patched_not_invalidated(self, rng):
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
        ws = Workspace.from_points(points, obstacles)
        q = random_query(rng)
        ws.coknn(q, k=2)
        capsules_before = ws.cache.coverage_regions
        assert capsules_before > 0
        new = RectObstacle(20, 20, 26, 24)
        ws.add_obstacle(new)
        assert ws.cache.stats.invalidations == 0
        assert ws.cache.stats.patched == 1
        assert ws.cache.coverage_regions == capsules_before
        assert new in ws.cache.obstacles
        assert_matches_fresh(ws, points, obstacles + [new], q)

    def test_obstacle_remove_evicts_from_cache(self, rng):
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
        ws = Workspace.from_points(points, obstacles)
        ws.prefetch_all()
        target = obstacles[0]
        assert target in ws.cache.obstacles
        assert ws.remove_obstacle(target) is True
        assert ws.cache.stats.invalidations == 0
        assert ws.cache.stats.evicted == 1
        assert target not in ws.cache.obstacles
        # The full-cache capsule survives eviction, so the query below runs
        # without any obstacle-tree read — and still gets fresh answers.
        snap = ws.obstacle_tree.tracker.stats.snapshot()
        q = random_query(rng)
        assert_matches_fresh(ws, points, obstacles[1:], q)
        assert ws.obstacle_tree.tracker.stats.delta(snap).logical_reads == 0

    def test_site_updates_leave_obstacle_cache_alone(self, rng):
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
        ws = Workspace.from_points(points, obstacles)
        q = random_query(rng)
        ws.coknn(q, k=1)
        capsules = ws.cache.coverage_regions
        ws.add_site(99, (31.0, 57.0))
        ws.remove_site(points[0][0], points[0][1])
        assert ws.cache.coverage_regions == capsules
        assert ws.cache.stats.invalidations == 0
        mutated = [p for p in points if p[0] != points[0][0]]
        mutated.append((99, (31.0, 57.0)))
        assert_matches_fresh(ws, mutated, obstacles, q)

    def test_duplicate_obstacle_remove_keeps_survivor_cached(self, rng):
        """Regression: removing one of two equal tree entries must not evict
        the obstacle from the cache (the dataset still contains it)."""
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
        ws = Workspace.from_points(points, obstacles)
        dup = obstacles[0]
        ws.add_obstacle(dup)  # second tree entry for an already-indexed one
        q = random_query(rng)
        ws.coknn(q, k=2)  # warm: capsules recorded with dup resident
        assert ws.remove_obstacle(dup) is True  # one entry remains
        assert dup in ws.cache.obstacles
        assert_matches_fresh(ws, points, obstacles, q)
        assert ws.remove_obstacle(dup) is True  # now the last copy goes
        assert dup not in ws.cache.obstacles
        assert_matches_fresh(ws, points, obstacles[1:], q)

    def test_remove_returns_false_for_unknown(self, rng):
        points, obstacles = random_scene(rng, n_points=6, n_obstacles=4)
        ws = Workspace.from_points(points, obstacles)
        assert ws.remove_site("nope", (1.0, 2.0)) is False
        assert ws.remove_obstacle(RectObstacle(0, 0, 1, 1)) is False
        assert ws.version == 0

    def test_apply_batch_routes_everything(self, rng):
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
        ws = Workspace.from_points(points, obstacles)
        q = random_query(rng)
        ws.coknn(q, k=2)
        new_obs = RectObstacle(60, 15, 66, 19)
        flags = ws.apply([
            AddSite("fresh", 44.0, 61.0),
            RemoveSite(points[2][0], *points[2][1]),
            AddObstacle(new_obs),
            RemoveObstacle(obstacles[1]),
            RemoveObstacle(obstacles[1]),  # second time: nothing left
        ])
        assert flags == [True, True, True, True, False]
        assert ws.version == 4
        mutated_points = [p for p in points if p[0] != points[2][0]]
        mutated_points.append(("fresh", (44.0, 61.0)))
        mutated_obs = [o for o in obstacles if o != obstacles[1]] + [new_obs]
        assert_matches_fresh(ws, mutated_points, mutated_obs, q)

    def test_unknown_update_type_rejected(self, rng):
        points, obstacles = random_scene(rng, n_points=5, n_obstacles=3)
        ws = Workspace.from_points(points, obstacles)
        with pytest.raises(TypeError):
            ws.apply([("add", 1, 2)])


class TestUnifiedLayoutUpdates:
    @pytest.mark.parametrize("seed", [5, 21])
    def test_1t_updates_match_fresh(self, seed):
        rng = random.Random(seed)
        points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
        ws = Workspace.from_points(points, obstacles, layout="1T")
        q = random_query(rng)
        ws.coknn(q, k=2)  # warm the unified scan's harvest cache
        new_obs = RectObstacle(35, 35, 41, 39)
        ws.add_site("late", 12.0, 88.0)
        ws.add_obstacle(new_obs)
        assert ws.remove_site(points[1][0], points[1][1]) is True
        assert ws.remove_obstacle(obstacles[0]) is True
        mutated_points = [p for p in points if p[0] != points[1][0]]
        mutated_points.append(("late", (12.0, 88.0)))
        mutated_obs = obstacles[1:] + [new_obs]
        assert_matches_fresh(ws, mutated_points, mutated_obs, q, layout="1T")


class TestPlanVersioning:
    def test_prepared_plan_replans_after_update(self, rng):
        points, obstacles = random_scene(rng, n_points=8, n_obstacles=5)
        ws = Workspace.from_points(points, obstacles)
        q = CoknnQuery(random_query(rng), knn=1)
        plan = ws.plan(q)
        assert plan.workspace_version == ws.version
        wall = SegmentObstacle(q.segment.ax, q.segment.ay - 3.0,
                               q.segment.bx, q.segment.by + 3.0)
        ws.add_obstacle(wall)
        assert plan.workspace_version != ws.version
        got = ws.execute(plan)  # must re-plan, then answer on fresh data
        want = fresh_like(points, obstacles + [wall]).execute(q)
        ts = np.linspace(0.0, q.segment.length, 101)
        assert same_values(got.envelope.values(ts), want.envelope.values(ts))

    def test_prepared_plan_replans_after_direct_tree_mutation(self, rng):
        """A mutation bypassing the workspace leaves ``version`` untouched;
        the plan's recorded tree versions must catch it anyway."""
        points, obstacles = random_scene(rng, n_points=8, n_obstacles=5)
        ws = Workspace.from_points(points, obstacles)
        ws.prefetch_all()
        q = CoknnQuery(random_query(rng), knn=1)
        plan = ws.plan(q)
        assert plan.backend == "shared-vg"  # warm: the shared graph pays
        wall = SegmentObstacle(q.segment.ax, q.segment.ay - 3.0,
                               q.segment.bx, q.segment.by + 3.0)
        ws.obstacle_tree.insert(wall, wall.mbr())  # directly: no announce
        got = ws.execute(plan)
        # The stale plan would have attached the shared graph; the re-plan
        # sees the invalidated cache and runs cold on a per-query graph.
        assert ws.per_query_backend.stats.sessions == 1
        assert ws.routing.stats.sessions == 0
        want = fresh_like(points, obstacles + [wall]).execute(q)
        ts = np.linspace(0.0, q.segment.length, 101)
        assert same_values(got.envelope.values(ts), want.envelope.values(ts))

    def test_warm_plan_goes_cold_after_invalidation(self, rng):
        points, obstacles = random_scene(rng, n_points=8, n_obstacles=5)
        ws = Workspace.from_points(points, obstacles)
        ws.prefetch_all()
        q = CoknnQuery(random_query(rng), knn=1)
        assert ws.plan(q).warm
        ws.obstacle_tree.insert(RectObstacle(1, 1, 2, 2), Rect(1, 1, 2, 2))
        assert not ws.plan(q).warm  # version guard dropped the capsules
