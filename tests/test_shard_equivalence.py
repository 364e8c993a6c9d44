"""Hypothesis equivalence suite: sharded answers are byte-identical.

The property behind the whole shard subsystem: a
:class:`~repro.shard.ShardedWorkspace` over 1 / 2 / 4 / 9 shards —
arbitrary scene, arbitrary query mix, arbitrary interleaved updates —
answers **exactly** like the unsharded :class:`Workspace` on the same
data, including the delta streams of registered monitors.  Hypothesis
drives the op pattern (query kinds, update kinds, victims); scene
geometry comes from a seeded generator so coordinates stay
well-conditioned.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AddObstacle,
    AddSite,
    CoknnQuery,
    OnnQuery,
    RangeQuery,
    RectObstacle,
    RemoveObstacle,
    RemoveSite,
    Segment,
    SegmentObstacle,
    ShardedWorkspace,
    Workspace,
)
from tests.conftest import random_scene

SHARD_COUNTS = (1, 2, 4, 9)
QUERY_KINDS = ("coknn", "onn", "range")
UPDATE_KINDS = ("add_site", "remove_site", "add_obstacle",
                "remove_obstacle")


def _query_for(kind: str, rng: random.Random, k: int):
    x, y = rng.uniform(5, 90), rng.uniform(5, 90)
    if kind == "coknn":
        return CoknnQuery(Segment(x, y, x + rng.uniform(3, 25),
                                  y + rng.uniform(-10, 10)), k)
    if kind == "onn":
        return OnnQuery((x, y), knn=k)
    return RangeQuery((x, y), rng.uniform(8, 30))


def _update_for(kind: str, rng: random.Random, points, obstacles,
                next_id: int):
    if kind == "add_site":
        return AddSite(next_id, rng.uniform(0, 95), rng.uniform(0, 95))
    if kind == "remove_site" and points:
        payload, (x, y) = points[rng.randrange(len(points))]
        return RemoveSite(payload, x, y)
    if kind == "remove_obstacle" and obstacles:
        return RemoveObstacle(obstacles[rng.randrange(len(obstacles))])
    x, y = rng.uniform(0, 90), rng.uniform(0, 90)
    if rng.random() < 0.3:
        return AddObstacle(SegmentObstacle(x, y, x + rng.uniform(-10, 10),
                                           y + rng.uniform(-10, 10)))
    return AddObstacle(RectObstacle(x, y, x + rng.uniform(1, 8),
                                    y + rng.uniform(1, 6)))


def _assert_same(query, plain, sharded):
    assert plain.tuples() == sharded.tuples(), query
    if isinstance(query, CoknnQuery):
        assert plain.knn_intervals() == sharded.knn_intervals(), query


@given(seed=st.integers(min_value=0, max_value=10_000),
       shards=st.sampled_from(SHARD_COUNTS),
       kinds=st.lists(st.sampled_from(QUERY_KINDS), min_size=1,
                      max_size=4),
       k=st.integers(min_value=1, max_value=3))
@settings(max_examples=15, deadline=None)
def test_static_workloads_identical(seed, shards, kinds, k):
    rng = random.Random(seed)
    points, obstacles = random_scene(rng, n_points=10, n_obstacles=6)
    ws = Workspace.from_points(points, obstacles)
    sws = ShardedWorkspace.from_points(points, obstacles, shards=shards)
    for kind in kinds:
        q = _query_for(kind, rng, k)
        _assert_same(q, ws.execute(q), sws.execute(q))
    # The batch path routes through the same protocol.
    batch = [_query_for(kind, rng, k) for kind in kinds]
    for q, r in zip(batch, sws.execute_many(batch, workers=2)):
        _assert_same(q, ws.execute(q), r)


@given(seed=st.integers(min_value=0, max_value=10_000),
       shards=st.sampled_from(SHARD_COUNTS),
       pattern=st.lists(
           st.tuples(st.sampled_from(UPDATE_KINDS),
                     st.sampled_from(QUERY_KINDS)),
           min_size=1, max_size=5))
@settings(max_examples=12, deadline=None)
def test_interleaved_updates_identical(seed, shards, pattern):
    rng = random.Random(seed)
    points, obstacles = random_scene(rng, n_points=8, n_obstacles=5)
    points, obstacles = list(points), list(obstacles)
    ws = Workspace.from_points(points, obstacles)
    sws = ShardedWorkspace.from_points(points, obstacles, shards=shards)
    next_id = 10_000
    for update_kind, query_kind in pattern:
        update = _update_for(update_kind, rng, points, obstacles, next_id)
        if isinstance(update, AddSite):
            points.append((update.payload, (update.x, update.y)))
            next_id += 1
        elif isinstance(update, RemoveSite):
            points = [(p, xy) for p, xy in points if p != update.payload]
        elif isinstance(update, AddObstacle):
            obstacles.append(update.obstacle)
        else:
            obstacles = [o for o in obstacles if o is not update.obstacle]
        flags_plain = ws.apply([update])
        flags_shard = sws.apply([update])
        assert flags_plain == flags_shard, update
        q = _query_for(query_kind, rng, 2)
        _assert_same(q, ws.execute(q), sws.execute(q))


@given(seed=st.integers(min_value=0, max_value=10_000),
       shards=st.sampled_from(SHARD_COUNTS),
       updates=st.lists(st.sampled_from(UPDATE_KINDS), min_size=1,
                        max_size=4))
@settings(max_examples=10, deadline=None)
def test_monitor_delta_streams_identical(seed, shards, updates):
    rng = random.Random(seed)
    points, obstacles = random_scene(rng, n_points=8, n_obstacles=4)
    points, obstacles = list(points), list(obstacles)
    ws = Workspace.from_points(points, obstacles)
    sws = ShardedWorkspace.from_points(points, obstacles, shards=shards)
    x, y = rng.uniform(20, 70), rng.uniform(20, 70)
    monitors = [
        (ws.monitors.register(q), sws.monitors.register(q))
        for q in (OnnQuery((rng.uniform(20, 80), rng.uniform(20, 80)),
                           knn=2),
                  RangeQuery((rng.uniform(20, 80), rng.uniform(20, 80)),
                             rng.uniform(10, 25)),
                  CoknnQuery(Segment(x, y, x + rng.uniform(10, 25),
                                     y + rng.uniform(-8, 8)), 2))
    ]
    next_id = 20_000
    for update_kind in updates:
        update = _update_for(update_kind, rng, points, obstacles, next_id)
        if isinstance(update, AddSite):
            points.append((update.payload, (update.x, update.y)))
            next_id += 1
        elif isinstance(update, RemoveSite):
            points = [(p, xy) for p, xy in points if p != update.payload]
        elif isinstance(update, AddObstacle):
            obstacles.append(update.obstacle)
        else:
            obstacles = [o for o in obstacles if o is not update.obstacle]
        applied = ws.apply([update])
        assert sws.apply([update]) == applied
        if not applied[0]:
            continue
        for plain, shard in monitors:
            assert plain.result.tuples() == shard.result.tuples(), update
            ep, esh = plain.events[-1], shard.events[-1]
            # The same maintenance decision on both twins: a span repair
            # of the plain monitor is a span repair of the sharded one.
            assert (ep.action, ep.spans) == (esh.action, esh.spans), update
            dp, dsh = ep.delta, esh.delta
            assert (dp.intervals, dp.added, dp.removed, dp.changed) == \
                   (dsh.intervals, dsh.added, dsh.removed,
                    dsh.changed), update
