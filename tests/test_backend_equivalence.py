"""Hypothesis property suite for obstructed-distance backend equivalence.

The property: two long-lived workspaces over the same evolving dataset —
one forced onto the workspace-shared incremental visibility graph
(``SharedVGBackend``), one forced onto throwaway per-query graphs
(``PerQueryVGBackend``) — always return identical CONN / COkNN / ONN /
range answers, no matter how site/obstacle updates interleave with
queries.  Hypothesis drives the op pattern (mirroring
``tests/test_property_updates.py``); scene geometry comes from a seeded
generator so coordinates stay well-conditioned.

This is the safety net that lets the planner swap backends freely: the
shared graph may hold more obstacles than any one query retrieved, but
every one of them is real, so both substrates converge on the same true
obstructed distances.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RectObstacle, SegmentObstacle, Workspace
from tests.conftest import random_query, random_scene, same_values

OPS = ("add_site", "remove_site", "add_obstacle", "remove_obstacle")


def _random_obstacle(rng: random.Random):
    x, y = rng.uniform(0, 92), rng.uniform(0, 92)
    if rng.random() < 0.3:
        return SegmentObstacle(x, y, x + rng.uniform(-12, 12),
                               y + rng.uniform(-12, 12))
    return RectObstacle(x, y, x + rng.uniform(1, 7), y + rng.uniform(1, 5))


def _check_agreement(ws_shared, ws_per, qseg, k):
    ts = np.linspace(0.0, qseg.length, 81)

    got = ws_shared.coknn(qseg, k=k)
    want = ws_per.coknn(qseg, k=k)
    for lv_g, lv_w in zip(got.levels, want.levels):
        assert same_values(lv_g.values(ts), lv_w.values(ts))
    assert [o for o, _iv in got.tuples()] == [o for o, _iv in want.tuples()]
    assert got.stats.noe == want.stats.noe
    assert got.stats.svg_size == want.stats.svg_size

    x, y = qseg.point_at(0.5 * qseg.length)
    got_nn, _ = ws_shared.onn(x, y, k=k)
    want_nn, _ = ws_per.onn(x, y, k=k)
    assert [p for p, _d in got_nn] == [p for p, _d in want_nn]
    assert same_values([d for _p, d in got_nn], [d for _p, d in want_nn])

    got_r, _ = ws_shared.range(x, y, 20.0)
    want_r, _ = ws_per.range(x, y, 20.0)
    assert sorted(map(str, (p for p, _d in got_r))) == \
        sorted(map(str, (p for p, _d in want_r)))


@given(seed=st.integers(min_value=0, max_value=10_000),
       pattern=st.lists(st.tuples(st.sampled_from(OPS),
                                  st.integers(min_value=0, max_value=31),
                                  st.booleans()),
                        min_size=1, max_size=6),
       k=st.integers(min_value=1, max_value=2))
@settings(max_examples=20, deadline=None)
def test_backends_agree_under_interleaved_updates(seed, pattern, k):
    rng = random.Random(seed)
    points, obstacles = random_scene(rng, n_points=8, n_obstacles=5)
    points = list(points)
    obstacles = list(obstacles)
    ws_shared = Workspace.from_points(
        points, obstacles, backend="shared")
    ws_per = Workspace.from_points(
        points, obstacles, backend="per-query")
    qseg = random_query(rng)
    _check_agreement(ws_shared, ws_per, qseg, k)  # warm both before mutating
    next_id = 10_000
    for op, victim, query_between in pattern:
        if op == "add_site":
            xy = (rng.uniform(0, 100), rng.uniform(0, 100))
            for ws in (ws_shared, ws_per):
                ws.add_site(next_id, xy)
            points.append((next_id, xy))
            next_id += 1
        elif op == "remove_site" and len(points) > 2:
            pid, xy = points.pop(victim % len(points))
            for ws in (ws_shared, ws_per):
                assert ws.remove_site(pid, xy) is True
        elif op == "add_obstacle":
            obs = _random_obstacle(rng)
            for ws in (ws_shared, ws_per):
                ws.add_obstacle(obs)
            obstacles.append(obs)
        elif op == "remove_obstacle" and obstacles:
            obs = obstacles.pop(victim % len(obstacles))
            for ws in (ws_shared, ws_per):
                assert ws.remove_obstacle(obs) is True
        if query_between:
            _check_agreement(ws_shared, ws_per, qseg, k)
    _check_agreement(ws_shared, ws_per, qseg, k)
    # The per-query workspace never touched its shared backend...
    assert ws_per.routing.stats.sessions == 0
    # ...while the shared one never built more graphs than its maintenance
    # path allows: one initial build plus one rebuild per guarded
    # invalidation (announced removals repair in place).
    rs = ws_shared.routing.stats
    assert rs.graphs_built <= 1 + rs.invalidations
