#!/usr/bin/env python3
"""Query service: one workspace, many correlated queries, amortized I/O.

A delivery drone repeatedly re-plans while drifting along a corridor; each
re-plan is a CONN query over the same city.  Submitted as typed
:class:`repro.CoknnQuery` descriptions to one :class:`repro.Workspace`, the
queries share retrieved obstacles: the planner's ``explain()`` shows the
cold-vs-warm estimate, ``execute_many`` reorders the batch by spatial
locality, and later queries are served from the cache's coverage capsules —
same answers, a fraction of the I/O.

Run:  python examples/query_service.py
"""

from __future__ import annotations

import random

from repro import CoknnQuery, ConnQuery, Rect, RectObstacle, Segment, Workspace


def main() -> None:
    rng = random.Random(42)

    # A 1000 x 1000 city: 80 buildings, then 300 charging stations placed
    # outside them (a station inside a building would be unreachable).
    buildings = []
    while len(buildings) < 80:
        x, y = rng.uniform(0, 940), rng.uniform(0, 940)
        buildings.append(RectObstacle(x, y, x + rng.uniform(15, 60),
                                      y + rng.uniform(8, 25)))
    stations = []
    while len(stations) < 300:
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        if not any(b.contains_interior(x, y) for b in buildings):
            stations.append((f"station-{len(stations)}", (x, y)))

    ws = Workspace.from_points(stations, buildings)

    # Prefetch the corridor the drone patrols, then fly.
    corridor = Rect(100, 480, 900, 560)
    loaded = ws.prefetch(corridor, margin=150.0)
    print(f"prefetched {loaded} of {len(buildings)} buildings around the "
          f"corridor\n")

    # Each re-plan is a typed query description; the planner picks the
    # algorithm and estimates obstacle I/O from the cache's capsules.
    replans = [CoknnQuery(Segment(150 + 40 * i, 500 + 3 * i,
                                  280 + 40 * i, 510 + 3 * i),
                          label=f"re-plan-{i}")
               for i in range(6)]
    print(ws.plan(replans[0]).explain(), "\n")

    # execute_many reorders by spatial locality behind the scenes but
    # returns results in submission order, each with its query attached.
    for result in ws.execute_many(replans):
        s = result.stats
        owners = [o for o, _ in result.tuples()]
        print(f"{result.query.label}: {len(owners)} result intervals, "
              f"obstacle reads={s.obstacle_reads}, "
              f"cache hits/misses={s.cache_hits}/{s.cache_misses}, "
              f"served={s.cache_served} of noe={s.noe}")

    cs = ws.cache_stats
    print(f"\nworkspace totals: {cs.inserted} obstacles cached, "
          f"{cs.prefetched} prefetched, hit rate {cs.hit_rate:.0%} "
          f"({cs.hits} hits / {cs.misses} misses), "
          f"{cs.served} obstacles served from cache")

    # The same street walked twice: the repeat costs zero obstacle reads,
    # and the planner knows it will be warm before executing.
    walk = ConnQuery(Segment(400, 300, 600, 310), label="street-walk")
    first = ws.execute(walk)
    assert ws.plan(walk).warm, "the second run should plan as a cache hit"
    again = ws.execute(walk)
    assert again.tuples() == first.tuples()
    print(f"\nrepeat query: first run read {first.stats.obstacle_reads} "
          f"obstacle pages, repeat read {again.stats.obstacle_reads} "
          f"(planned warm: est. {ws.plan(walk).est_obstacle_io} reads)")


if __name__ == "__main__":
    main()
