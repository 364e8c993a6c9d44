#!/usr/bin/env python3
"""Serving one city from four shards — with answers nobody can tell apart.

A delivery platform outgrows one workspace: the city splits into a 2x2
grid of shards, each holding its own couriers and the buildings touching
its region.  This example walks the shard subsystem end to end:

1. **Partitioned build** — ``ShardedWorkspace.from_points(...)`` routes
   every courier to its owning shard and replicates boundary-straddling
   buildings into each shard they overlap.
2. **The border-expansion router** — a query near a shard edge first
   runs on its home shard; when the answer's influence ball pokes across
   the edge, the router widens the consulted set and re-runs on those
   shards in place until the answer provably cannot change.  The routing is
   visible on ``result.stats.shard``.
3. **Updates and monitors** — ``apply`` fans out only to affected
   shards; a standing query is the same monitor a single workspace runs,
   its ``home`` is the set of shards its influence ball touches, and it
   re-homes when an update drags the ball across a border.
4. **Shard-parallel batches** — ``execute_many`` groups a workload by
   home shard and schedules the groups across a worker pool.

Every answer printed here is byte-identical to the unsharded workspace's
(checked live at the end).

Run:  python examples/sharded_serving.py
"""

from __future__ import annotations

import random

from repro import (
    CoknnQuery,
    OnnQuery,
    RangeQuery,
    RectObstacle,
    Segment,
    ShardedWorkspace,
    Workspace,
)

rng = random.Random(11)

# -- A small city: a block lattice and forty couriers -------------------
blocks = [RectObstacle(8 + 18 * gx, 8 + 18 * gy,
                       20 + 18 * gx, 16 + 18 * gy)
          for gx in range(5) for gy in range(5)]
couriers = []
while len(couriers) < 40:
    x, y = rng.uniform(0, 100), rng.uniform(0, 100)
    if not any(b.contains_interior(x, y) for b in blocks):
        couriers.append((len(couriers), (x, y)))

ws = Workspace.from_points(couriers, blocks)          # the unsharded twin
sws = ShardedWorkspace.from_points(couriers, blocks, shards=4)

print("=== 1. The partitioned build ===")
print(f"partitioner : {sws.partitioner.describe()}")
for sid, shard in enumerate(sws.shards):
    print(f"  shard {sid}: {shard.data_tree.size:2d} couriers, "
          f"{shard.obstacle_tree.size:2d} obstacles")
print(f"  boundary-straddling replicas: "
      f"{sws.stats.replicated_obstacles}")

print("\n=== 2. The border-expansion router ===")
# A rider standing near the middle of the city: the nearest couriers may
# live across a shard edge, so the router has to prove the border safe.
rider = OnnQuery((48.0, 52.0), knn=3, label="rider-1")
plan = sws.plan(rider)
print(plan.explain())
result = sws.execute(rider)
block = result.stats.shard
print(f"\nrouting     : consulted shards {sorted(block.by_shard)}, "
      f"{block.border_expansions} border expansion(s)")
for courier, dist in result.tuples():
    print(f"  courier {courier:2d} at obstructed distance {dist:6.2f}")

street = CoknnQuery(Segment(30, 50, 70, 50), 2, label="street-sweep")
sweep = sws.execute(street)
print(f"\n'{street.label}' crossed {sweep.stats.shard.fanout} shard(s); "
      f"{len(sweep.tuples())} owner intervals along the street")

print("\n=== 3. Updates and monitors ===")
watch = sws.monitors.register(OnnQuery((12.0, 42.0), knn=2,
                                       label="west-watch"))
print(f"standing query homed on shard(s) {sorted(watch.home)}")
sws.add_site(900, 12.5, 42.5)        # a new courier right next door
event = watch.events[-1]
print(f"new courier nearby -> action={event.action}, "
      f"delta adds {[p for p, _d in event.delta.added]}")
# Losing both western couriers drags the influence ball across the edge:
sws.remove_site(900, 12.5, 42.5)
for payload, _dist in list(watch.result.tuples()):
    loc = next((xy for p, xy in couriers if p == payload), None)
    if loc is not None:
        sws.remove_site(payload, *loc)
print(f"after the exodus the monitor re-homed to shard(s) "
      f"{sorted(watch.home)} (rehomes so far: {sws.stats.rehomes})")

print("\n=== 4. Shard-parallel batches ===")
batch = [OnnQuery((rng.uniform(5, 95), rng.uniform(5, 95)), knn=2,
                  label=f"req-{i}") for i in range(12)]
batch.append(RangeQuery((50.0, 50.0), 18.0, label="walking-radius"))
results = sws.execute_many(batch, workers=4)
print(f"{len(results)} requests answered; cumulative routing: "
      f"{sws.stats.describe()}")

print("\n=== The punchline: nobody can tell ===")
# Bring the unsharded twin to the same dataset, then compare all answers.
still_there = {p for shard in sws.shards
               for p, _rect in shard.data_tree.items()}
for p, xy in couriers:
    if p not in still_there:
        ws.remove_site(p, *xy)
checks = [rider, street, RangeQuery((50.0, 50.0), 18.0), *batch]
assert all(ws.execute(q).tuples() == sws.execute(q).tuples()
           for q in checks)
print(f"{len(checks)} queries re-checked against the unsharded "
      "workspace: identical tuples, every one.")
