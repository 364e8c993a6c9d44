#!/usr/bin/env python3
"""Serving queries in parallel over immutable workspace snapshots.

A ride-hailing backend answers a steady mix of standing questions —
"nearest drivers along this street", "k nearest to this rider", "who is
within walking distance" — while dispatch keeps mutating the city.  This
example walks the three concurrency tools the workspace offers:

1. **Snapshots** — ``ws.snapshot()`` pins one version of the indexes,
   the obstacle cache, and the shared visibility graph.  Queries executed
   through the snapshot either all see that version or raise
   ``SnapshotExpired`` — never a half-applied update.
2. **Parallel batches** — ``snapshot.execute_many(qs, workers=4)``
   partitions the batch's spatial locality buckets across a worker pool.
   Results are identical to serial execution, in submission order; only
   the wall clock changes.
3. **The async front** — ``ws.service.submit(q)`` returns a future
   immediately, so request handlers never block each other; updates
   applied between submissions wait only for in-flight queries (an
   "epoch wait"), and every query sees a consistent version.

Run:  python examples/concurrent_serving.py
"""

from __future__ import annotations

import random

from repro import (
    AddSite,
    CoknnQuery,
    ConnQuery,
    OnnQuery,
    RangeQuery,
    RectObstacle,
    Segment,
    SnapshotExpired,
    Workspace,
)
from repro.query.parallel import last_batch_stats

rng = random.Random(4)

# -- A small city: a block lattice and forty drivers --------------------
blocks = [RectObstacle(8 + 18 * gx, 8 + 18 * gy,
                       20 + 18 * gx, 16 + 18 * gy)
          for gx in range(5) for gy in range(5)]
drivers = []
while len(drivers) < 40:
    x, y = rng.uniform(0, 100), rng.uniform(0, 100)
    if not any(b.contains_interior(x, y) for b in blocks):
        drivers.append((f"driver-{len(drivers)}", (x, y)))

ws = Workspace.from_points(drivers, blocks)
ws.prefetch_all()  # warm the obstacle cache: no query reads the tree again

# -- 1. A consistent snapshot for one request burst ---------------------
requests = [
    ConnQuery(Segment(5, 30, 95, 30), label="main-street"),
    CoknnQuery(Segment(40, 5, 40, 95), 3, label="cross-town"),
    OnnQuery((52.0, 48.0), 3, label="rider-at-plaza"),
    RangeQuery((25.0, 70.0), 22.0, label="walkable"),
] + [OnnQuery((rng.uniform(5, 95), rng.uniform(5, 95)), 2,
              label=f"rider-{i}") for i in range(20)]

snap = ws.snapshot()
print(f"snapshot: {snap!r}")

serial = snap.execute_many(requests)

# -- 2. The same burst on a worker pool: identical answers --------------
parallel = snap.execute_many(requests, workers=4)
assert [r.tuples() for r in parallel] == [r.tuples() for r in serial]
stats = last_batch_stats()
print(f"parallel batch: {stats.describe()}")

# A snapshot plans against the version it pinned:
plan = snap.plan(CoknnQuery(Segment(10, 10, 90, 90), 2))
print("\n" + plan.explain())

# -- 3. Updates expire snapshots; the async front stays consistent ------
ws.apply([AddSite("driver-new", 50.0, 52.0)])
try:
    snap.execute(requests[0])
except SnapshotExpired as exc:
    print(f"\nexpired as expected: {exc}")

with ws.service.serve(workers=3) as svc:
    futures = [svc.submit(q) for q in requests[:6]]
    # Interleave an update with the in-flight queries: it waits for the
    # epoch to drain, then every later query sees the new driver.
    ws.apply([AddSite("driver-late", 55.0, 31.0)])
    answers = [f.result() for f in futures]
print(f"\nasync front answered {len(answers)} queries; "
      f"epoch waits so far: {ws.epoch_waits}, "
      f"snapshots taken: {ws.snapshots_taken}")
print(f"workspace now at version {ws.version} with "
      f"{ws.routing.stats.graph_clones} shared-graph clones provisioned")
