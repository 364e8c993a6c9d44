#!/usr/bin/env python3
"""Cold-start and churn lifecycle of the shared visibility-graph backend.

Two workloads where graph *lifecycle* — not traversal — dominates the
shared backend's cost, each checked against the per-query backend:

* **cold** — a corridor of CONN queries with the shared backend
  invalidated before every query, so each round pays a full
  build-to-ready: ``warm()`` cuts every adjacency row in one batched
  visibility pass.  The time-to-ready per round is reported separately
  from the query wall.
* **churn** — an interleaved insert/query/remove/query storm against one
  long-lived shared workspace.  Each removal is repaired surgically
  (delete the obstacle's vertices, re-test only the absent sight-line
  pairs whose segments cross its padded bbox, keep every unaffected row
  and traversal memo); the removal-to-ready wall is reported.

The identity guard: every shared-backend answer must equal, exactly (no
tolerance on interval endpoints), the answer of a per-query-backend
workspace that replays the same script — a fresh local graph per query,
which is what a full rebuild would serve.  The run also fails when a
cold round reuses a graph, when nothing was materialized in bulk, or when
a removal was absorbed by anything but a surgical repair.  Wall times are
reported, not gated: ``perfbench/`` (``BENCHMARK.json``) measures the
lifecycle paths end to end, with repeats.

The scene mixes all three obstacle kinds (rects, wall segments, convex
polygons).

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_cold_churn.py
    PYTHONPATH=src python benchmarks/bench_cold_churn.py --queries 20
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import List, Sequence, Tuple

from _emit import add_emit_argument, emit

from repro import (
    ConnQuery,
    PlannerOptions,
    PolygonObstacle,
    RectObstacle,
    Segment,
    SegmentObstacle,
    Workspace,
)

def build_scene(args) -> tuple:
    """A mixed-kind building lattice plus scattered reachable points."""
    rng = random.Random(args.seed)
    side = args.obstacle_side
    step = (100.0 - 6.0) / side
    f = args.obstacle_fill
    obstacles = []
    for gx in range(side):
        for gy in range(side):
            x, y = 3.0 + step * gx, 3.0 + step * gy
            w, h = f * step, 0.75 * f * step
            kind = (gx + gy) % 3
            if kind == 0:
                obstacles.append(SegmentObstacle(x, y, x + w, y + h))
            elif kind == 1:
                obstacles.append(RectObstacle(x, y, x + w, y + h))
            else:
                obstacles.append(PolygonObstacle(
                    [(x, y), (x + w, y), (x + 0.5 * w, y + h)]))
    points = []
    while len(points) < args.points:
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        if not any(getattr(o, "contains_interior", lambda *_: False)(x, y)
                   for o in obstacles):
            points.append((len(points), (x, y)))
    return points, obstacles


def corridor_queries(args) -> List[ConnQuery]:
    """Repeated and nearby CONN segments along one corridor."""
    rng = random.Random(args.seed + 1)
    queries = []
    for i in range(args.queries):
        y = 50.0 + rng.uniform(-4.0, 4.0)
        ax = rng.uniform(5.0, 25.0)
        queries.append(ConnQuery(Segment(ax, y, ax + rng.uniform(25, 55), y),
                                 label=f"corridor-{i}"))
    return queries


def churn_script(args, points) -> List[Tuple]:
    """Deterministic (obstacle, query-after-insert, query-after-remove)
    rounds near the corridor, replayed verbatim by both backends."""
    rng = random.Random(args.seed + 5)
    rounds = []
    for i in range(args.churn_rounds):
        while True:
            x = rng.uniform(15.0, 75.0)
            y = 50.0 + rng.uniform(-8.0, 6.0)
            obstacle = RectObstacle(x, y, x + rng.uniform(1.0, 3.0),
                                    y + rng.uniform(1.0, 3.0))
            if not any(obstacle.contains_interior(px, py)
                       for _, (px, py) in points):
                break
        queries = []
        for tag in ("in", "out"):
            qy = 50.0 + rng.uniform(-4.0, 4.0)
            qx = rng.uniform(5.0, 25.0)
            queries.append(ConnQuery(
                Segment(qx, qy, qx + rng.uniform(25, 55), qy),
                label=f"churn-{i}-{tag}"))
        rounds.append((obstacle, queries[0], queries[1]))
    return rounds


def exact_snapshot(results) -> list:
    """Byte-exact view of answers: owners and *unrounded* interval
    endpoints, so the identity guard is genuine float equality."""
    return [[(owner, lo, hi) for owner, (lo, hi) in res.tuples()]
            for res in results]


def arm_row(label: str, ws: Workspace, ready_wall: float,
            query_wall: float) -> dict:
    stats = (ws.routing.stats if label == "shared"
             else ws.per_query_backend.stats)
    return {
        "label": label,
        "builds": stats.graphs_built,
        "invalidations": stats.invalidations,
        "bulk_rows": stats.rows_bulk_materialized,
        "bulk_launches": stats.bulk_pair_launches,
        "repairs": stats.graph_repairs,
        "repair_retests": stats.repair_retested_pairs,
        "batch_calls": stats.batch_visibility_calls,
        "ready_wall_s": ready_wall,
        "query_wall_s": query_wall,
        "e2e_wall_s": ready_wall + query_wall,
    }


def make_workspace(args, backend: str) -> Workspace:
    points, obstacles = build_scene(args)
    ws = Workspace.from_points(points, obstacles, page_size=args.page_size,
                               planner=PlannerOptions(backend=backend))
    ws.prefetch_all()  # both backends measure graph work, never page I/O
    return ws


def run_cold(args, backend: str) -> dict:
    """Every round: invalidate, time warm-to-ready, then run the query.

    On the shared backend the ready wall is the materialization
    (``warm()``) time; the query wall is traversal on an already-ready
    backend.  The per-query backend has nothing to warm: it builds a
    fresh graph inside every query.
    """
    ws = make_workspace(args, backend)
    shared = backend == "shared"
    queries = corridor_queries(args)
    if shared:
        ws.routing.warm()
    ws.execute(queries[0])  # interpreter/cache warmup; not measured
    ready_wall = query_wall = 0.0
    answers = []
    for q in queries:
        if shared:
            ws.routing.invalidate()
            t0 = time.perf_counter()
            ws.routing.warm()
            ready_wall += time.perf_counter() - t0
        t0 = time.perf_counter()
        answers.append(ws.execute(q))
        query_wall += time.perf_counter() - t0
    row = arm_row(backend, ws, ready_wall, query_wall)
    row["answers"] = exact_snapshot(answers)
    return row


def run_churn(args, backend: str) -> dict:
    """Interleaved insert/query/remove/query storm on one workspace.

    On the shared backend the ready wall is removal-to-ready: the
    removal itself plus the ``warm()`` that confirms a fully
    materialized backend (a surgical repair leaves it ready).  Each
    insert is followed by a ``warm()`` too, reported as the insert wall,
    so the removal wall starts from a fully current graph and measures
    only removal work.
    """
    ws = make_workspace(args, backend)
    shared = backend == "shared"
    points, _ = build_scene(args)
    rounds = churn_script(args, points)
    if shared:
        ws.routing.warm()
    ws.execute(corridor_queries(args)[0])  # warmup; not measured
    ready_wall = query_wall = insert_wall = 0.0
    answers = []
    for obstacle, q_in, q_out in rounds:
        t0 = time.perf_counter()
        ws.add_obstacle(obstacle)
        if shared:
            ws.routing.warm()
        insert_wall += time.perf_counter() - t0
        t0 = time.perf_counter()
        answers.append(ws.execute(q_in))
        query_wall += time.perf_counter() - t0
        t0 = time.perf_counter()
        if not ws.remove_obstacle(obstacle):
            raise AssertionError("churn removal lost its obstacle")
        if shared:
            ws.routing.warm()
        ready_wall += time.perf_counter() - t0
        t0 = time.perf_counter()
        answers.append(ws.execute(q_out))
        query_wall += time.perf_counter() - t0
    row = arm_row(backend, ws, ready_wall, query_wall)
    row["insert_wall_s"] = insert_wall
    row["answers"] = exact_snapshot(answers)
    return row


def first_mismatch(a: list, b: list) -> "int | None":
    """Index of the first non-identical answer, or None when byte-equal."""
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def print_table(title: str, rows: Sequence[dict]) -> None:
    print(f"\n{title}")
    print(f"  {'backend':>10}  {'builds':>6}  {'bulk rows':>9}  "
          f"{'launches':>8}  {'repairs':>7}  {'retests':>7}  "
          f"{'ready s':>8}  {'query s':>8}")
    for r in rows:
        print(f"  {r['label']:>10}  {r['builds']:>6}  {r['bulk_rows']:>9}  "
              f"{r['bulk_launches']:>8}  {r['repairs']:>7}  "
              f"{r['repair_retests']:>7}  {r['ready_wall_s']:>8.3f}  "
              f"{r['query_wall_s']:>8.3f}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold build-to-ready and removal-to-ready of the shared "
                    "backend, answers checked against the per-query "
                    "backend.")
    parser.add_argument("--points", type=int, default=50)
    parser.add_argument("--obstacle-side", type=int, default=7,
                        help="buildings per axis (side^2 obstacles, "
                             "kinds cycling rect/segment/polygon)")
    parser.add_argument("--obstacle-fill", type=float, default=0.5,
                        help="obstacle footprint as a fraction of the "
                             "lattice step")
    parser.add_argument("--queries", type=int, default=60,
                        help="cold corridor queries (one shared-backend "
                             "build each)")
    parser.add_argument("--churn-rounds", type=int, default=20,
                        help="insert/query/remove/query rounds in the "
                             "churn workload")
    parser.add_argument("--page-size", type=int, default=256)
    parser.add_argument("--seed", type=int, default=11)
    add_emit_argument(parser)
    args = parser.parse_args(argv)

    failures = []

    cold = run_cold(args, "shared")
    cold_ref = run_cold(args, "per-query")
    print_table(f"Cold builds — {args.queries} corridor queries, shared "
                f"backend invalidated and re-warmed before each",
                (cold, cold_ref))
    bad = first_mismatch(cold["answers"], cold_ref["answers"])
    if bad is not None:
        failures.append(f"cold answers differ from the per-query backend "
                        f"at query {bad} (answers must be byte-identical)")
    if cold["builds"] <= args.queries:
        failures.append(f"cold workload reused a graph across "
                        f"invalidations ({cold['builds']} builds <= "
                        f"{args.queries})")
    if cold["bulk_rows"] == 0:
        failures.append("cold builds materialized no rows in bulk")
    print(f"\n  build-to-ready: {cold['ready_wall_s']:.3f}s for "
          f"{args.queries} builds ({cold['bulk_rows']} rows in "
          f"{cold['bulk_launches']} bulk launches)")

    churn = run_churn(args, "shared")
    churn_ref = run_churn(args, "per-query")
    print_table(f"Removal churn — {args.churn_rounds} insert/query/remove/"
                f"query rounds, one workspace per backend",
                (churn, churn_ref))
    bad = first_mismatch(churn["answers"], churn_ref["answers"])
    if bad is not None:
        failures.append(f"churn answers differ from the per-query backend "
                        f"at answer {bad} (answers must be byte-identical)")
    if churn["repairs"] < args.churn_rounds:
        failures.append(f"removals were not all repaired in place "
                        f"({churn['repairs']} repairs < "
                        f"{args.churn_rounds} removals)")
    if churn["builds"] != 1 or churn["invalidations"]:
        failures.append(f"churn rebuilt the shared graph "
                        f"({churn['builds']} builds, "
                        f"{churn['invalidations']} invalidations)")
    print(f"\n  removal-to-ready: {churn['ready_wall_s']:.3f}s for "
          f"{churn['repairs']} surgical repairs "
          f"({churn['repair_retests']} pairs retested)")

    def strip(row: dict) -> dict:
        return {k: v for k, v in row.items() if k != "answers"}

    emit("bench_cold_churn", {
        "workload": {"queries": args.queries,
                     "churn_rounds": args.churn_rounds,
                     "points": args.points,
                     "obstacles": args.obstacle_side ** 2,
                     "obstacle_fill": args.obstacle_fill,
                     "seed": args.seed},
        "cold": {"shared": strip(cold), "per_query": strip(cold_ref)},
        "churn": {"shared": strip(churn), "per_query": strip(churn_ref)},
    }, path=args.emit)

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nOK: shared-backend answers equal the per-query backend's; "
          "every removal repaired in place")
    return 0


if __name__ == "__main__":
    sys.exit(main())
