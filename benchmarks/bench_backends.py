#!/usr/bin/env python3
"""Shared vs per-query obstructed-distance backends.

Two workloads where the distance substrate — not the query algorithm —
dominates cost (Zhao, Taniar & Harabor 2018):

* **repeated-query** — a warm workspace answers many CONN queries over
  one corridor on a *static* obstacle set.  The per-query backend builds
  (and visibility-tests) a fresh local graph every time; the shared
  backend builds the workspace graph once and reuses the obstacle
  skeleton, so the guard asserts **zero rebuilds across the whole
  workload** and identical results.
* **monitor-storm** — registered monitors are kept fresh while clustered
  updates mutate one neighborhood.  Every repair span is a sub-query;
  the shared backend serves them all from one graph, patching announced
  obstacle inserts in place.

Reported per arm: visibility-graph builds, Dijkstra runs vs memoized
replays, settled nodes, visibility tests, obstacle page reads, wall time.
Exits non-zero when the shared backend rebuilds on the static workload,
fails to reuse across monitor repairs, or disagrees with the per-query
backend on any answer (the guard CI runs).

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_backends.py
    PYTHONPATH=src python benchmarks/bench_backends.py --queries 200
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import random
import sys
import time
from typing import List, Sequence

import numpy as np

from _emit import add_emit_argument, emit

from repro import (
    ConnQuery,
    PlannerOptions,
    RectObstacle,
    Segment,
    Workspace,
)
from repro.service.updates import AddObstacle, AddSite, RemoveSite, Update


def build_scene(args) -> tuple:
    """A building lattice plus scattered reachable data points."""
    rng = random.Random(args.seed)
    side = args.obstacle_side
    step = (100.0 - 6.0) / side
    obstacles = [RectObstacle(3 + step * gx, 3 + step * gy,
                              3 + step * gx + 0.4 * step,
                              3 + step * gy + 0.3 * step)
                 for gx in range(side) for gy in range(side)]
    points = []
    while len(points) < args.points:
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        if not any(o.contains_interior(x, y) for o in obstacles):
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


def storm_updates(args, obstacles) -> List[Update]:
    """Clustered site churn and obstacle inserts near one hot spot."""
    rng = random.Random(args.seed + 2)
    hx, hy = 50.0, 50.0
    updates: List[Update] = []
    live = []
    next_id = 100_000
    for _ in range(args.updates):
        roll = rng.random()
        x, y = hx + rng.uniform(-8, 8), hy + rng.uniform(-8, 8)
        if roll < 0.5 and not any(o.contains_interior(x, y)
                                  for o in obstacles):
            updates.append(AddSite(next_id, x, y))
            live.append((next_id, (x, y)))
            next_id += 1
        elif roll < 0.7 and live:
            pid, (px, py) = live.pop(rng.randrange(len(live)))
            updates.append(RemoveSite(pid, px, py))
        else:
            updates.append(AddObstacle(
                RectObstacle(x, y, x + rng.uniform(0.4, 1.5),
                             y + rng.uniform(0.4, 1.2))))
    return updates


def snapshot(results) -> list:
    """Comparable view of answers (owners + rounded geometry)."""
    out = []
    for res in results:
        out.append([(owner, round(lo, 6), round(hi, 6))
                    for owner, (lo, hi) in res.tuples()])
    return out


def backend_row(label: str, ws: Workspace, wall: float, reads: int) -> dict:
    stats = ws.routing.stats if label == "shared" else \
        ws.per_query_backend.stats
    return {
        "label": label,
        "builds": stats.graphs_built,
        "reuses": stats.graph_reuses,
        "rebuilds": stats.invalidations,
        "runs": stats.dijkstra_runs,
        "replays": stats.dijkstra_replays,
        "settled": stats.nodes_settled,
        "vtests": stats.visibility_tests,
        "batch_calls": stats.batch_visibility_calls,
        "batched_edges": stats.batched_edges_tested,
        "pruned_edges": stats.kernel_pruned_edges,
        "bulk_pushes": stats.heap_bulk_pushes,
        "reads": reads,
        "wall_s": wall,
    }


def dump_profile(prof: cProfile.Profile, arm: str, top: int = 25,
                 out: "str | None" = None) -> None:
    """Top-``top`` cumulative-time profile lines for one arm.

    By default the dump goes to stderr, which keeps it out of stdout's
    result tables and out of any shell redirection capturing the
    benchmark's machine-readable output.  With ``out`` set, each arm's
    dump is appended to that file instead so CI can upload the profiles
    as a build artifact rather than losing them in log scrollback.
    """
    header = f"\n--- profile: {arm} (top {top} by cumulative time) ---"
    if out:
        with open(out, "a") as fh:
            print(header, file=fh)
            stats = pstats.Stats(prof, stream=fh)
            stats.strip_dirs().sort_stats("cumulative").print_stats(top)
        return
    print(header, file=sys.stderr)
    stats = pstats.Stats(prof, stream=sys.stderr)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)


def run_repeated(args, backend: str) -> dict:
    points, obstacles = build_scene(args)
    ws = Workspace.from_points(points, obstacles, page_size=args.page_size,
                               planner=PlannerOptions(backend=backend))
    queries = corridor_queries(args)
    ws.execute(queries[0])  # warm the cache; not part of the measured run
    snap = ws.obstacle_tree.tracker.stats.snapshot()
    prof = cProfile.Profile() if getattr(args, "profile", False) else None
    if prof is not None:
        prof.enable()
    started = time.perf_counter()
    results = [ws.execute(q) for q in queries]
    wall = time.perf_counter() - started
    if prof is not None:
        prof.disable()
        dump_profile(prof, backend, out=getattr(args, "profile_out", None))
    reads = ws.obstacle_tree.tracker.stats.delta(snap).logical_reads
    row = backend_row("shared" if backend == "shared" else "per-query",
                      ws, wall, reads)
    row["answers"] = snapshot(results)
    return row


def run_storm(args, backend: str) -> dict:
    points, obstacles = build_scene(args)
    ws = Workspace.from_points(points, obstacles, page_size=args.page_size,
                               planner=PlannerOptions(backend=backend))
    rng = random.Random(args.seed + 3)
    monitors = []
    for i in range(args.monitors):
        ax, ay = rng.uniform(35, 65), rng.uniform(42, 58)
        seg = Segment(ax, ay, min(95.0, ax + rng.uniform(10, 18)), ay)
        monitors.append(ws.monitors.register(ConnQuery(seg,
                                                       label=f"mon-{i}")))
    updates = storm_updates(args, obstacles)
    started = time.perf_counter()
    ws.apply(updates)
    wall = time.perf_counter() - started
    row = backend_row("shared" if backend == "shared" else "per-query",
                      ws, wall, 0)
    row["reads"] = ws.cache_stats.fetched
    row["answers"] = snapshot([m.result for m in monitors])
    row["patched"] = ws.routing.stats.patched
    row["sessions"] = (ws.routing.stats.sessions if backend == "shared"
                       else ws.per_query_backend.stats.sessions)
    return row


def print_table(title: str, rows: Sequence[dict]) -> None:
    print(f"\n{title}")
    print(f"  {'backend':>10}  {'VG builds':>9}  {'reuses':>7}  "
          f"{'dijkstra':>9}  {'replays':>8}  {'settled':>8}  "
          f"{'vis tests':>10}  {'obst reads':>10}  {'wall s':>7}")
    for r in rows:
        print(f"  {r['label']:>10}  {r['builds']:>9}  {r['reuses']:>7}  "
              f"{r['runs']:>9}  {r['replays']:>8}  {r['settled']:>8}  "
              f"{r['vtests']:>10}  {r['reads']:>10}  {r['wall_s']:>7.3f}")


def answers_agree(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for ta, tb in zip(ra, rb):
            if ta[0] != tb[0]:
                return False
            if any(abs(x - y) > 1e-5 for x, y in zip(ta[1:], tb[1:])
                   if np.isfinite(x) or np.isfinite(y)):
                return False
    return True


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Shared vs per-query obstructed-distance backends.")
    parser.add_argument("--points", type=int, default=50)
    parser.add_argument("--obstacle-side", type=int, default=7,
                        help="buildings per axis (side^2 obstacles)")
    parser.add_argument("--queries", type=int, default=60,
                        help="warm repeated-query workload size (>= 50 "
                             "exercises the zero-rebuild guard)")
    parser.add_argument("--monitors", type=int, default=4)
    parser.add_argument("--updates", type=int, default=10)
    parser.add_argument("--page-size", type=int, default=256)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--profile", action="store_true",
                        help="cProfile every measured arm and dump the top "
                             "functions by cumulative time to stderr "
                             "(the walls reported while profiling carry "
                             "tracer overhead — don't gate on them)")
    parser.add_argument("--profile-out", default=None, metavar="FILE",
                        help="append each arm's profile dump to FILE "
                             "instead of stderr (implies --profile); lets "
                             "CI keep profiles as an artifact")
    add_emit_argument(parser)
    args = parser.parse_args(argv)
    if args.profile_out:
        args.profile = True
        # Arms append as they finish; truncate once so reruns don't stack.
        open(args.profile_out, "w").close()

    failures = []

    shared = run_repeated(args, "shared")
    per = run_repeated(args, "per-query")
    print_table(f"Repeated-query workload — {args.queries} warm CONN "
                f"queries, static obstacles", (shared, per))
    if not answers_agree(shared["answers"], per["answers"]):
        failures.append("repeated-query answers disagree across backends")
    if shared["builds"] > 1 or shared["rebuilds"] > 0:
        failures.append(
            f"shared backend rebuilt on a static workload "
            f"({shared['builds']} builds, {shared['rebuilds']} rebuilds)")
    if per["builds"] < args.queries:
        failures.append("per-query backend did not build per query "
                        f"({per['builds']} < {args.queries})")

    s_storm = run_storm(args, "shared")
    p_storm = run_storm(args, "per-query")
    print_table(f"Monitor-storm workload — {args.monitors} monitors, "
                f"{args.updates} clustered updates", (s_storm, p_storm))
    print(f"\n  shared backend: {s_storm['sessions']} repair sessions on "
          f"{s_storm['builds']} graph build(s), {s_storm['patched']} "
          f"obstacle inserts patched in place")
    if not answers_agree(s_storm["answers"], p_storm["answers"]):
        failures.append("monitor-storm standing results disagree")
    if s_storm["sessions"] > 0 and \
            s_storm["builds"] >= s_storm["sessions"]:
        failures.append("monitor repairs did not reuse the shared graph")

    def strip(row: dict) -> dict:
        return {k: v for k, v in row.items() if k != "answers"}

    emit("bench_backends", {
        "workload": {"queries": args.queries, "points": args.points,
                     "monitors": args.monitors, "updates": args.updates,
                     "seed": args.seed},
        "repeated_query": {"shared": strip(shared), "per_query": strip(per)},
        "monitor_storm": {"shared": strip(s_storm),
                          "per_query": strip(p_storm)},
        "identical_results": not failures,
    }, path=args.emit)

    if failures:
        for f in failures:
            print(f"\nERROR: {f}")
        return 1
    saved = per["builds"] - shared["builds"]
    print(f"\n  identical results; shared backend avoided {saved} "
          f"visibility-graph builds on the warm workload "
          f"({shared['vtests']} vs {per['vtests']} visibility tests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
