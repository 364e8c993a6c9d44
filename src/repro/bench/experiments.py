"""Experiment drivers regenerating every figure of the paper's evaluation.

Figures 9-13 of the paper (Section 5.2) are each a sweep of one parameter of
Table 2 with the others at their defaults:

* Figure 9  — query length ``ql``  (CL, k=5): time/NPE/NOE + |SVG| vs FULL
* Figure 10 — ``k``                (CL, ql=4.5%)
* Figure 11 — ``|P|/|O|``          (UL and ZL, k=5, ql=4.5%)
* Figure 12 — LRU buffer size      (CL and UL, k=5, ql=4.5%)
* Figure 13 — 1T vs 2T             (across ql, k, |P|/|O|)

Run from the command line::

    python -m repro.bench.experiments --figure 9 --scale small
    python -m repro.bench.experiments --all --scale tiny

``--scale`` trades fidelity for runtime: ``paper`` uses the original
cardinalities (|CA| = 60,344, |LA| = 131,461 — hours in pure Python),
``default`` is 10x smaller, ``small``/``tiny`` are for smoke runs and the
tests.  Curve shapes, not absolute times, are the reproduction target.
"""

from __future__ import annotations

import argparse
import random
from typing import Dict, List, Sequence, Tuple

from ..core import DEFAULT_CONFIG, ConnConfig, coknn, coknn_single_tree
from ..core.conn_1t import build_unified_tree
from ..core.stats import QueryStats
from ..datasets import (
    CA_SIZE,
    LA_SIZE,
    california_like_points,
    la_street_obstacles,
    reject_inside_obstacles,
    uniform_points,
    zipf_points,
)
from ..geometry.rectangle import Rect
from ..geometry.segment import Segment
from ..index.buffer import LRUBuffer
from ..index.rstar import RStarTree
from ..obstacles.obstacle import Obstacle
from .metrics import AggregateStats, Row, format_table
from .workloads import query_workload

PARAM_GRID: Dict[str, Sequence[float]] = {
    # The paper's Table 2; defaults in PARAM_DEFAULTS.
    "ql": (1.5, 3.0, 4.5, 6.0, 7.5),          # % of data space side
    "k": (1, 3, 5, 7, 9),
    "ratio": (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0),   # |P| / |O|
    "buffer": (0, 1, 2, 4, 8, 16, 32),        # % of tree size
}

PARAM_DEFAULTS: Dict[str, float] = {"ql": 4.5, "k": 5, "ratio": 0.5, "buffer": 0}

SCALES: Dict[str, float] = {
    "paper": 1.0,      # original cardinalities (very slow in pure Python)
    "default": 0.1,
    "small": 0.02,
    "tiny": 0.005,
}

QUERIES_PER_SCALE: Dict[str, int] = {
    "paper": 100,      # as in the paper
    "default": 10,
    "small": 6,
    "tiny": 3,
}

PAGE_SIZE = 4096


# ----------------------------------------------------------------- datasets
_dataset_cache: Dict[tuple, tuple] = {}


def make_dataset(combo: str, scale: str, ratio: float | None = None,
                 seed: int = 0) -> Tuple[List[Tuple[int, Tuple[float, float]]],
                                         List[Obstacle]]:
    """Points and obstacles for a dataset combination of Section 5.1.

    Args:
        combo: ``CL`` (CA-like, LA-like), ``UL`` (uniform, LA-like) or ``ZL``
            (zipf, LA-like).
        scale: key of :data:`SCALES`.
        ratio: |P|/|O| for UL/ZL (defaults to the paper's bold value).
    """
    if ratio is None:
        ratio = PARAM_DEFAULTS["ratio"]
    key = (combo, scale, round(ratio, 4), seed)
    if key in _dataset_cache:
        return _dataset_cache[key]
    factor = SCALES[scale]
    rng = random.Random(10_000 + seed)
    n_obs = max(20, round(LA_SIZE * factor))
    obstacles = la_street_obstacles(n_obs, rng)
    if combo == "CL":
        n_pts = max(10, round(CA_SIZE * factor))
        raw = california_like_points(n_pts, rng)
    elif combo == "UL":
        n_pts = max(10, round(n_obs * ratio))
        raw = uniform_points(n_pts, rng)
    elif combo == "ZL":
        n_pts = max(10, round(n_obs * ratio))
        raw = zipf_points(n_pts, rng)
    else:
        raise ValueError(f"unknown dataset combination {combo!r}")
    pts = reject_inside_obstacles(raw, obstacles, rng)
    points = list(enumerate(pts))
    _dataset_cache[key] = (points, obstacles)
    return points, obstacles


def build_trees(points, obstacles,
                page_size: int = PAGE_SIZE) -> Tuple[RStarTree, RStarTree]:
    """Bulk-load the 2T layout: one R*-tree for P, one for O."""
    data_tree = RStarTree.bulk_load(
        ((pid, Rect.point(x, y)) for pid, (x, y) in points), page_size=page_size)
    obstacle_tree = RStarTree.bulk_load(
        ((o, o.mbr()) for o in obstacles), page_size=page_size)
    return data_tree, obstacle_tree


# ------------------------------------------------------------------- runner
def run_batch(points, obstacles, queries: Sequence[Segment], k: int,
              mode: str = "2T", buffer_pct: float = 0.0,
              warmup: int = 0,
              config: ConnConfig = DEFAULT_CONFIG) -> AggregateStats:
    """Answer a query batch and average the paper's metrics.

    Args:
        mode: ``2T`` (separate trees) or ``1T`` (unified tree).
        buffer_pct: LRU buffer capacity as % of each tree's page count.
        warmup: leading queries excluded from the reported averages (used by
            the buffer experiment to fill the pool first).
    """
    if mode == "2T":
        data_tree, obstacle_tree = build_trees(points, obstacles)
        trees = [data_tree, obstacle_tree]
    elif mode == "1T":
        unified = build_unified_tree(points, obstacles, page_size=PAGE_SIZE)
        trees = [unified]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if buffer_pct > 0:
        for tree in trees:
            capacity = max(1, round(tree.num_pages * buffer_pct / 100.0))
            tree.attach_buffer(LRUBuffer(capacity))
    collected: List[QueryStats] = []
    for i, q in enumerate(queries):
        if mode == "2T":
            result = coknn(data_tree, obstacle_tree, q, k=k, config=config)
        else:
            result = coknn_single_tree(unified, q, k=k, config=config)
        if i >= warmup:
            collected.append(result.stats)
    return AggregateStats.of(collected)


def _queries_for(obstacles, count: int, ql: float, seed: int = 1) -> List[Segment]:
    return query_workload(random.Random(20_000 + seed), count, ql, obstacles)


# ------------------------------------------------------------------ figures
def figure9(scale: str = "small", queries: int | None = None,
            config: ConnConfig = DEFAULT_CONFIG) -> List[Row]:
    """Figure 9: COkNN performance and |SVG| vs query length (CL, k=5)."""
    queries = queries if queries is not None else QUERIES_PER_SCALE[scale]
    points, obstacles = make_dataset("CL", scale)
    full = 4 * len(obstacles)
    rows: List[Row] = []
    for ql in PARAM_GRID["ql"]:
        batch = _queries_for(obstacles, queries, ql)
        agg = run_batch(points, obstacles, batch, k=int(PARAM_DEFAULTS["k"]),
                        config=config)
        rows.append(Row(label=f"{ql:g}%", agg=agg, extra={"full_svg": full}))
    return rows


def figure10(scale: str = "small", queries: int | None = None,
             config: ConnConfig = DEFAULT_CONFIG) -> List[Row]:
    """Figure 10: COkNN performance and |SVG| vs k (CL, ql = 4.5 %)."""
    queries = queries if queries is not None else QUERIES_PER_SCALE[scale]
    points, obstacles = make_dataset("CL", scale)
    batch = _queries_for(obstacles, queries, PARAM_DEFAULTS["ql"])
    full = 4 * len(obstacles)
    rows: List[Row] = []
    for k in PARAM_GRID["k"]:
        agg = run_batch(points, obstacles, batch, k=int(k), config=config)
        rows.append(Row(label=str(int(k)), agg=agg, extra={"full_svg": full}))
    return rows


def figure11(scale: str = "small", queries: int | None = None,
             combos: Sequence[str] = ("UL", "ZL"),
             config: ConnConfig = DEFAULT_CONFIG) -> Dict[str, List[Row]]:
    """Figure 11: COkNN performance vs |P|/|O| (UL and ZL, k=5, ql=4.5%)."""
    queries = queries if queries is not None else QUERIES_PER_SCALE[scale]
    out: Dict[str, List[Row]] = {}
    for combo in combos:
        rows: List[Row] = []
        for ratio in PARAM_GRID["ratio"]:
            points, obstacles = make_dataset(combo, scale, ratio=ratio)
            batch = _queries_for(obstacles, queries, PARAM_DEFAULTS["ql"])
            agg = run_batch(points, obstacles, batch,
                            k=int(PARAM_DEFAULTS["k"]), config=config)
            rows.append(Row(label=f"{ratio:g}", agg=agg,
                            extra={"full_svg": 4 * len(obstacles)}))
        out[combo] = rows
    return out


def figure12(scale: str = "small", queries: int | None = None,
             combos: Sequence[str] = ("CL", "UL"),
             config: ConnConfig = DEFAULT_CONFIG) -> Dict[str, List[Row]]:
    """Figure 12: COkNN performance vs LRU buffer size (CL and UL).

    As in the paper, the first half of the workload warms the buffer and only
    the second half is reported.
    """
    queries = queries if queries is not None else QUERIES_PER_SCALE[scale]
    out: Dict[str, List[Row]] = {}
    for combo in combos:
        points, obstacles = make_dataset(combo, scale)
        batch = _queries_for(obstacles, queries * 2, PARAM_DEFAULTS["ql"])
        rows: List[Row] = []
        for bs in PARAM_GRID["buffer"]:
            agg = run_batch(points, obstacles, batch,
                            k=int(PARAM_DEFAULTS["k"]),
                            buffer_pct=float(bs), warmup=queries,
                            config=config)
            rows.append(Row(label=f"{bs:g}%", agg=agg))
        out[combo] = rows
    return out


def figure13(scale: str = "small", queries: int | None = None,
             config: ConnConfig = DEFAULT_CONFIG) -> Dict[str, List[Row]]:
    """Figure 13: 1T vs 2T total query time across ql, k and |P|/|O|."""
    queries = queries if queries is not None else QUERIES_PER_SCALE[scale]
    out: Dict[str, List[Row]] = {}
    for combo in ("CL", "UL"):
        points, obstacles = make_dataset(combo, scale)
        rows: List[Row] = []
        for ql in PARAM_GRID["ql"]:
            batch = _queries_for(obstacles, queries, ql)
            agg2 = run_batch(points, obstacles, batch,
                             k=int(PARAM_DEFAULTS["k"]), mode="2T",
                             config=config)
            agg1 = run_batch(points, obstacles, batch,
                             k=int(PARAM_DEFAULTS["k"]), mode="1T",
                             config=config)
            rows.append(Row(label=f"ql={ql:g}%", agg=agg2,
                            extra={"time_1T_ms": agg1.total_time_ms,
                                   "time_2T_ms": agg2.total_time_ms}))
        for k in PARAM_GRID["k"]:
            batch = _queries_for(obstacles, queries, PARAM_DEFAULTS["ql"])
            agg2 = run_batch(points, obstacles, batch, k=int(k), mode="2T",
                             config=config)
            agg1 = run_batch(points, obstacles, batch, k=int(k), mode="1T",
                             config=config)
            rows.append(Row(label=f"k={int(k)}", agg=agg2,
                            extra={"time_1T_ms": agg1.total_time_ms,
                                   "time_2T_ms": agg2.total_time_ms}))
        out[combo] = rows
    for combo in ("UL", "ZL"):
        rows = []
        for ratio in PARAM_GRID["ratio"]:
            points, obstacles = make_dataset(combo, scale, ratio=ratio)
            batch = _queries_for(obstacles, queries, PARAM_DEFAULTS["ql"])
            agg2 = run_batch(points, obstacles, batch,
                             k=int(PARAM_DEFAULTS["k"]), mode="2T",
                             config=config)
            agg1 = run_batch(points, obstacles, batch,
                             k=int(PARAM_DEFAULTS["k"]), mode="1T",
                             config=config)
            rows.append(Row(label=f"|P|/|O|={ratio:g}", agg=agg2,
                            extra={"time_1T_ms": agg1.total_time_ms,
                                   "time_2T_ms": agg2.total_time_ms}))
        out[f"{combo}-ratio"] = rows
    return out


def ablation(scale: str = "small", queries: int | None = None) -> List[Row]:
    """Pruning-rule ablation on CL defaults (this library's addition)."""
    queries = queries if queries is not None else QUERIES_PER_SCALE[scale]
    points, obstacles = make_dataset("CL", scale)
    batch = _queries_for(obstacles, queries, PARAM_DEFAULTS["ql"])
    variants = [
        ("default", DEFAULT_CONFIG),
        ("paper (+lemma6)", ConnConfig.paper_faithful()),
        ("no lemma1", ConnConfig(use_lemma1=False)),
        ("no lemma5", ConnConfig(use_lemma5=False)),
        ("no lemma7", ConnConfig(use_lemma7=False)),
        ("no rlmax", ConnConfig(use_rlmax=False)),
        ("no coverage check", ConnConfig(validate_coverage=False)),
    ]
    rows: List[Row] = []
    for label, cfg in variants:
        agg = run_batch(points, obstacles, batch, k=1, config=cfg)
        rows.append(Row(label=label, agg=agg))
    return rows


# ---------------------------------------------------------------------- CLI
def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation figures as tables.")
    parser.add_argument("--figure", type=int, choices=(9, 10, 11, 12, 13),
                        action="append",
                        help="figure number (repeatable)")
    parser.add_argument("--ablation", action="store_true",
                        help="run the pruning ablation study")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument("--scale", choices=sorted(SCALES),
                        default="small")
    parser.add_argument("--queries", type=int, default=None,
                        help="queries per configuration (default per scale)")
    args = parser.parse_args(argv)

    figures = set(args.figure or [])
    if args.all:
        figures = {9, 10, 11, 12, 13}
    if not figures and not args.ablation:
        figures = {9}

    if 9 in figures:
        rows = figure9(args.scale, args.queries)
        print(format_table("Figure 9: COkNN vs query length (CL, k=5)",
                           "ql", rows))
        print()
    if 10 in figures:
        rows = figure10(args.scale, args.queries)
        print(format_table("Figure 10: COkNN vs k (CL, ql=4.5%)", "k", rows))
        print()
    if 11 in figures:
        for combo, rows in figure11(args.scale, args.queries).items():
            print(format_table(
                f"Figure 11: COkNN vs |P|/|O| ({combo}, k=5, ql=4.5%)",
                "|P|/|O|", rows))
            print()
    if 12 in figures:
        for combo, rows in figure12(args.scale, args.queries).items():
            print(format_table(
                f"Figure 12: COkNN vs buffer size ({combo}, k=5, ql=4.5%)",
                "buffer", rows))
            print()
    if 13 in figures:
        for combo, rows in figure13(args.scale, args.queries).items():
            print(format_table(f"Figure 13: 1T vs 2T ({combo})", "config",
                               rows,
                               columns=("total_time_ms", "page_faults",
                                        "cpu_time_ms")))
            print()
    if args.ablation or args.all:
        rows = ablation(args.scale, args.queries)
        print(format_table("Ablation: pruning rules (CL, k=1, ql=4.5%)",
                           "variant", rows,
                           columns=("total_time_ms", "npe", "noe",
                                    "split_solves", "nodes_expanded")))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
