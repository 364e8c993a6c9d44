"""Benchmark harness: metric aggregation, dataset plumbing, figure drivers.

The figure drivers run here at ``tiny`` scale with a single query per
configuration — enough to validate the plumbing and the qualitative
direction of the headline trends without turning the unit suite into a
benchmark run.
"""

from __future__ import annotations

import pytest

from repro.bench import experiments
from repro.bench.experiments import (
    PARAM_DEFAULTS,
    PARAM_GRID,
    ablation,
    build_trees,
    figure9,
    figure10,
    figure11,
    figure12,
    make_dataset,
    run_batch,
)
from repro.bench.metrics import AggregateStats, Row, format_table
from repro.bench.workloads import query_workload
from repro.core.stats import QueryStats


class TestMetrics:
    def test_aggregate_of_empty(self):
        agg = AggregateStats.of([])
        assert agg.queries == 0 and agg.npe == 0.0

    def test_aggregate_means(self):
        a = QueryStats(npe=2, noe=4)
        b = QueryStats(npe=4, noe=8)
        a.io.page_faults = 10
        b.io.page_faults = 30
        agg = AggregateStats.of([a, b])
        assert agg.queries == 2
        assert agg.npe == 3.0
        assert agg.noe == 6.0
        assert agg.page_faults == 20.0
        assert agg.io_time_ms == 200.0  # 20 faults x 10 ms

    def test_total_time_is_io_plus_cpu(self):
        s = QueryStats(cpu_time_s=0.5)
        s.io.page_faults = 3
        agg = AggregateStats.of([s])
        assert agg.total_time_ms == pytest.approx(500.0 + 30.0)

    def test_format_table_contains_rows(self):
        rows = [Row("x=1", AggregateStats.of([QueryStats(npe=5)]),
                    extra={"note": 1.0})]
        text = format_table("Title", "param", rows)
        assert "Title" in text and "x=1" in text and "note" in text

    def test_query_stats_merge(self):
        a = QueryStats(npe=1, split_solves=2)
        b = QueryStats(npe=2, split_solves=3)
        a.merge(b)
        assert a.npe == 3 and a.split_solves == 5


class TestDatasets:
    def test_param_grid_matches_paper_table2(self):
        assert PARAM_GRID["ql"] == (1.5, 3.0, 4.5, 6.0, 7.5)
        assert PARAM_GRID["k"] == (1, 3, 5, 7, 9)
        assert PARAM_GRID["ratio"] == (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
        assert PARAM_GRID["buffer"] == (0, 1, 2, 4, 8, 16, 32)
        assert PARAM_DEFAULTS == {"ql": 4.5, "k": 5, "ratio": 0.5, "buffer": 0}

    @pytest.mark.parametrize("combo", ["CL", "UL", "ZL"])
    def test_make_dataset_combinations(self, combo):
        points, obstacles = make_dataset(combo, "tiny")
        assert len(points) > 0 and len(obstacles) > 0
        # Cached: same object on second call.
        again = make_dataset(combo, "tiny")
        assert again[0] is points

    def test_ratio_controls_cardinality(self):
        small_p, obs = make_dataset("UL", "tiny", ratio=0.1)
        big_p, _ = make_dataset("UL", "tiny", ratio=2.0)
        assert len(big_p) > len(small_p)
        assert len(small_p) == pytest.approx(0.1 * len(obs), rel=0.2, abs=12)

    def test_unknown_combo_rejected(self):
        with pytest.raises(ValueError):
            make_dataset("XX", "tiny")

    def test_build_trees(self):
        points, obstacles = make_dataset("CL", "tiny")
        dt, ot = build_trees(points, obstacles)
        dt.check_invariants()
        ot.check_invariants()
        assert dt.size == len(points) and ot.size == len(obstacles)


class TestRunBatch:
    def test_two_tree_batch(self):
        points, obstacles = make_dataset("CL", "tiny")
        queries = query_workload(__import__("random").Random(1), 2, 1.5,
                                 obstacles)
        agg = run_batch(points, obstacles, queries, k=1)
        assert agg.queries == 2
        assert agg.npe >= 1
        assert agg.page_faults > 0

    def test_one_tree_batch(self):
        points, obstacles = make_dataset("CL", "tiny")
        queries = query_workload(__import__("random").Random(2), 2, 1.5,
                                 obstacles)
        agg = run_batch(points, obstacles, queries, k=1, mode="1T")
        assert agg.queries == 2

    def test_warmup_excluded(self):
        points, obstacles = make_dataset("CL", "tiny")
        queries = query_workload(__import__("random").Random(3), 4, 1.5,
                                 obstacles)
        agg = run_batch(points, obstacles, queries, k=1, warmup=2)
        assert agg.queries == 2

    def test_buffer_reduces_faults(self):
        points, obstacles = make_dataset("CL", "tiny")
        queries = query_workload(__import__("random").Random(4), 6, 1.5,
                                 obstacles)
        cold = run_batch(points, obstacles, queries, k=1, warmup=3)
        warm = run_batch(points, obstacles, queries, k=1, warmup=3,
                         buffer_pct=32.0)
        assert warm.page_faults < cold.page_faults
        assert warm.logical_reads == pytest.approx(cold.logical_reads)

    def test_unknown_mode_rejected(self):
        points, obstacles = make_dataset("CL", "tiny")
        with pytest.raises(ValueError):
            run_batch(points, obstacles, [], k=1, mode="3T")


class TestFigureDrivers:
    def test_figure9_shape(self):
        rows = figure9("tiny", queries=1)
        assert len(rows) == len(PARAM_GRID["ql"])
        # NOE and |SVG| grow with query length (allowing noise at one query).
        assert rows[-1].agg.noe >= rows[0].agg.noe
        assert rows[-1].agg.svg_size >= rows[0].agg.svg_size
        assert all(r.extra["full_svg"] > r.agg.svg_size for r in rows)

    def test_figure10_shape(self):
        rows = figure10("tiny", queries=1)
        assert len(rows) == len(PARAM_GRID["k"])
        assert rows[-1].agg.npe >= rows[0].agg.npe

    def test_figure12_buffer_only_helps_io(self):
        out = figure12("tiny", queries=2, combos=("CL",))
        rows = out["CL"]
        assert len(rows) == len(PARAM_GRID["buffer"])
        faults = [r.agg.page_faults for r in rows]
        assert faults[-1] <= faults[0]
        # CPU-side metrics are buffer-independent.
        npes = {round(r.agg.npe, 6) for r in rows}
        assert len(npes) == 1

    def test_ablation_rows(self):
        rows = ablation("tiny", queries=1)
        labels = [r.label for r in rows]
        assert "default" in labels and "paper (+lemma6)" in labels

    def test_figure11_rows_follow_ratio_grid(self):
        out = figure11("tiny", queries=1)
        assert list(out) == ["UL", "ZL"]
        for rows in out.values():
            assert [r.label for r in rows] == \
                [f"{ratio:g}" for ratio in PARAM_GRID["ratio"]]
            assert all(r.agg.queries == 1 for r in rows)

    def test_cli_runs_figure13(self, monkeypatch, capsys):
        """``main`` is the one figure runner; Fig 13 rows time both layouts."""
        seen = {}
        real = experiments.figure13

        def spy(*args, **kwargs):
            seen.update(real(*args, **kwargs))
            return seen

        monkeypatch.setattr(experiments, "figure13", spy)
        assert experiments.main(
            ["--figure", "13", "--scale", "tiny", "--queries", "1"]) == 0
        sweeps = ([f"ql={ql:g}%" for ql in PARAM_GRID["ql"]] +
                  [f"k={int(k)}" for k in PARAM_GRID["k"]])
        ratios = [f"|P|/|O|={ratio:g}" for ratio in PARAM_GRID["ratio"]]
        assert {name: [r.label for r in rows] for name, rows in seen.items()} \
            == {"CL": sweeps, "UL": sweeps,
                "UL-ratio": ratios, "ZL-ratio": ratios}
        for rows in seen.values():
            for r in rows:
                assert r.extra["time_2T_ms"] == r.agg.total_time_ms
                assert r.extra["time_1T_ms"] > 0
        assert "Figure 13: 1T vs 2T (ZL-ratio)" in capsys.readouterr().out
