"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import runner  # noqa: E402
from stats import METRIC_NAME, percentile  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_p90_is_refused_below_100_samples():
    with pytest.raises(ValueError):
        percentile([float(v) for v in range(99)], 90)
    assert percentile([float(v) for v in range(100)], 90) == 89.0
    assert percentile([3.0, 1.0, 2.0] * 10, 50) == 2.0


def test_self_time_subtracts_nested_children():
    tracer = Tracer()
    a = tracer.open(tracer.name_id("a"))
    b = tracer.open(tracer.name_id("b"))
    tracer.close(b)
    c = tracer.open(tracer.name_id("c"))
    inner = tracer.open(tracer.name_id("a"))
    tracer.close(inner)
    tracer.close(c)
    tracer.close(a)
    for i, (start, end) in enumerate([(0.0, 10.0), (1.0, 4.0), (5.0, 9.0),
                                      (6.0, 7.0)]):
        tracer.start[i], tracer.end[i] = start, end
    assert list(tracer.parent) == [-1, 0, 0, 2]
    assert tracer.self_times() == [3.0, 3.0, 3.0, 1.0]
    rows = tracer.by_op()[-1]
    # "a" re-enters itself: timed once (outer 10), self time summed (3 + 1).
    assert rows["a"] == [10.0, 4.0, 2]
    assert rows["c"] == [4.0, 3.0, 1]


def test_metric_names_are_well_formed_and_declared():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    assert all(METRIC_NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in spec["end_to_end"]] == list(runner.UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.UNITS)
    for key, units in (("end_to_end", runner.UNITS),
                       ("per_layer", layers.UNITS)):
        assert all(m["unit"] == units[m["name"]] for m in spec[key])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_metric_and_repeats_its_counts(name):
    report = runner.run(name, seed=3, seconds=1, trace=True)
    assert report["failed"] == 0
    assert report["end_to_end"].keys() == runner.UNITS.keys()
    assert report["per_layer"].keys() == layers.UNITS.keys()
    assert all(v > 0 for v in report["end_to_end"].values())
    fingerprint = report["fingerprint"]
    assert fingerprint["query.q.io.page_faults"] > 0
    assert report["traced_fingerprint"] == fingerprint
