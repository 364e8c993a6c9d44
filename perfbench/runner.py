"""One benchmark run: set up, replay the seeded list, check, report.

An untraced replay gives the end-to-end metrics.  A traced run replays
the same list twice on fresh state, first untraced and then with spans
around every layer boundary, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced ``query_p50_ms``).
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

import layers
import speed
from stats import add_block, percentile
from tracing import Tracer, instrument
from workloads import WORKLOADS

SETUP_SECONDS = 1.0
"""Set-up repeats until this much time is spent (at least 3, at most
:data:`SETUP_REPEATS`); ``setup_s`` is their median."""

SETUP_REPEATS = 100

UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "ops_per_s": "1/s",
    "io_faults_per_query": "count",
    "peak_rss_mb": "MB",
}


@dataclass
class Replay:
    """What one pass over the operation list measured."""

    latency: Dict[str, List[float]] = field(
        default_factory=lambda: {"query": [], "update": []})
    counts: Dict[str, Counter] = field(default_factory=dict)
    """Counter deltas summed per operation kind (``query`` or the update's
    class name)."""
    answers: Dict[int, Any] = field(default_factory=dict)
    """Answers of the operations marked for checking."""
    failed: int = 0
    seconds: float = 0.0
    scale: List[float] = field(default_factory=list)
    """Speed scale of each operation, in list order."""

    def fingerprint(self) -> Dict[str, int]:
        """Every integer counter of the pass, by kind (timings are
        floats and stay out)."""
        return {f"{kind}.{key}": value
                for kind, counts in sorted(self.counts.items())
                for key, value in sorted(counts.items())
                if isinstance(value, int)}


def op_kind(op) -> str:
    return "query" if op.kind == "query" else type(op.payload).__name__


def query_counts(result) -> Counter:
    out = Counter()
    stats = result.stats
    add_block(out, "q.", stats)
    add_block(out, "q.io.", stats.io)
    add_block(out, "q.backend.", stats.backend)
    if stats.shard is not None:
        add_block(out, "q.shard.", stats.shard)
    return out


def replay(wl, state, inp, tracer: Optional[Tracer] = None) -> Replay:
    """Run every operation of the list once, in order, one at a time.

    Latencies are wall times scaled to the probe's nominal speed (see
    :mod:`speed`); ``seconds`` is their sum.  The wall-time counters of
    the stats blocks (their float fields, e.g. ``ShardStats.route_time_s``)
    are scaled by the same per-op factor.
    """
    out = Replay()
    checked = inp.ops.checks
    probes = []
    raw = []
    timers = []  # per op: the wall-time counters (the float ones)
    gc.collect()
    for i, op in enumerate(inp.ops.ops):
        kind = op_kind(op)
        before = wl.counters(state)
        probes.append(speed.probe())
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            answer = wl.run(state, op)
        except Exception:  # one broken operation must not stop the run
            traceback.print_exc(file=sys.stderr)
            answer = None
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.op_id = -1
        raw.append(elapsed)
        delta = wl.counters(state)
        delta.subtract(before)
        if op.kind == "query" and answer is not None:
            delta.update(query_counts(answer))
            if i in checked:
                out.answers[i] = answer
        elif answer is not True:
            out.failed += 1
            print(f"op {i} ({kind}) failed", file=sys.stderr)
        timers.append({k: v for k, v in delta.items()
                       if isinstance(v, float)})
        counts = out.counts.setdefault(kind, Counter())
        counts.update({k: v for k, v in delta.items()
                       if not isinstance(v, float)})
        counts["ops"] += 1
    probes.append(speed.probe())
    out.scale = speed.scales(probes)
    for op, elapsed, scale, timer in zip(inp.ops.ops, raw, out.scale, timers):
        out.latency[op.kind].append(elapsed * scale)
        out.counts[op_kind(op)].update(
            {k: v * scale for k, v in timer.items()})
    out.seconds = sum(elapsed * scale for elapsed, scale in zip(raw, out.scale))
    return out


def set_up(wl, inp):
    """Repeat the workload's set-up; return the last state and the median
    of the (speed-scaled) set-up times."""
    times: List[float] = []
    state = None
    while ((len(times) < 3 or sum(times) < SETUP_SECONDS)
           and len(times) < SETUP_REPEATS):
        state = None
        gc.collect()
        before = speed.probe()
        t0 = perf_counter()
        state = wl.setup(inp)
        elapsed = perf_counter() - t0
        times.append(elapsed * speed.scales([before, speed.probe()])[0])
    return state, statistics.median(times), len(times)


def end_to_end(rep: Replay, setup_s: float) -> Dict[str, float]:
    ms = {k: [v * 1000.0 for v in vals] for k, vals in rep.latency.items()}
    queries = rep.counts["query"]
    return {
        "setup_s": setup_s,
        "query_p50_ms": percentile(ms["query"], 50),
        "query_p90_ms": percentile(ms["query"], 90),
        "update_p50_ms": percentile(ms["update"], 50),
        "update_p90_ms": percentile(ms["update"], 90),
        "ops_per_s": sum(len(v) for v in ms.values()) / rep.seconds,
        "io_faults_per_query": queries["q.io.page_faults"] / queries["ops"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def run(name: str, seed: int, seconds: int, trace: bool,
        spans_path=None) -> Dict[str, Any]:
    """One run of workload ``name``; returns the report as a dict."""
    wl = WORKLOADS[name]
    inp = wl.inputs(seed, seconds)
    state, setup_s, setups = set_up(wl, inp)
    wl.warmup(state, inp)
    plain = replay(wl, state, inp)
    metrics = end_to_end(plain, setup_s)  # before the checks add to the RSS
    failed = plain.failed + wl.check(state, inp, plain.answers)
    report: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "sizes": wl.sizes(inp, state),
        "queries": len(plain.latency["query"]),
        "updates": len(plain.latency["update"]),
        "setups": setups,
        "attempted": len(inp.ops.ops), "failed": failed,
        "fingerprint": plain.fingerprint(),
        "end_to_end": metrics,
    }
    if not trace:
        return report
    state = None
    gc.collect()
    state = wl.setup(inp)
    wl.warmup(state, inp)
    tracer = Tracer()
    with instrument(tracer):
        traced = replay(wl, state, inp, tracer)
    report["failed"] += traced.failed
    report["traced_fingerprint"] = traced.fingerprint()
    report["per_layer"] = layers.per_layer(
        inp.ops.ops, traced, tracer,
        plain_query_ms=[v * 1000.0 for v in plain.latency["query"]])
    if spans_path is not None:
        tracer.save(spans_path)
    return report
