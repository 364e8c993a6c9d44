"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload warm_corridor --seed 1 --seconds 20 --trace 0

``--seed`` draws the workload's operation list and ``--seconds`` sets its
length (a fixed number of operations per second of plan, not a clock).
With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it replays the list once untraced
and once traced and reports the per-layer metrics.  A table of every
metric, with units and sample counts, goes to standard error; the last
line of standard output is the JSON result.

The run records the count fingerprint of the first run of each
(workload, seed, length, code) in ``.perfbench_runs/`` and fails, naming
the counter, when a later run at the same seed counts differently.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"


def code_digest() -> str:
    """Digest of the benchmark and library sources a fingerprint belongs to."""
    h = hashlib.sha1()
    for path in sorted([*HERE.glob("*.py"), *(ROOT / "src").rglob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def fingerprint_drift(key: str, fingerprint: dict) -> list:
    """Counters that differ from the first run stored under ``key``."""
    path = RUNS / f"{key}.json"
    if not path.exists():
        RUNS.mkdir(exist_ok=True)
        path.write_text(json.dumps(fingerprint, sort_keys=True))
        return []
    first = json.loads(path.read_text())
    return [f"{name}: first run {first.get(name)}, this run "
            f"{fingerprint.get(name)}"
            for name in sorted(set(first) | set(fingerprint))
            if first.get(name) != fingerprint.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import layers
    import runner
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    key = f"{args.workload}-seed{args.seed}-len{args.seconds}-{code_digest()}"
    spans = RUNS / f"{key}-spans.npz" if args.trace else None
    if spans is not None:
        RUNS.mkdir(exist_ok=True)
    report = runner.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), spans)

    drift = fingerprint_drift(key, report["fingerprint"])
    if args.trace:
        traced = report["traced_fingerprint"]
        drift += [f"{name}: untraced {report['fingerprint'].get(name)}, "
                  f"traced {traced.get(name)}"
                  for name in sorted(set(traced) | set(report["fingerprint"]))
                  if traced.get(name) != report["fingerprint"].get(name)]
    for line in drift:
        print(f"fingerprint drift: {line}", file=sys.stderr)

    if args.trace:
        metrics, units = report["per_layer"], layers.UNITS
    else:
        metrics, units = report["end_to_end"], runner.UNITS
    counts = {"query": report["queries"], "update": report["updates"]}
    print(f"{args.workload} seed={args.seed} sizes={report['sizes']} "
          f"loop=closed, 1 client; {report['attempted']} ops, "
          f"{report['failed']} failed "
          f"(failed_op_ratio {report['failed'] / report['attempted']:.4f}), "
          f"{report['setups']} set-ups", file=sys.stderr)
    for name, value in metrics.items():
        kind = name.split("_")[0]
        n = f"  (n={counts[kind]})" if name.endswith(("_p50_ms", "_p90_ms")) \
            else ""
        print(f"  {name:40s} {value:14.6g} {units[name]}{n}", file=sys.stderr)

    result = {
        "correct": report["failed"] == 0 and not drift,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not drift else 1


if __name__ == "__main__":
    sys.exit(main())
