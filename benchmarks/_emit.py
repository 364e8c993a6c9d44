"""Machine-readable benchmark emission (the perf-trajectory artifact).

Every benchmark that participates in the performance trajectory merges one
section into a single JSON file, override with ``--emit`` (``--json`` is
kept as an alias) or the ``BENCH_JSON`` environment variable.  The default,
:data:`DEFAULT_FILE`, is an untracked scratch file (``.gitignore`` lists
``bench-*.json``), so a local smoke run never rewrites a committed
``BENCH_PR*.json`` record.  CI uploads the file as a build artifact, so
speedups are diffable across runs instead of living in log scrollback.

Host metadata — including the git revision when one is resolvable — rides
along with every section; emission never fails because the benchmark ran
from an export, a tarball, or any other tree without a git worktree.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict

DEFAULT_FILE = "bench-smoke.json"
"""Default emission file: untracked, and uploaded by CI as an artifact."""

DEFAULT_PATH = Path(__file__).resolve().parent.parent / DEFAULT_FILE


def add_emit_argument(parser) -> None:
    """Install the shared emission flag on a benchmark's argument parser.

    ``--emit`` names the benchmark JSON file; ``--json`` stays as a
    backwards-compatible alias.  Leaving it unset falls back to the
    ``BENCH_JSON`` environment variable and then :data:`DEFAULT_PATH`.
    """
    parser.add_argument(
        "--emit", "--json", dest="emit", default=None,
        help=f"benchmark JSON path (default $BENCH_JSON or {DEFAULT_FILE})")


def _git_rev() -> "str | None":
    """The current commit hash, or None when there is no usable worktree.

    Benchmarks run from source exports, CI caches, and containers where
    ``.git`` may be absent, git may be uninstalled, or the directory may be
    owned by another user (git's ``dubious ownership`` refusal) — all of
    those degrade to None instead of raising.
    """
    try:
        proc = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent.parent),
             "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


def emit(section: str, payload: Dict[str, Any],
         path: "str | os.PathLike | None" = None) -> Path:
    """Merge ``payload`` under ``section`` into the benchmark JSON file.

    Existing sections from other benchmarks are preserved; re-running a
    benchmark overwrites only its own section.  Host metadata rides along
    so numbers are interpretable later.
    """
    target = Path(path or os.environ.get("BENCH_JSON") or DEFAULT_PATH)
    data: Dict[str, Any] = {}
    if target.exists():
        try:
            data = json.loads(target.read_text())
        except (ValueError, OSError):
            data = {}
    payload = dict(payload)
    payload["host"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git": _git_rev(),
    }
    data[section] = payload
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return target


def emit_scalar(key: str, value: Any,
                path: "str | os.PathLike | None" = None) -> Path:
    """Record a single top-level scalar in the benchmark JSON file.

    Headline numbers (a PR's corridor speedup, a gate's measured margin)
    live at the top level of the artifact so trajectory tooling can diff
    them across PRs with one key lookup instead of digging through each
    benchmark's section layout.  Sections and other scalars are preserved.
    """
    target = Path(path or os.environ.get("BENCH_JSON") or DEFAULT_PATH)
    data: Dict[str, Any] = {}
    if target.exists():
        try:
            data = json.loads(target.read_text())
        except (ValueError, OSError):
            data = {}
    data[key] = value
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return target
