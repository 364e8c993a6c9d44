"""Percentiles, counter snapshots and the metric-name rule."""

from __future__ import annotations

import math
import re
import statistics
from collections import Counter
from dataclasses import fields
from typing import Sequence

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TAIL_SAMPLES = 10
"""A percentile is reported only with at least this many samples above it."""


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile, refused without enough tail.

    Raises:
        ValueError: when fewer than :data:`TAIL_SAMPLES` samples lie beyond
            the percentile (p90 needs at least 100 samples).
    """
    n = len(values)
    if n * (100.0 - p) / 100.0 < TAIL_SAMPLES - 1e-9:
        raise ValueError(f"p{p:g} needs {math.ceil(TAIL_SAMPLES * 100 / (100 - p))}"
                         f" samples, got {n}")
    if p == 50:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * n) - 1)]


def add_block(out: Counter, prefix: str, block) -> None:
    """Add every numeric field of a stats dataclass to ``out``."""
    for f in fields(block):
        value = getattr(block, f.name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[prefix + f.name] += value


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
