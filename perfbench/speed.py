"""Machine-speed normalisation of timings.

On the shared 2-vCPU host this benchmark was tuned on, the speed of the
processor drifts by up to 40 % over spans of seconds: a fixed Python loop
took 2.0 ms for a few seconds, then 1.4 ms, and process CPU time tracked
wall time, so the drift is speed, not preemption.  Raw wall times of one
run then differ from the next by more than any useful regression bound.

Each timed operation is therefore bracketed by a fixed calibration probe,
and its wall time is scaled by ``PROBE_NOMINAL_S / probe``, where
``probe`` is the mean of the two probes around it.  A scaled time reads as
time at the probe's nominal speed.  No library code runs inside the
probe, so a change to the library moves a scaled time exactly as it moves
the raw one.  On that host the scaling cut the run-to-run scatter of one
query's time from 24 % to 13 % (standard deviation of the log ratio).
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Sequence

import numpy as np

PROBE_NOMINAL_S = 3.4e-4
"""The probe's duration at the speed scaled times are quoted at (about
its median on the host the benchmark was tuned on)."""

_ARRAY = np.linspace(0.0, 1.0, 2048)


def probe() -> float:
    """Seconds one fixed mix of interpreter and array work takes now."""
    t0 = perf_counter()
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    float(np.sqrt(_ARRAY + acc).sum())
    return perf_counter() - t0


def scales(probes: Sequence[float]) -> List[float]:
    """Scale of operation ``i``, run between ``probes[i]`` and
    ``probes[i + 1]``."""
    return [2.0 * PROBE_NOMINAL_S / (a + b)
            for a, b in zip(probes, probes[1:])]
