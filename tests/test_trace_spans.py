"""The traced benchmark's probes fire, and kernel spans nest as launched.

``tests/test_trace_probes.py`` checks that every probe of
``perfbench/tracing.py`` names a function that exists; this suite runs a
small scene under ``tracing.instrument`` and checks that the probes
record what the traced benchmark reads: a cold COkNN, a CONN on a warmed
shared graph, and an obstacle removal followed by a query produce
``geometry.kernel``, ``obstacles.materialize`` and ``obstacles.repair``
spans.  Both kernel probes carry the span name ``geometry.kernel``: the
graph's launch site ``LocalVisibilityGraph._blocked_bulk`` and
``blocked_batch``, which it calls.  Every launch enters through the
former, so each outer kernel span holds exactly one kernel span, and no
kernel span stands alone.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from repro import CoknnQuery, ConnQuery, RemoveObstacle, Workspace
from tests.conftest import random_query, random_scene

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probes_fire_and_kernel_spans_nest():
    tracing = load_tracing()
    rng = random.Random(7)
    points, obstacles = random_scene(rng, n_points=20, n_obstacles=10)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        cold = Workspace.from_points(points, obstacles, page_size=256)
        cold.execute(CoknnQuery(random_query(rng, min_length=10.0), knn=2))
        ws = Workspace.from_points(points, obstacles, page_size=256,
                                   backend="shared")
        ws.routing.warm()
        ws.execute(ConnQuery(random_query(rng, min_length=10.0)))
        assert ws.apply([RemoveObstacle(obstacles[0])]) == [True]
        ws.execute(ConnQuery(random_query(rng, min_length=10.0)))

    names = [tracer.names[n] for n in tracer.name]
    for span in ("geometry.kernel", "obstacles.materialize",
                 "obstacles.repair"):
        assert span in names, f"no {span} span"
    kernel = [i for i, name in enumerate(names) if name == "geometry.kernel"]
    inner = [i for i in kernel if tracer.parent[i] >= 0
             and names[tracer.parent[i]] == "geometry.kernel"]
    outer = sorted(set(kernel) - set(inner))
    assert outer and sorted(tracer.parent[i] for i in inner) == outer
