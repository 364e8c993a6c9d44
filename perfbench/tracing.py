"""In-memory span tracing around calls into each layer's public functions.

The traced run wraps a fixed set of library functions (see
:data:`PROBES`; all public but one) with a recorder; nothing inside
``src/repro`` changes.  A
span records its name, start, end, parent span and the id of the
benchmark operation it belongs to.  Spans are kept in flat arrays while
the run executes and written out only when it ends.

A span's *self time* is its duration minus the part its child spans
cover.  Calls nest strictly (one thread, stack discipline), so children
never overlap and the covered part is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

PROBES: Tuple[Tuple[str, str, str], ...] = (
    # (module, attribute path, span name).  A module-level function is
    # wrapped where its caller looks it up; calls sharing a span name are
    # one layer boundary, timed once where they nest in each other.
    ("repro.index.rstar", "RStarTree.insert", "index.update"),
    ("repro.index.rstar", "RStarTree.delete", "index.update"),
    ("repro.service.cache", "CachedObstacleView.ensure", "service.retrieval"),
    ("repro.service.cache", "ObstacleCache.ranked", "service.retrieval"),
    ("repro.service.workspace", "Workspace.apply", "service.apply"),
    ("repro.shard.sharded", "ShardedWorkspace.apply", "service.apply"),
    ("repro.service.workspace", "build_plan", "query.plan"),
    ("repro.query.executor", "build_plan", "query.plan"),
    ("repro.service.workspace", "Workspace.execute", "query.execute"),
    ("repro.shard.sharded", "ShardedWorkspace.execute", "query.execute"),
    ("repro.core.engine", "compute_cpl", "core.cplc"),
    ("repro.routing.dijkstra", "ArrayTraversal.advance", "routing.traverse"),
    ("repro.routing.backends", "SharedVGBackend.attach_endpoints",
     "routing.attach"),
    ("repro.routing.backends", "PerQueryVGBackend.attach_endpoints",
     "routing.attach"),
    ("repro.obstacles.visgraph", "LocalVisibilityGraph.materialize_rows",
     "obstacles.materialize"),
    ("repro.obstacles.visgraph", "LocalVisibilityGraph.build_all",
     "obstacles.materialize"),
    ("repro.obstacles.visgraph", "LocalVisibilityGraph.remove_obstacle",
     "obstacles.repair"),
    ("repro.obstacles.visgraph", "blocked_batch", "geometry.kernel"),
    # The one non-public probe: bulk materialization and removal repair
    # launch the kernels from this method, not through blocked_batch, and
    # count their launches in the same BackendStats counters.
    ("repro.obstacles.visgraph", "LocalVisibilityGraph._blocked_bulk",
     "geometry.kernel"),
    ("repro.monitor.registry", "MonitorRegistry.notify", "monitor.notify"),
    ("repro.shard.monitors", "ShardMonitorRegistry.notify", "monitor.notify"),
)


class Tracer:
    """Flat, append-only span store.

    ``op_id`` is set by the benchmark loop before each operation; spans
    opened outside any operation (set-up) carry ``-1``.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def by_op(self) -> Dict[int, Dict[str, List[float]]]:
        """``op id -> span name -> [outer s, self s, calls]``.

        *outer* sums the durations of the spans with no ancestor of the
        same name, so a layer that re-enters itself is timed once.
        """
        own = self.self_times()
        above = array("q", bytes(8 * len(self.start)))
        out: Dict[int, Dict[str, List[float]]] = defaultdict(dict)
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            if p >= 0:
                above[i] = above[p] | (1 << self.name[p])
            row = out[self.op[i]].setdefault(self.names[nid], [0.0, 0.0, 0])
            if not above[i] >> nid & 1:
                row[0] += self.end[i] - self.start[i]
            row[1] += own[i]
            row[2] += 1
        return out

    def save(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, "i4"),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, "i4"),
            op=np.frombuffer(self.op, "i4"))


def _traced(tracer: Tracer, nid: int, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return wrapper


@contextmanager
def instrument(tracer: Tracer, probes=PROBES) -> Iterator[Tracer]:
    """Wrap every probe with ``tracer`` for the duration of the block."""
    undo = []
    try:
        for module, path, name in probes:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, _traced(tracer, tracer.name_id(name),
                                         original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
