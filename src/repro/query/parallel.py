"""Parallel batch execution over immutable workspace snapshots.

:func:`execute_many_parallel` is :func:`repro.query.executor.execute_many`
for machines with cores to spare: the batch's Hilbert-ordered locality
buckets — already the unit of cache affinity — become the unit of work,
partitioned across a worker pool while one read hold pins the workspace
version for the whole batch.  Results are returned in submission order and
are identical to serial execution (asserted by the concurrency test suite
and the ``bench_concurrent`` CI smoke); parallelism only changes *when*
each bucket runs and who pays which page read.

Two pool modes:

* ``mode="thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`
  sharing this process's obstacle cache and routing backend through their
  locks.  Retrieval rounds serialize on the cache lock (counted as *lock
  contention*), engine compute runs concurrently where the interpreter
  allows.  This is the mode that composes with everything else in the
  process: monitors, the async :meth:`QueryService.submit` front, the
  stress suite's interleaved updates.
* ``mode="fork"`` — forked worker processes (POSIX only).  A fork *is* a
  workspace snapshot: each worker inherits the parent's warmed caches and
  graphs by copy-on-write and runs fully independently, so CPU-bound
  workloads scale with cores regardless of the GIL.  Results travel back
  by pickle.  Fork while other threads run is unsafe (CPython caveat);
  the bench and batch paths fork before spawning any worker thread.

:class:`ConcurrencyStats` aggregates what the batch did to the shared
machinery: snapshots pinned, epoch waits updates suffered, lock contention
on the caches, and how evenly the worker pool was utilized.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .executor import _execute_bucket, _locality_buckets, execute, split_batch
from .queries import Query
from .results import QueryResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service.snapshot import WorkspaceSnapshot
    from ..service.workspace import Workspace

THREAD = "thread"
"""Pool mode: worker threads over this process's shared caches."""

FORK = "fork"
"""Pool mode: forked worker processes (copy-on-write snapshots)."""


@dataclass
class ConcurrencyStats:
    """What one parallel batch did to the workspace's shared machinery."""

    workers: int = 1
    """Worker pool size the batch ran with."""

    mode: str = THREAD
    """Pool mode (``"thread"`` or ``"fork"``)."""

    queries: int = 0
    """Queries executed by the batch."""

    tasks: int = 0
    """Work units dispatched to the pool (locality buckets + non-spatial
    tail)."""

    snapshots_taken: int = 0
    """Workspace snapshots pinned for this batch (1, plus any retries the
    caller performed)."""

    epoch_waits: int = 0
    """Updates that blocked on this batch's read hold (delta of the
    workspace lock's ``write_waits``)."""

    lock_contention: int = 0
    """Contended acquisitions of the obstacle-cache lock while the batch
    ran — how often parallel workers actually serialized on shared state."""

    wall_time_s: float = 0.0
    """Wall-clock time of the parallel section."""

    busy_time_s: float = 0.0
    """Summed per-task execution time across workers."""

    graph_clones: int = 0
    """Shared-graph skeleton clones pre-provisioned for the pool."""

    per_task_s: List[float] = field(default_factory=list, repr=False)
    """Per-task wall times (diagnostic; drives :attr:`worker_utilization`)."""

    @property
    def worker_utilization(self) -> float:
        """Fraction of the pool's capacity the batch kept busy.

        ``busy_time / (workers * wall_time)`` — 1.0 means every worker
        computed for the whole parallel section; low values mean the
        bucket partition was skewed or the batch too small for the pool.
        """
        cap = self.workers * self.wall_time_s
        return self.busy_time_s / cap if cap > 0 else 0.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.queries} queries / {self.tasks} tasks on "
                f"{self.workers} {self.mode} workers: "
                f"wall {self.wall_time_s * 1e3:.1f} ms, "
                f"utilization {self.worker_utilization:.0%}, "
                f"{self.epoch_waits} epoch waits, "
                f"{self.lock_contention} contended lock acquisitions")


# ----------------------------------------------------------------- pool runner
_fork_run_group: Optional[Callable[[List[int]], Any]] = None


def _fork_run_pile(pile: Sequence[List[int]]) -> List[Any]:
    """Run one pile of groups inside a forked worker.

    The per-group callable, and everything it closes over, arrives through
    the fork (the module global set just before the pool was created), so
    only index groups go down and the callable's pickled outputs come back.
    """
    return [_fork_run_group(group) for group in pile]


def _shard_round_robin(buckets: List[List[int]],
                       shards: int) -> List[List[List[int]]]:
    """Deal buckets across ``shards`` piles, largest first, lightest pile
    next — a greedy balance good enough for coarse bucket work units."""
    piles: List[List[List[int]]] = [[] for _ in range(shards)]
    loads = [0] * shards
    for bucket in sorted(buckets, key=len, reverse=True):
        i = loads.index(min(loads))
        piles[i].append(bucket)
        loads[i] += len(bucket)
    return [p for p in piles if p]


def effective_workers(workers: int, mode: str = THREAD) -> int:
    """Clamp a requested pool size to something the host can honor."""
    if workers <= 1:
        return 1
    if mode == FORK:
        return min(workers, max(1, os.cpu_count() or 1))
    return workers


def resolve_pool(workers: int, mode: str) -> Tuple[int, str]:
    """Validate a pool mode and clamp its size: ``(workers, mode)``.

    Fork mode falls back to threads on hosts without ``os.fork``.
    """
    if mode not in (THREAD, FORK):
        raise ValueError(f"unknown mode {mode!r}; expected 'thread' "
                         "or 'fork'")
    if mode == FORK and not hasattr(os, "fork"):
        mode = THREAD  # pragma: no cover - non-POSIX hosts
    return effective_workers(workers, mode), mode


def run_groups(groups: List[List[int]],
               run_group: Callable[[List[int]], Any], workers: int,
               mode: str) -> List[Any]:
    """``run_group(group)`` for every group on a ``workers``-sized pool.

    Thread mode runs each group as one task over this process's shared
    state.  Fork mode deals the groups into at most ``workers`` piles
    (largest first, lightest pile next) and runs each pile in a forked
    worker process; ``run_group`` reaches the workers through the fork,
    so it may close over anything, but its output must pickle.

    Returns:
        The outputs of every group, in no particular order: an output
        should name the query indices it belongs to.
    """
    if mode == THREAD:
        from concurrent.futures import ThreadPoolExecutor

        # The caller's read hold excludes writers for the whole pool, so
        # groups run lock-free entry points and never queue behind a
        # waiting writer mid-batch.
        with ThreadPoolExecutor(max_workers=workers,
                                thread_name_prefix="repro-batch") as pool:
            return list(pool.map(run_group, groups))

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _fork_run_group
    piles = _shard_round_robin(groups, workers)
    _fork_run_group = run_group
    try:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=len(piles),
                                 mp_context=ctx) as pool:
            futures = [pool.submit(_fork_run_pile, pile) for pile in piles]
            return [out for future in futures for out in future.result()]
    finally:
        _fork_run_group = None


def execute_many_parallel(snapshot: "WorkspaceSnapshot",
                          queries: Iterable[Query], *,
                          schedule: str = "locality", workers: int = 4,
                          mode: str = THREAD) -> List[QueryResult]:
    """Execute a batch against one snapshot on a worker pool.

    Args:
        snapshot: the pinned workspace version to execute against (take
            one with :meth:`Workspace.snapshot`); verified under the read
            hold, so a batch either runs entirely on its version or raises
            :class:`~repro.service.concurrency.SnapshotExpired` upfront.
            A live workspace is accepted too: the read hold alone pins it.
        schedule: ``"locality"`` partitions by the Hilbert locality grid
            (the parallel unit of work); ``"fifo"`` round-robins single
            queries (no bucket prefetch amortization — use it to force
            maximum interleaving in stress tests).
        workers: pool size; ``<= 1`` falls back to the serial executor
            under the same snapshot semantics.
        mode: ``"thread"`` or ``"fork"`` (see the module docstring).

    Returns:
        Results in submission order, each carrying ``.query``.  The
        batch's :class:`ConcurrencyStats` is attached to the returned list
        as the ``concurrency`` attribute of :func:`last_batch_stats`.
    """
    from ..service.workspace import Workspace

    ws = snapshot if isinstance(snapshot, Workspace) else snapshot.workspace
    qs = list(queries)
    spatial, other = split_batch(qs, schedule)
    workers, mode = resolve_pool(workers, mode)

    stats = ConcurrencyStats(workers=workers, mode=mode, queries=len(qs),
                             snapshots_taken=1)
    epoch0 = ws._rw.write_waits
    contention0 = ws.cache.lock.contended

    with ws.read_lock():
        if snapshot is not ws:
            snapshot.verify()
        if workers <= 1 or len(qs) <= 1:
            t0 = time.perf_counter()
            results = [execute(ws, q) for q in qs]
            stats.tasks = len(qs)
            stats.wall_time_s = stats.busy_time_s = time.perf_counter() - t0
        else:
            buckets = ([[i] for i, _fp in spatial] if schedule == "fifo"
                       else _locality_buckets(spatial))
            results = _run_pool(ws, qs, buckets, other, workers, mode,
                                stats)
    stats.epoch_waits = ws._rw.write_waits - epoch0
    stats.lock_contention = ws.cache.lock.contended - contention0
    _LAST_BATCH.stats = stats
    return results


def _run_pool(ws: "Workspace", qs: List[Query], buckets: List[List[int]],
              other: List[int], workers: int, mode: str,
              stats: ConcurrencyStats) -> List[QueryResult]:
    results: List[Optional[QueryResult]] = [None] * len(qs)

    def run_bucket(bucket: List[int]
                   ) -> Tuple[List[Tuple[int, QueryResult]], float]:
        t1 = time.perf_counter()
        # Each bucket fills its own slot list; _execute_bucket's cache
        # interactions are serialized by the cache lock.
        slots: List[Optional[QueryResult]] = [None] * len(qs)
        _execute_bucket(ws, qs, bucket, slots)
        return [(i, slots[i]) for i in bucket], time.perf_counter() - t1

    t0 = time.perf_counter()
    if mode == THREAD:
        stats.graph_clones = ws.routing.prepare_sessions(workers)
    for done, dt in run_groups(buckets, run_bucket, workers, mode):
        for i, result in done:
            results[i] = result
        stats.per_task_s.append(dt)
        stats.tasks += 1
    # Non-spatial queries (the joins) run on the coordinating thread, in
    # submission order — exactly the serial executor's tail behavior.
    for i in other:
        t1 = time.perf_counter()
        results[i] = execute(ws, qs[i])
        stats.per_task_s.append(time.perf_counter() - t1)
        stats.tasks += 1
    stats.wall_time_s = time.perf_counter() - t0
    stats.busy_time_s = math.fsum(stats.per_task_s)
    return results  # type: ignore[return-value]


class _LastBatch(threading.local):
    stats: Optional[ConcurrencyStats] = None


_LAST_BATCH = _LastBatch()


def last_batch_stats() -> Optional[ConcurrencyStats]:
    """The :class:`ConcurrencyStats` of this thread's most recent parallel
    batch (``None`` before any ran)."""
    return _LAST_BATCH.stats
