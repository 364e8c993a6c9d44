"""Snapshot isolation and parallel execution: the concurrency suite.

Covers the read/write lock, snapshot lifecycle, the parallel batch
executor's result equivalence (thread and fork modes), per-session backend
counter aggregation, parallel monitor repair, the async service front —
and the stress test interleaving live updates with parallel batches from
multiple threads, asserting every batch matches a serial re-execution on
its pinned snapshot.
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AddObstacle,
    AddSite,
    CoknnQuery,
    OnnQuery,
    RangeQuery,
    RectObstacle,
    RemoveObstacle,
    RemoveSite,
    Segment,
    SnapshotExpired,
    Workspace,
)
from repro.datasets.synthetic import random_rect_obstacles, uniform_points
from repro.query.parallel import (
    effective_workers,
    execute_many_parallel,
    last_batch_stats,
)
from repro.service.concurrency import CountingRLock, ReadWriteLock

BOUNDS = (0.0, 0.0, 1000.0, 1000.0)


def make_ws(n_points=120, n_obstacles=50, seed=3, **kwargs):
    rng = random.Random(seed)
    pts = [(i, xy) for i, xy in enumerate(uniform_points(n_points, rng,
                                                         BOUNDS))]
    obs = random_rect_obstacles(n_obstacles, rng, bounds=BOUNDS)
    return Workspace.from_points(pts, obs, **kwargs)


def mixed_queries(rng, n):
    qs = []
    for _ in range(n):
        x, y = rng.uniform(50, 950), rng.uniform(50, 950)
        kind = rng.randrange(3)
        if kind == 0:
            qs.append(CoknnQuery(Segment(x, y, x + rng.uniform(20, 150),
                                         y + rng.uniform(-80, 80)),
                                 rng.randrange(1, 4)))
        elif kind == 1:
            qs.append(OnnQuery((x, y), rng.randrange(1, 4)))
        else:
            qs.append(RangeQuery((x, y), rng.uniform(40, 140)))
    return qs


def tuple_rows(results):
    return [r.tuples() for r in results]


def rows_close(a, b, tol=1e-9):
    """Tolerant result comparison: owners exact, numbers to ``tol``.

    Parallel/serial equivalence within one snapshot is bit-exact and
    compared with ``==``; repaired standing monitor results may differ
    from a fresh execution by float-splicing noise, which the monitor
    suite has always compared with a tolerance.
    """
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for ta, tb in zip(ra, rb):
            if ta[0] != tb[0]:
                return False
            va = ta[1] if isinstance(ta[1], tuple) else (ta[1],)
            vb = tb[1] if isinstance(tb[1], tuple) else (tb[1],)
            if va != pytest.approx(vb, abs=tol):
                return False
    return True


def assert_rows_close(got, want, names, tol=1e-9):
    """:func:`rows_close` per result, failing with the name of the first
    result that differs and both of its row lists."""
    assert len(got) == len(want) == len(names)
    for name, g, w in zip(names, got, want):
        assert rows_close([g], [w], tol), (
            f"{name}: rows differ\n  got:  {g}\n  want: {w}")


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        log = []

        def reader(i):
            with lock.read():
                log.append(("r", i))
                time.sleep(0.02)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(4)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Four 20 ms readers overlapping: far less than 80 ms serial.
        assert time.perf_counter() - t0 < 0.075
        assert len(log) == 4

    def test_writer_waits_for_readers(self):
        lock = ReadWriteLock()
        order = []
        ready = threading.Event()

        def reader():
            with lock.read():
                ready.set()
                time.sleep(0.03)
                order.append("read")

        def writer():
            ready.wait()
            with lock.write():
                order.append("write")

        tr, tw = threading.Thread(target=reader), threading.Thread(
            target=writer)
        tr.start()
        tw.start()
        tr.join()
        tw.join()
        assert order == ["read", "write"]
        assert lock.write_waits == 1

    def test_reentrant_read_and_read_under_write(self):
        lock = ReadWriteLock()
        with lock.read():
            with lock.read():
                pass
        with lock.write():
            with lock.read():  # virtual read under own write
                pass
            with lock.write():  # re-entrant write
                pass
        # Write released before a virtual read would be: simulate.
        lock.acquire_write()
        lock.acquire_read()
        lock.release_write()
        lock.release_read()
        assert lock.readers == 0 and not lock.write_held

    def test_upgrade_is_rejected(self):
        lock = ReadWriteLock()
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()

    def test_counting_lock_counts_contention(self):
        lock = CountingRLock()
        hold = threading.Event()
        entered = threading.Event()

        def holder():
            with lock:
                entered.set()
                hold.wait()

        def contender():
            with lock:
                pass

        t = threading.Thread(target=holder)
        t.start()
        entered.wait()
        blocked = threading.Thread(target=contender)
        blocked.start()
        time.sleep(0.01)
        hold.set()
        blocked.join()
        t.join()
        assert lock.contended == 1
        assert lock.acquisitions == 2


class TestThreadLocalTracking:
    def test_page_tracker_attributes_reads_per_thread(self):
        from repro import PageTracker

        tracker = PageTracker()
        pid = tracker.allocate()
        counts = {}

        def reader(name, n):
            before = tracker.local_stats.snapshot()
            for _ in range(n):
                tracker.access(pid)
            counts[name] = tracker.local_stats.delta(before).logical_reads

        threads = [threading.Thread(target=reader, args=(f"t{i}", 10 + i))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Each thread sees exactly its own reads, never a neighbor's.
        assert counts == {"t0": 10, "t1": 11, "t2": 12, "t3": 13}


class TestSnapshot:
    def test_snapshot_pins_versions_and_expires(self):
        ws = make_ws()
        snap = ws.snapshot()
        q = CoknnQuery(Segment(100, 100, 300, 200), 2)
        want = ws.execute(q).tuples()
        assert snap.execute(q).tuples() == want
        assert not snap.expired
        ws.add_site(999, (500.0, 500.0))
        assert snap.expired
        with pytest.raises(SnapshotExpired):
            snap.execute(q)
        with pytest.raises(SnapshotExpired):
            snap.execute_many([q], workers=2)
        fresh = ws.snapshot()
        assert fresh.execute(q).query is q

    def test_snapshot_is_immutable(self):
        ws = make_ws()
        snap = ws.snapshot()
        with pytest.raises(AttributeError, match="immutable"):
            snap.apply
        with pytest.raises(AttributeError, match="immutable"):
            snap.add_obstacle

    def test_snapshot_pins_cache_and_graph_state(self):
        ws = make_ws()
        ws.prefetch_all()
        ws.conn(Segment(100, 100, 300, 200))
        snap = ws.snapshot()
        assert snap.cache_view.resident == len(ws.cache)
        assert snap.cache_view.epoch == ws.cache.epoch
        assert snap.vg_generation == ws.routing.generation
        assert snap.tree_versions
        # Unannounced direct tree mutation also expires the snapshot.
        ws.obstacle_tree.insert(
            RectObstacle(1.0, 1.0, 2.0, 2.0), RectObstacle(
                1.0, 1.0, 2.0, 2.0).mbr())
        assert snap.expired


class TestParallelExecutor:
    @pytest.mark.parametrize("schedule", ["locality", "fifo"])
    def test_thread_mode_matches_serial(self, schedule):
        ws = make_ws()
        rng = random.Random(11)
        qs = mixed_queries(rng, 40)
        serial = ws.execute_many(qs, schedule="fifo")
        par = ws.execute_many(qs, schedule=schedule, workers=4)
        assert tuple_rows(par) == tuple_rows(serial)
        for q, r in zip(qs, par):
            assert r.query is q
        stats = last_batch_stats()
        assert stats.queries == len(qs)
        assert stats.workers == 4 and stats.mode == "thread"
        assert stats.wall_time_s > 0
        assert 0.0 < stats.worker_utilization <= 1.0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX only")
    def test_fork_mode_matches_serial(self):
        ws = make_ws()
        rng = random.Random(12)
        qs = mixed_queries(rng, 24)
        ws.prefetch_all()  # warm parent: children inherit by fork
        serial = ws.execute_many(qs)
        par = ws.snapshot().execute_many(qs, workers=2, mode="fork")
        assert tuple_rows(par) == tuple_rows(serial)

    @pytest.mark.skipif(not hasattr(os, "fork")
                        or effective_workers(2, "fork") < 2,
                        reason="needs two fork workers (POSIX, 2+ CPUs)")
    def test_dead_fork_worker_fails_batch_and_pool_recovers(self,
                                                             monkeypatch):
        """A forked worker that dies mid-batch fails the whole batch with
        ``BrokenProcessPool`` (never a partial list) and leaves nothing
        behind: the pool global is cleared, the read hold is released (an
        update applies) and the next fork batch answers every query."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.query import parallel

        ws = make_ws(n_points=60, n_obstacles=20)
        qs = mixed_queries(random.Random(21), 12)
        parent = os.getpid()
        real = parallel._execute_bucket

        def dies_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        monkeypatch.setattr(parallel, "_execute_bucket", dies_in_worker)
        with pytest.raises(BrokenProcessPool):
            ws.execute_many(qs, workers=2, mode="fork")
        monkeypatch.undo()
        assert parallel._fork_run_group is None
        assert ws.apply([AddSite("late", 500.0, 500.0)]) == [True]
        out = ws.execute_many(qs, workers=2, mode="fork")
        assert len(out) == len(qs)
        assert tuple_rows(out) == tuple_rows(ws.execute_many(qs))

    def test_warm_workload_runs_parallel_on_shared_graph(self):
        ws = make_ws()
        ws.prefetch_all()
        rng = random.Random(13)
        qs = mixed_queries(rng, 30)
        ws.execute_many(qs)  # warm: primary graph resident
        assert ws.routing.ready
        sessions0 = ws.routing.stats.sessions
        par = ws.execute_many(qs, workers=4)
        assert tuple_rows(par) == tuple_rows(ws.execute_many(qs))
        # Every spatial query ran a shared-backend session; counters
        # aggregated exactly despite concurrent detaches (satellite:
        # per-session counters merged at collection).
        assert ws.routing.stats.sessions > sessions0

    def test_parallel_per_query_stats_are_exact(self):
        ws = make_ws()
        rng = random.Random(14)
        qs = mixed_queries(rng, 24)
        serial = ws.execute_many(qs, schedule="fifo")
        ws2 = make_ws()
        par = ws2.execute_many(qs, schedule="fifo", workers=4)
        # Engine work counters are deterministic per query; each parallel
        # worker must report its own query's counters, not a neighbor's.
        for s, p in zip(serial, par):
            assert s.stats.npe == p.stats.npe
            assert s.stats.backend.sessions == p.stats.backend.sessions
        # Thread-local I/O attribution: summed parallel obstacle reads
        # equal the tree's total logical-read delta (nothing torn or
        # double-charged across workers).
        assert all(p.stats.io.logical_reads >= 0 for p in par)

    def test_backend_session_totals_aggregate(self):
        """Satellite: BackendStats counters merge per-session at collection
        — totals equal the sum of per-query blocks even under parallel
        detach."""
        ws = make_ws()
        ws.prefetch_all()
        rng = random.Random(15)
        qs = [CoknnQuery(Segment(rng.uniform(50, 900), rng.uniform(50, 900),
                                 rng.uniform(50, 900), rng.uniform(50, 900)),
                         2) for _ in range(20)]
        before_shared = ws.routing.stats.sessions
        before_perq = ws.per_query_backend.stats.sessions
        results = ws.execute_many(qs, workers=4)
        total_sessions = (ws.routing.stats.sessions - before_shared) + \
            (ws.per_query_backend.stats.sessions - before_perq)
        assert total_sessions == sum(r.stats.backend.sessions
                                     for r in results)
        vt_per_query = sum(r.stats.backend.visibility_tests
                           for r in results)
        assert vt_per_query >= 0
        # Dijkstra totals: backend cumulative >= sum over this batch's
        # queries (other work may have preceded), and the batch's own
        # per-query deltas are internally consistent.
        for r in results:
            b = r.stats.backend
            assert b.sessions == 1
            assert b.nodes_settled >= 0 and b.dijkstra_runs >= 0

    def test_effective_workers_clamps_fork(self):
        assert effective_workers(1) == 1
        assert effective_workers(8, "thread") == 8
        assert effective_workers(8, "fork") <= max(1, os.cpu_count() or 1)

    def test_accepts_bare_workspace(self):
        ws = make_ws()
        qs = mixed_queries(random.Random(16), 6)
        out = execute_many_parallel(ws, qs, workers=2)
        assert tuple_rows(out) == tuple_rows(ws.execute_many(qs))


class TestServiceFront:
    def test_submit_returns_futures_in_any_order(self):
        ws = make_ws()
        rng = random.Random(17)
        qs = mixed_queries(rng, 12)
        want = tuple_rows(ws.execute_many(qs, schedule="fifo"))
        with ws.service.serve(workers=3) as svc:
            futures = [svc.submit(q) for q in qs]
            got = [f.result(timeout=60).tuples() for f in futures]
        assert got == want

    def test_submit_autostarts_and_shutdown_is_idempotent(self):
        ws = make_ws(n_points=40, n_obstacles=10)
        q = OnnQuery((500.0, 500.0), 2)
        f = ws.service.submit(q)
        assert f.result(timeout=60).tuples() == ws.execute(q).tuples()
        ws.service.shutdown()
        ws.service.shutdown()


class TestParallelMonitors:
    def test_parallel_repair_matches_serial(self):
        rng = random.Random(18)
        updates = [
            AddSite(1000, 300.0, 310.0),
            AddObstacle(RectObstacle(250.0, 250.0, 320.0, 330.0, oid=9001)),
            RemoveSite(1000, 300.0, 310.0),
            RemoveObstacle(RectObstacle(250.0, 250.0, 320.0, 330.0,
                                        oid=9001)),
            AddSite(1001, 620.0, 180.0),
        ]
        queries = [CoknnQuery(Segment(200, 200, 500, 400), 2),
                   CoknnQuery(Segment(100, 600, 600, 650), 1),
                   OnnQuery((320.0, 300.0), 3),
                   RangeQuery((280.0, 280.0), 150.0)]

        def run(repair_workers):
            ws = make_ws(seed=18)
            ws.monitors.repair_workers = repair_workers
            monitors = [ws.monitors.register(q) for q in queries]
            for u in updates:
                ws.apply([u])
            return [m.result.tuples() for m in monitors]

        names = [q.describe() for q in queries]
        serial = run(1)
        parallel = run(3)
        assert_rows_close(parallel, serial, names)
        # Exactness: standing results equal fresh executions (to the same
        # splice tolerance the serial monitor suite uses).
        ws = make_ws(seed=18)
        ws.monitors.repair_workers = 3
        monitors = [ws.monitors.register(q) for q in queries]
        for u in updates:
            ws.apply([u])
        assert_rows_close([m.result.tuples() for m in monitors],
                          [ws.execute(q).tuples() for q in queries], names)


class TestInterleavedStress:
    """Satellite: updates racing parallel batches, verified per snapshot."""

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_parallel_batches_match_serial_on_pinned_snapshot(self, seed):
        rng = random.Random(seed)
        ws = make_ws(n_points=60, n_obstacles=24, seed=seed % 1000)
        qs = mixed_queries(rng, 12)
        updates = []
        for i in range(14):
            kind = rng.randrange(4)
            x, y = rng.uniform(100, 900), rng.uniform(100, 900)
            if kind == 0:
                updates.append(AddSite(5000 + i, x, y))
            elif kind == 1 and i > 2:
                prev = updates[rng.randrange(len(updates))]
                if isinstance(prev, AddSite):
                    updates.append(RemoveSite(prev.payload, prev.x, prev.y))
                else:
                    updates.append(AddSite(5000 + i, x, y))
            elif kind == 2:
                updates.append(AddObstacle(RectObstacle(
                    x, y, x + rng.uniform(10, 80), y + rng.uniform(10, 80),
                    oid=7000 + i)))
            else:
                updates.append(AddSite(5000 + i, x, y))

        stop = threading.Event()
        failures = []

        def writer():
            for u in updates:
                if stop.is_set():
                    return
                ws.apply([u])
                time.sleep(0.001)

        def read_batches():
            done = 0
            while done < 4 and not stop.is_set():
                # Pin one version for parallel AND serial execution: any
                # torn read, stale plan, or racy cache serve shows up as a
                # mismatch between the two runs on identical state.
                with ws.read_lock():
                    snap = ws.snapshot()
                    par = snap.execute_many(qs, workers=3)
                    serial = [snap.execute(q) for q in qs]
                if tuple_rows(par) != tuple_rows(serial):
                    failures.append((snap.workspace_version,
                                     tuple_rows(par), tuple_rows(serial)))
                    return
                done += 1

        wt = threading.Thread(target=writer)
        rts = [threading.Thread(target=read_batches) for _ in range(2)]
        wt.start()
        for t in rts:
            t.start()
        wt.join(timeout=120)
        for t in rts:
            t.join(timeout=120)
        stop.set()
        assert not failures, f"snapshot divergence: {failures[0][0]}"
        # The workspace is still healthy afterwards.
        final = ws.execute_many(qs)
        assert tuple_rows(final) == tuple_rows(
            [ws.execute(q) for q in qs])

    def test_expired_snapshot_never_serves_mid_batch(self):
        """A batch admitted under a read hold finishes on its version even
        while a writer queues; the writer's epoch wait is recorded."""
        ws = make_ws(n_points=50, n_obstacles=20, seed=77)
        qs = mixed_queries(random.Random(77), 10)
        started = threading.Event()
        applied = threading.Event()

        def writer():
            started.wait()
            ws.add_site(8888, (500.0, 500.0))
            applied.set()

        t = threading.Thread(target=writer)
        t.start()
        with ws.read_lock():
            snap = ws.snapshot()
            started.set()
            time.sleep(0.02)  # writer is now blocked on our read hold
            results = snap.execute_many(qs, workers=2)
            assert not applied.is_set(), "update slipped into the epoch"
            assert not snap.expired
        t.join(timeout=60)
        assert applied.is_set()
        assert snap.expired
        assert ws.epoch_waits >= 1
        assert len(results) == len(qs)
