"""LRU buffer, page tracker, and best-first incremental traversal tests."""

from __future__ import annotations

import math

from repro.geometry import Segment
from repro.index import (
    IO_MS_PER_FAULT,
    IncrementalNearest,
    LRUBuffer,
    PageTracker,
    RStarTree,
    nearest_to_segment,
)


class TestLRUBuffer:
    def test_zero_capacity_always_misses(self):
        b = LRUBuffer(0)
        assert not b.access(1)
        assert not b.access(1)
        assert b.misses == 2 and b.hits == 0

    def test_hit_after_load(self):
        b = LRUBuffer(2)
        assert not b.access(1)
        assert b.access(1)
        assert b.hits == 1

    def test_lru_eviction_order(self):
        b = LRUBuffer(2)
        b.access(1)
        b.access(2)
        b.access(1)      # makes 2 the LRU
        b.access(3)      # evicts 2
        assert 1 in b and 3 in b and 2 not in b

    def test_capacity_respected(self):
        b = LRUBuffer(3)
        for pid in range(10):
            b.access(pid)
        assert len(b) == 3

    def test_evict_and_clear(self):
        b = LRUBuffer(4)
        b.access(1)
        b.evict(1)
        assert 1 not in b
        b.access(2)
        b.clear()
        assert len(b) == 0

    def test_hit_rate(self):
        b = LRUBuffer(1)
        b.access(1)
        b.access(1)
        assert b.hit_rate() == 0.5

    def test_negative_capacity_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            LRUBuffer(-1)


class TestPageTracker:
    def test_no_buffer_every_read_faults(self):
        t = PageTracker()
        pid = t.allocate()
        t.access(pid)
        t.access(pid)
        assert t.stats.logical_reads == 2
        assert t.stats.page_faults == 2

    def test_buffer_absorbs_rereads(self):
        t = PageTracker(buffer=LRUBuffer(8))
        pid = t.allocate()
        t.access(pid)
        t.access(pid)
        assert t.stats.logical_reads == 2
        assert t.stats.page_faults == 1

    def test_io_time_charges_10ms_per_fault(self):
        t = PageTracker()
        pid = t.allocate()
        t.access(pid)
        assert t.stats.io_time_ms() == IO_MS_PER_FAULT

    def test_snapshot_delta(self):
        t = PageTracker()
        pid = t.allocate()
        t.access(pid)
        snap = t.stats.snapshot()
        t.access(pid)
        t.access(pid)
        d = t.stats.delta(snap)
        assert d.logical_reads == 2 and d.page_faults == 2

    def test_free_releases_page(self):
        t = PageTracker(buffer=LRUBuffer(4))
        pid = t.allocate()
        assert t.num_pages == 1
        t.access(pid)
        t.free(pid)
        assert t.num_pages == 0
        assert pid not in t.buffer


class TestIncrementalNearest:
    def _tree(self, rng, n=300):
        t = RStarTree(page_size=256)
        pts = [(i, (rng.uniform(0, 100), rng.uniform(0, 100)))
               for i in range(n)]
        for i, (x, y) in pts:
            t.insert_point(i, x, y)
        return t, pts

    def test_ascending_order(self, rng):
        t, pts = self._tree(rng)
        scan = IncrementalNearest(t, lambda r: r.mindist_point(50, 50))
        dists = [d for d, _p, _r in scan]
        assert dists == sorted(dists)
        assert len(dists) == len(pts)

    def test_matches_brute_force_order(self, rng):
        t, pts = self._tree(rng, n=150)
        scan = IncrementalNearest(t, lambda r: r.mindist_point(30, 70))
        got = [d for d, _p, _r in scan]
        want = sorted(math.hypot(x - 30, y - 70) for _i, (x, y) in pts)
        for g, w in zip(got, want):
            assert math.isclose(g, w, abs_tol=1e-7)

    def test_peek_does_not_consume(self, rng):
        t, _pts = self._tree(rng, n=50)
        scan = IncrementalNearest(t, lambda r: r.mindist_point(0, 0))
        k1 = scan.peek_key()
        k2 = scan.peek_key()
        assert k1 == k2
        d, _p, _r = scan.pop()
        assert math.isclose(d, k1)

    def test_exhaustion(self, rng):
        t, pts = self._tree(rng, n=10)
        scan = IncrementalNearest(t, lambda r: r.mindist_point(0, 0))
        for _ in pts:
            assert scan.pop() is not None
        assert scan.pop() is None
        assert math.isinf(scan.peek_key())

    def test_empty_tree(self):
        t = RStarTree()
        scan = IncrementalNearest(t, lambda r: r.mindist_point(0, 0))
        assert scan.pop() is None
        assert math.isinf(scan.peek_key())

    def test_segment_keyed_scan(self, rng):
        t, pts = self._tree(rng, n=200)
        seg = Segment(10, 10, 90, 20)
        scan = nearest_to_segment(t, 10, 10, 90, 20)
        got = [(d, p) for d, p, _r in scan]
        want = sorted((seg.dist_point(x, y), i) for i, (x, y) in pts)
        for (gd, _gp), (wd, _wp) in zip(got, want):
            assert math.isclose(gd, wd, abs_tol=1e-7)

    def test_scan_charges_io(self, rng):
        t, _pts = self._tree(rng, n=300)
        before = t.tracker.stats.logical_reads
        scan = IncrementalNearest(t, lambda r: r.mindist_point(50, 50))
        for _ in range(10):
            scan.pop()
        assert t.tracker.stats.logical_reads > before
