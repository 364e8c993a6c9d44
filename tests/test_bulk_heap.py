"""BulkRowHeap parity with heapq — the traversal's settle-order proof.

The sequence heap is ``ArrayTraversal``'s only frontier, so its pop order
must be *identical* to a binary heap of individual ``(dist, node)`` tuples
under every workload, including adversarial distance ties.  Hypothesis
drives both structures through the same operation sequences (distances
drawn from a tiny pool to force ties), a randomized Dijkstra settle-order
comparison, and ``ArrayTraversal`` itself against a textbook ``heapq``
Dijkstra.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.dijkstra import _SCALAR_RELAX, ArrayTraversal
from repro.routing.heap import _MIN_RUN, BulkRowHeap

# A tiny distance pool makes (dist, node) ties — and even exact duplicate
# pairs — common instead of vanishingly rare.
tie_dist = st.sampled_from(
    [0.0, 1.0, 1.0 + 2 ** -52, 2.0, 2.5, 3.0])
node_id = st.integers(min_value=0, max_value=15)

# Rows both below and above _MIN_RUN, so the per-element and sorted-run
# paths (and their interleavings) are all exercised.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), tie_dist, node_id),
        st.tuples(st.just("row"),
                  st.lists(st.tuples(tie_dist, node_id), max_size=24)),
        st.tuples(st.just("pop")),
    ),
    max_size=80)


class TestHeapqParity:
    @given(operations)
    @settings(max_examples=200, deadline=None)
    def test_pop_order_matches_heapq(self, ops):
        # max_runs=3 forces frequent compaction so the merge path is
        # exercised, not just the fast run-cursor path.
        h = BulkRowHeap(max_runs=3)
        ref: list = []
        for op in ops:
            if op[0] == "push":
                _, d, n = op
                h.push(d, n)
                heapq.heappush(ref, (d, n))
            elif op[0] == "row":
                pairs = op[1]
                ds = np.asarray([p[0] for p in pairs], dtype=np.float64)
                ns = np.asarray([p[1] for p in pairs], dtype=np.int64)
                h.push_row(ds, ns)
                for d, n in pairs:
                    heapq.heappush(ref, (d, n))
            else:
                assert bool(h) == bool(ref)
                if ref:
                    assert h.pop() == heapq.heappop(ref)
            assert len(h) == len(ref)
        while ref:
            assert h.pop() == heapq.heappop(ref)
        assert not h and len(h) == 0

    def test_empty_row_is_noop(self):
        h = BulkRowHeap()
        assert not h.push_row(np.empty(0), np.empty(0, dtype=np.int64))
        assert len(h) == 0 and not h

    def test_bulk_push_counter_counts_runs_only(self):
        h = BulkRowHeap()
        h.push(0.0, 0)
        bulk = [
            h.push_row(np.array([2.0, 1.0]), np.array([5, 7])),  # singletons
            h.push_row(np.arange(20.0) + 3.0,
                       np.arange(20, dtype=np.int64)),  # one sorted run
        ]
        assert bulk == [False, True]
        assert [h.pop() for _ in range(3)] == [(0.0, 0), (1.0, 7), (2.0, 5)]
        assert [h.pop() for _ in range(20)] == [
            (3.0 + i, i) for i in range(20)]

    def test_compaction_preserves_order(self):
        # max_runs=2 with long rows triggers repeated compaction; short
        # rows interleave singleton entries that compaction must keep.
        h = BulkRowHeap(max_runs=2)
        ref: list = []
        rng = random.Random(7)
        for i in range(12):
            size = rng.randrange(16, 30) if i % 2 == 0 else rng.randrange(1, 5)
            pairs = [(rng.choice([1.0, 2.0, 2.0, 3.0]), rng.randrange(6))
                     for _ in range(size)]
            h.push_row(np.array([p[0] for p in pairs]),
                       np.array([p[1] for p in pairs], dtype=np.int64))
            for p in pairs:
                heapq.heappush(ref, p)
        while ref:
            assert h.pop() == heapq.heappop(ref)


def _dijkstra_settle_order(n, rows, use_bulk):
    """Settle order of a textbook Dijkstra over adjacency ``rows``."""
    dist = [math.inf] * n
    dist[0] = 0.0
    settled = [False] * n
    order = []
    if use_bulk:
        heap = BulkRowHeap(max_runs=3)
        heap.push(0.0, 0)
    else:
        heap = [(0.0, 0)]
    while heap:
        if use_bulk:
            d, u = heap.pop()
        else:
            d, u = heapq.heappop(heap)
        if settled[u] or d > dist[u]:
            continue
        settled[u] = True
        order.append(u)
        improved_d, improved_v = [], []
        for v, w in rows[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                improved_d.append(nd)
                improved_v.append(v)
        if use_bulk:
            heap.push_row(np.asarray(improved_d, dtype=np.float64),
                          np.asarray(improved_v, dtype=np.int64))
        else:
            for nd, v in zip(improved_d, improved_v):
                heapq.heappush(heap, (nd, v))
    return order, dist


class TestSettleOrderIdentity:
    @given(st.integers(min_value=2, max_value=14), st.integers())
    @settings(max_examples=120, deadline=None)
    def test_dijkstra_settle_order_identical(self, n, seed):
        # Edge weights from a tiny pool: many tentative distances collide
        # exactly, the regime where a sloppy heap would reorder settles.
        rng = random.Random(seed)
        weights = [1.0, 1.0, 2.0, 0.5, 3.0]
        rows = [[(v, rng.choice(weights)) for v in range(n)
                 if v != u and rng.random() < 0.6] for u in range(n)]
        order_ref, dist_ref = _dijkstra_settle_order(n, rows, use_bulk=False)
        order_blk, dist_blk = _dijkstra_settle_order(n, rows, use_bulk=True)
        assert order_blk == order_ref
        assert dist_blk == dist_ref  # exact — same float additions


def _textbook_settled(n, rows):
    """``(dist, node, pred)`` in settle order from a plain ``heapq``
    Dijkstra over ``rows`` (node -> list of ``(neighbor, weight)``)."""
    dist = [math.inf] * n
    pred = [-1] * n
    done = [False] * n
    dist[0] = 0.0
    heap = [(0.0, 0)]
    out = []
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        out.append((d, u, None if pred[u] < 0 else pred[u]))
        for v, w in rows[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return out


def _random_rows(rng):
    """Sparse random digraph; degrees straddle both relax thresholds."""
    n = rng.randrange(2, 60)
    weights = [1.0, 1.0, 2.0, 0.5, 3.0, 1.0 + 2 ** -52]
    degrees = [1, _SCALAR_RELAX - 1, _SCALAR_RELAX + 2, _MIN_RUN + 4]
    rows = []
    for u in range(n):
        others = [v for v in range(n) if v != u]
        k = min(rng.choice(degrees), len(others))
        rows.append([(v, rng.choice(weights)) for v in rng.sample(others, k)])
    return rows


def _layered_rows(rng):
    """Complete bipartite layers in which *every* settle improves the whole
    next layer, so rows of up to ``_MIN_RUN + 6`` improvements recur and
    the larger graphs push enough runs to compact the frontier.

    Forward weights fall by 4 with the sender's settle rank, while a
    layer's distances spread by under 1/8, and ties within a layer are
    exact (offsets from a tiny pool).  Back edges to earlier layers never
    improve (the forward weights keep every layer at least 12 beyond the
    previous one), which yields long rows with few improvements.
    """
    sizes = [1] + [rng.choice([3, _SCALAR_RELAX - 1, _SCALAR_RELAX + 3,
                               _MIN_RUN + 1, _MIN_RUN + 6])
                   for _ in range(rng.randrange(1, 7))]
    layers, start = [], 0
    for size in sizes:
        layers.append(range(start, start + size))
        start += size
    rows = [[] for _ in range(start)]
    offset = {}
    for layer in layers:
        offs = sorted(rng.choice([0.0, 0.0, 2 ** -40, 1 / 16]) for _ in layer)
        offset.update(zip(layer, offs))
    for a, b in zip(layers, layers[1:]):
        for rank, u in enumerate(a):
            rows[u] = [(v, 100.0 - 4.0 * rank + offset[v]) for v in b]
    for layer in layers[1:]:
        earlier = range(layer.start)
        for u in layer:
            k = min(rng.randrange(0, 12), len(earlier))
            rows[u] += [(v, rng.choice([0.5, 1.0, 2.0]))
                        for v in rng.sample(earlier, k)]
            rng.shuffle(rows[u])
    return rows


class TestTraversalSettleOrder:
    @given(st.booleans(), st.sampled_from([2, 48]), st.integers())
    @settings(max_examples=80, deadline=None)
    def test_traversal_matches_textbook_dijkstra(self, layered, max_runs,
                                                 seed):
        # ArrayTraversal itself: tiny rows, few-improved rows, singleton
        # pushes and sorted runs interleave in one frontier, with exact
        # distance ties throughout.  max_runs=2 makes the layered graphs
        # compact the frontier mid-traversal; 48 is the production default.
        rng = random.Random(seed)
        rows = _layered_rows(rng) if layered else _random_rows(rng)
        n = len(rows)

        def adjacency(u):
            row = rows[u]
            return (np.asarray([v for v, _ in row], dtype=np.int64),
                    np.asarray([w for _, w in row], dtype=np.float64))

        frontier = functools.partial(BulkRowHeap, max_runs=max_runs)
        with mock.patch("repro.routing.dijkstra.BulkRowHeap", frontier):
            tr = ArrayTraversal(adjacency, 0, n)
        tr.run_to_completion()
        assert tr.exhausted
        assert tr.settled == _textbook_settled(n, rows)  # exact floats


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
