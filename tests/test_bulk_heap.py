"""The traversal's frontier settles nodes exactly like textbook Dijkstra.

``ArrayTraversal`` keeps a plain ``heapq`` frontier of ``(dist, node)``
pairs and relaxes each settled row in one vectorized pass.  Its settle
order, distances and predecessors must be *identical* to a textbook
``heapq`` Dijkstra that relaxes edge by edge, under adversarial distance
ties: dense random digraphs, sparse ones with mixed degrees, and layered
graphs in which every settle improves a whole row.
"""

from __future__ import annotations

import heapq
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.dijkstra import ArrayTraversal


def traversal(rows, n):
    """An ``ArrayTraversal`` from node 0 over ``rows`` (node -> list of
    ``(neighbor, weight)``), every node alive."""
    alive = np.ones(n, dtype=bool)

    def adjacency(u):
        row = rows[u]
        return (np.asarray([v for v, _ in row], dtype=np.int64),
                np.asarray([w for _, w in row], dtype=np.float64))

    return ArrayTraversal(adjacency, 0, n, alive=lambda: alive)


def _dijkstra_settle_order(n, rows):
    """Settle order and distances of a textbook ``heapq`` Dijkstra."""
    dist = [math.inf] * n
    dist[0] = 0.0
    settled = [False] * n
    order = []
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u] or d > dist[u]:
            continue
        settled[u] = True
        order.append(u)
        for v, w in rows[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return order, dist


class TestSettleOrderIdentity:
    @given(st.integers(min_value=2, max_value=14), st.integers())
    @settings(max_examples=120, deadline=None)
    def test_dijkstra_settle_order_identical(self, n, seed):
        # Dense digraphs with edge weights from a tiny pool: many tentative
        # distances collide exactly, the regime where a sloppy frontier
        # would reorder settles.
        rng = random.Random(seed)
        weights = [1.0, 1.0, 2.0, 0.5, 3.0]
        rows = [[(v, rng.choice(weights)) for v in range(n)
                 if v != u and rng.random() < 0.6] for u in range(n)]
        order_ref, dist_ref = _dijkstra_settle_order(n, rows)
        tr = traversal(rows, n)
        tr.run_to_completion()
        assert [v for _d, v, _p in tr.settled] == order_ref
        assert tr.dist.tolist() == dist_ref  # exact — same float additions


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
    """Sparse random digraph with degrees from 1 to 20."""
    n = rng.randrange(2, 60)
    weights = [1.0, 1.0, 2.0, 0.5, 3.0, 1.0 + 2 ** -52]
    degrees = [1, 7, 10, 20]
    rows = []
    for u in range(n):
        others = [v for v in range(n) if v != u]
        k = min(rng.choice(degrees), len(others))
        rows.append([(v, rng.choice(weights)) for v in rng.sample(others, k)])
    return rows


def _layered_rows(rng):
    """Complete bipartite layers in which *every* settle improves the whole
    next layer, so rows of up to 22 improvements recur and the frontier
    holds many exactly tied pairs at once.

    Forward weights fall by 4 with the sender's settle rank, while a
    layer's distances spread by under 1/8, and ties within a layer are
    exact (offsets from a tiny pool).  Back edges to earlier layers never
    improve (the forward weights keep every layer at least 12 beyond the
    previous one), which yields long rows with few improvements.
    """
    sizes = [1] + [rng.choice([3, 7, 11, 17, 22])
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
    @given(st.booleans(), st.integers())
    @settings(max_examples=80, deadline=None)
    def test_traversal_matches_textbook_dijkstra(self, layered, seed):
        # Short and long rows, rows with few and with many improvements,
        # and exact distance ties throughout.
        rng = random.Random(seed)
        rows = _layered_rows(rng) if layered else _random_rows(rng)
        n = len(rows)
        tr = traversal(rows, n)
        tr.run_to_completion()
        assert tr.exhausted
        assert tr.settled == _textbook_settled(n, rows)  # exact floats


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
