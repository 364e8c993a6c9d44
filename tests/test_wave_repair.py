"""Frontier-wave stale-row repair on the array engine.

When obstacles grow a graph whose rows are already cut, the next
traversal finds those rows stale.  The traversal's prefetch hook repairs
the stale rows of the settling node and its gathered frontier in one
batched pass per watermark group; a read outside a traversal (or with
``frontier_prefetch=0``) repairs just its row through the same bulk path.
Either way every row read must equal the scalar engine's row.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RectObstacle, SegmentObstacle
from repro.obstacles.visgraph import LocalVisibilityGraph
from repro.routing.config import ARRAY_ENGINE, SCALAR_ENGINE
from tests.conftest import random_query, random_scene


def _growth(rng: random.Random, n: int):
    """Small obstacles scattered over the scene: new vertices and new
    blockers for rows cut before they arrived."""
    out = []
    for _ in range(n):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        if rng.random() < 0.5:
            out.append(SegmentObstacle(x, y, x + rng.uniform(-6, 6),
                                       y + rng.uniform(-6, 6)))
        else:
            out.append(RectObstacle(x, y, x + rng.uniform(1, 5),
                                    y + rng.uniform(1, 5)))
    return out


def _record_repairs(g: LocalVisibilityGraph):
    """Wrap the bulk repair to record the size of every repaired batch."""
    sizes = []
    bulk = g._repair_rows_bulk

    def spy(rows, mark, mark_now):
        sizes.append(len(rows))
        return bulk(rows, mark, mark_now)

    g._repair_rows_bulk = spy
    return sizes


def _record_reads(g: LocalVisibilityGraph):
    """Wrap ``row_arrays`` (what traversals read) to keep a copy of every
    row as it was handed out."""
    reads = []
    plain = g.row_arrays

    def spy(node):
        idx, w = plain(node)
        reads.append((node, dict(zip(idx.tolist(), w.tolist()))))
        return idx, w

    g.row_arrays = spy
    return reads


@pytest.mark.parametrize("prefetch", [16, 0])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_rows_read_after_growth_match_the_scalar_engine(prefetch, seed):
    rng = random.Random(seed)
    points, obstacles = random_scene(rng, n_points=5, n_obstacles=10)
    qseg = random_query(rng)
    growth = [_growth(rng, 4), _growth(rng, 3)]
    array_g = LocalVisibilityGraph(qseg, engine=ARRAY_ENGINE,
                                   prefetch=prefetch)
    scalar_g = LocalVisibilityGraph(qseg, engine=SCALAR_ENGINE)
    sizes = _record_repairs(array_g)
    reads = _record_reads(array_g)
    pair = (array_g, scalar_g)
    for g in pair:
        g.add_obstacles(obstacles)
    nodes = [array_g.add_point(x, y) for _p, (x, y) in points]
    assert nodes == [scalar_g.add_point(x, y) for _p, (x, y) in points]
    sources = [array_g.S, array_g.E] + nodes[:2]
    for batch in [None] + growth:
        if batch is not None:
            for g in pair:
                g.add_obstacles(batch)
        del reads[:]
        for source in sources:
            want = list(scalar_g.dijkstra_order(source))
            assert list(array_g.dijkstra_order(source)) == want
        assert reads, "traversals must read rows"
        for node, row in reads:
            assert row == scalar_g.neighbors(node)
    repaired = sum(sizes)
    assert repaired, "growth must leave rows to repair"
    if prefetch:
        # Waves: fewer repair batches than rows repaired.
        assert max(sizes) > 1 and len(sizes) < repaired
    else:
        assert set(sizes) == {1}
