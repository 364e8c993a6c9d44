"""Frontier-wave stale-row repair.

When obstacles grow a graph whose rows are already cut, the next
traversal finds those rows stale.  The traversal's prefetch hook repairs
the stale rows of the settling node and its gathered frontier in one
batched pass per watermark group; a read outside a traversal repairs
just its row through the same bulk path.  Either way every row read must
equal the brute-force reference row of :mod:`tests.reference`.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RectObstacle, SegmentObstacle
from repro.obstacles.visgraph import LocalVisibilityGraph
from tests.conftest import random_query, random_scene
from tests.reference import (
    assert_traversal_matches,
    reference_graph,
    reference_row,
)


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


@pytest.mark.parametrize("reader", ["traversal", "one-row"])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_rows_read_after_growth_match_the_reference(reader, seed):
    rng = random.Random(seed)
    points, obstacles = random_scene(rng, n_points=5, n_obstacles=10)
    qseg = random_query(rng)
    growth = [_growth(rng, 4), _growth(rng, 3)]
    g = LocalVisibilityGraph(qseg)
    sizes = _record_repairs(g)
    reads = _record_reads(g)
    g.add_obstacles(obstacles)
    nodes = [g.add_point(x, y) for _p, (x, y) in points]
    sources = [g.S, g.E] + nodes[:2]
    for batch in [None] + growth:
        if batch is not None:
            g.add_obstacles(batch)
        del reads[:]
        if reader == "traversal":
            ref = reference_graph(g)
            for source in sources:
                assert_traversal_matches(
                    g, source, list(g.dijkstra_order(source)), ref)
        else:
            for v in g._alive_ids():
                g.row_arrays(v)
        assert reads, "rows must be read"
        for node, row in reads:
            assert row == reference_row(g, node)
    repaired = sum(sizes)
    assert repaired, "growth must leave rows to repair"
    if reader == "traversal":
        # Waves: fewer repair batches than rows repaired.
        assert max(sizes) > 1 and len(sizes) < repaired
    else:
        assert set(sizes) == {1}
