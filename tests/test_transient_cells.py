"""Lifecycle of the visibility graph's transient visibility cells.

Edges between graph slots and the short-lived transient nodes (query
endpoints, evaluated data points) live in a (slot, transient) cell store
that row reads fill on demand.  These tests pin what keeps that store
small and never stale:

* bind/unbind churn on a long-lived shared graph keeps the store bounded
  by the live transients and the slots;
* ``compact()`` remaps the slots under live transients without serving a
  cell of the wrong node;
* an obstacle removal followed by an insert that restores the same
  rect/segment/polygon counts still recomputes every cell.

Rows are checked against the brute-force reference of
:mod:`tests.reference`.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import numpy as np

from repro.geometry import Segment
from repro.obstacles import RectObstacle, SegmentObstacle
from repro.obstacles.visgraph import LocalVisibilityGraph
from tests.conftest import random_query, random_scene
from tests.reference import assert_row_matches, reference_graph


def _graph(obstacles, qseg=None) -> LocalVisibilityGraph:
    g = LocalVisibilityGraph(qseg)
    g.add_obstacles(obstacles)
    return g


def _assert_all_rows_match(g: LocalVisibilityGraph) -> None:
    for v in g._alive_ids():
        assert_row_matches(g, v)


def test_bind_unbind_cycles_keep_cell_store_bounded():
    rng = random.Random(5)
    points, obstacles = random_scene(rng, n_points=20, n_obstacles=6)
    g = LocalVisibilityGraph(None, obstacles=obstacles)
    shapes = set()
    for i in range(500):
        g.bind(random_query(rng))
        _pid, (x, y) = points[i % len(points)]
        p = g.add_point(x, y)
        g.shortest_distances(p, (g.S, g.E))
        live = len(g._live_transients)
        assert live == 3
        n = len(g._xy)
        filled = np.count_nonzero(g._cell_state[:n, :live])
        assert filled <= live * g.num_nodes
        g.remove_point(p)
        g.unbind()
        assert g._live_transients == [] and g._tids.size == 0
        # The shared backend's compaction policy.
        if g.dead_slots > max(64, g.num_nodes):
            g.compact()
        shapes.add(g._cell_state.shape)
    # Columns never outgrow the live transients; rows follow the slot
    # capacity, which compaction bounds by the skeleton plus the dead
    # slots it tolerates (500 uncompacted cycles would hold 1,500 more).
    assert {cols for _rows, cols in shapes} == {4}
    max_slots = g.num_nodes + max(64, g.num_nodes) + 3
    assert max(rows for rows, _cols in shapes) <= 2 * max_slots


def test_compact_remaps_cells_of_live_transients():
    rng = random.Random(11)
    _points, obstacles = random_scene(rng, n_points=1, n_obstacles=6)
    g = _graph(obstacles, random_query(rng))
    coords = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(4)]
    ids = [g.add_point(x, y) for x, y in coords]
    # Fill every cell, then kill two transients so compaction moves the
    # survivors (and their columns' slots) to new ids.
    _assert_all_rows_match(g)
    g.remove_point(ids[0])
    g.remove_point(ids[2])
    assert g.compact() == 2
    assert g._tids.tolist() == g._live_transients
    assert g._live_transients == [
        i for i in g._alive_ids() if g._transient[i]]
    _assert_all_rows_match(g)
    ref = reference_graph(g)
    for src in g._live_transients:
        want = nx.single_source_dijkstra_path_length(ref, src)
        for t, d in g.shortest_distances(src, (g.S, g.E)).items():
            assert math.isclose(d, want.get(t, math.inf), rel_tol=0.0,
                                abs_tol=1e-9)


def test_remove_then_add_obstacle_recomputes_cells():
    # A point at the left sees the right wall's vertices across open
    # ground; the far-away decoy is swapped for a blocker in between, so
    # the rect/segment/polygon counts end where they started.
    wall = SegmentObstacle(60.0, 40.0, 60.0, 60.0)
    decoy = RectObstacle(85.0, 85.0, 90.0, 90.0)
    blocker = RectObstacle(30.0, 35.0, 35.0, 65.0)
    qseg = Segment(5.0, 5.0, 5.0, 95.0)
    g = _graph([wall, decoy], qseg)
    p = g.add_point(10.0, 50.0)
    far = g._obstacle_nodes[wall]
    for v in far:
        idx, _w = g.row_arrays(v)
        assert p in idx.tolist()                 # cell filled: visible
    counts = g._cell_omark
    g.remove_obstacle(decoy)
    g.add_obstacles([blocker])
    assert g._row_mark()[:3] == counts           # same counts as before
    for v in far:
        idx, _w = g.row_arrays(v)
        assert p not in idx.tolist()             # recomputed: now blocked
    _assert_all_rows_match(g)
