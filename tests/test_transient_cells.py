"""Lifecycle of the array engine's transient visibility cells.

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
"""

from __future__ import annotations

import random

import numpy as np

from repro.geometry import Segment
from repro.obstacles import RectObstacle, SegmentObstacle
from repro.obstacles.visgraph import LocalVisibilityGraph
from repro.routing.config import ARRAY_ENGINE, SCALAR_ENGINE
from tests.conftest import random_query, random_scene


def _twins(obstacles, qseg=None):
    pair = []
    for engine in (ARRAY_ENGINE, SCALAR_ENGINE):
        g = LocalVisibilityGraph(qseg, engine=engine)
        g.add_obstacles(obstacles)
        pair.append(g)
    return pair


def _assert_all_rows_match(array_g, scalar_g) -> None:
    assert array_g._alive_ids() == scalar_g._alive_ids()
    for v in array_g._alive_ids():
        idx, w = array_g.row_arrays(v)
        assert dict(zip(idx.tolist(), w.tolist())) == scalar_g.neighbors(v)


def test_bind_unbind_cycles_keep_cell_store_bounded():
    rng = random.Random(5)
    points, obstacles = random_scene(rng, n_points=20, n_obstacles=6)
    g = LocalVisibilityGraph(None, obstacles=obstacles, prefetch=16)
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
    array_g, scalar_g = _twins(obstacles, random_query(rng))
    coords = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(4)]
    ids = [[g.add_point(x, y) for x, y in coords] for g in (array_g,
                                                            scalar_g)]
    assert ids[0] == ids[1]
    # Fill every cell, then kill two transients so compaction moves the
    # survivors (and their columns' slots) to new ids.
    _assert_all_rows_match(array_g, scalar_g)
    for g in (array_g, scalar_g):
        g.remove_point(ids[0][0])
        g.remove_point(ids[0][2])
    assert array_g.compact() == scalar_g.compact() == 2
    assert array_g._tids.tolist() == array_g._live_transients
    assert array_g._live_transients == [
        i for i in array_g._alive_ids() if array_g._transient[i]]
    _assert_all_rows_match(array_g, scalar_g)
    for src in array_g._live_transients:
        assert (array_g.shortest_distances(src, (array_g.S, array_g.E))
                == scalar_g.shortest_distances(src, (scalar_g.S, scalar_g.E)))


def test_remove_then_add_obstacle_recomputes_cells():
    # A point at the left sees the right wall's vertices across open
    # ground; the far-away decoy is swapped for a blocker in between, so
    # the rect/segment/polygon counts end where they started.
    wall = SegmentObstacle(60.0, 40.0, 60.0, 60.0)
    decoy = RectObstacle(85.0, 85.0, 90.0, 90.0)
    blocker = RectObstacle(30.0, 35.0, 35.0, 65.0)
    qseg = Segment(5.0, 5.0, 5.0, 95.0)
    array_g, scalar_g = _twins([wall, decoy], qseg)
    p = array_g.add_point(10.0, 50.0)
    assert scalar_g.add_point(10.0, 50.0) == p
    far = array_g._obstacle_nodes[wall]
    for v in far:
        idx, _w = array_g.row_arrays(v)
        assert p in idx.tolist()                 # cell filled: visible
    counts = array_g._cell_omark
    for g in (array_g, scalar_g):
        g.remove_obstacle(decoy)
        g.add_obstacles([blocker])
    assert array_g._array_mark()[:3] == counts   # same counts as before
    for v in far:
        idx, _w = array_g.row_arrays(v)
        assert p not in idx.tolist()             # recomputed: now blocked
    _assert_all_rows_match(array_g, scalar_g)
