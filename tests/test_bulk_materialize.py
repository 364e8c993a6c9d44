"""Bulk row materialization: byte-identity with rows read one at a time.

Contract under test:

* **Row identity** — ``materialize_rows`` / ``build_all`` produce, for
  every node, exactly the ids (same order), exactly the weights (bitwise
  float equality) and exactly the staleness watermarks that reading the
  rows one at a time through ``row_arrays``, outside any traversal,
  produces — and both equal the brute-force rows of
  :mod:`tests.reference` — across mixed obstacle kinds, bind/unbind
  churn, point insertion/removal and ``compact()``;
* **Counters** — every row is cut by ``materialize_rows``, so
  ``rows_bulk_materialized`` counts the same rows either way, while
  ``bulk_pair_launches`` counts one launch per pass: one for a bulk pass,
  one per row read one at a time;
* **Prefetch** — a traversal whose prefetch hook cuts rows in frontier
  waves settles the exact ``(dist, node, pred)`` sequence of a traversal
  over rows read one at a time (no hook), in fewer launches;
* **Diagnostics** — ``num_edges(materialize=True)`` rides the bulk pass
  and counts the same edge set either way;
* **Cold rebuilds** — a shared backend invalidated and bulk-warmed before
  every query answers exactly like the per-query backend.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConnQuery, Workspace
from repro.geometry import Segment
from repro.obstacles import (
    LocalVisibilityGraph,
    PolygonObstacle,
    RectObstacle,
    SegmentObstacle,
)
from repro.routing.dijkstra import ArrayTraversal
from tests.conftest import (
    building_lattice,
    lattice_sites,
    random_query,
    random_scene,
)
from tests.reference import assert_row_matches

Q = Segment(0, 50, 100, 50)


def mixed_scene(rng: random.Random, n: int = 9):
    """Obstacles cycling rect / segment / triangle, scattered in the box."""
    obstacles = []
    for i in range(n):
        x = rng.uniform(5, 85)
        y = rng.uniform(5, 85)
        w = rng.uniform(3, 9)
        h = rng.uniform(3, 9)
        kind = i % 3
        if kind == 0:
            obstacles.append(RectObstacle(x, y, x + w, y + h))
        elif kind == 1:
            obstacles.append(SegmentObstacle(x, y, x + w, y + h))
        else:
            obstacles.append(PolygonObstacle(
                [(x, y), (x + w, y), (x + 0.5 * w, y + h)]))
    return obstacles


def twin_graphs(rng: random.Random, n_obstacles: int = 9):
    """The same scene twice: one graph for the bulk path, one whose rows
    are read one at a time (:func:`per_row_build`)."""
    obstacles = mixed_scene(rng, n_obstacles)
    bulk = LocalVisibilityGraph(Q)
    oracle = LocalVisibilityGraph(Q)
    for g in (bulk, oracle):
        g.add_obstacles(obstacles)
    return bulk, oracle


def per_row_build(g: LocalVisibilityGraph) -> int:
    """Read every alive row one at a time, outside any traversal (one
    kernel launch per missing row); returns the rows it cut."""
    ids = g._alive_ids()
    made = sum(1 for v in ids if v not in g._indptr)
    for v in ids:
        g.row_arrays(v)
    return made


def assert_rows_identical(bulk: LocalVisibilityGraph,
                          oracle: LocalVisibilityGraph) -> None:
    assert bulk._alive_ids() == oracle._alive_ids()
    for v in bulk._alive_ids():
        bi, bw = bulk.row_arrays(v)
        oi, ow = oracle.row_arrays(v)
        assert bi.tolist() == oi.tolist()          # same ids, same order
        assert bw.tolist() == ow.tolist()          # bitwise-equal weights
        assert bulk._row_marks[v] == oracle._row_marks[v]
        assert_row_matches(bulk, v, (bi, bw))


class TestBuildAllIdentity:
    def test_rows_and_marks_byte_identical(self):
        bulk, oracle = twin_graphs(random.Random(7))
        made_b = bulk.build_all()
        made_o = per_row_build(oracle)
        assert made_b == made_o > 0
        assert_rows_identical(bulk, oracle)

    def test_counters_tick_once_per_row_cut(self):
        bulk, oracle = twin_graphs(random.Random(8))
        made = bulk.build_all()
        assert per_row_build(oracle) == made > 1
        assert bulk.work.rows_bulk_materialized == made
        assert oracle.work.rows_bulk_materialized == made
        assert bulk.work.bulk_pair_launches == 1
        assert oracle.work.bulk_pair_launches == made

    def test_build_all_idempotent(self):
        bulk, _ = twin_graphs(random.Random(9))
        assert bulk.build_all() > 0
        rows_after_first = bulk.work.rows_bulk_materialized
        assert bulk.build_all() == 0          # nothing missing second time
        assert bulk.work.rows_bulk_materialized == rows_after_first

    def test_materialize_rows_subset_matches_lazy(self):
        bulk, oracle = twin_graphs(random.Random(10))
        subset = bulk._alive_ids()[::2]
        assert bulk.materialize_rows(subset) == len(subset)
        for v in subset:
            bi, bw = bulk.row_arrays(v)
            oi, ow = oracle.row_arrays(v)
            assert bi.tolist() == oi.tolist()
            assert bw.tolist() == ow.tolist()
            assert_row_matches(bulk, v, (bi, bw))

    def test_materialize_rows_empty_scene(self):
        g = LocalVisibilityGraph(Q)
        assert g.build_all() >= 0             # endpoints only; no crash
        idx, w = g.row_arrays(g.S)
        assert g.E in idx.tolist()

    def test_num_edges_materialize_agrees(self):
        bulk, oracle = twin_graphs(random.Random(11))
        per_row_build(oracle)
        assert bulk.num_edges(materialize=True) == oracle.num_edges()
        assert bulk.work.rows_bulk_materialized > 0
        assert oracle.work.rows_bulk_materialized == \
            bulk.work.rows_bulk_materialized


class TestChurnIdentity:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_bind_unbind_obstacle_point_compact_storm(self, seed):
        rng = random.Random(seed)
        points, _ = random_scene(rng, n_points=5, n_obstacles=0)
        bulk = LocalVisibilityGraph(None)
        oracle = LocalVisibilityGraph(None)
        pair = (bulk, oracle)
        shared = mixed_scene(rng, 6)
        for g in pair:
            g.add_obstacles(shared)
        nodes = []
        for _p, (x, y) in points:
            ids = {g.add_point(x, y) for g in pair}
            assert len(ids) == 1
            nodes.append(ids.pop())
        bound = False
        for _step in range(8):
            op = rng.choice(("bind", "unbind", "obstacle", "point",
                             "compact", "build"))
            if op == "bind" and not bound:
                qseg = random_query(rng)
                for g in pair:
                    g.bind(qseg)
                bound = True
            elif op == "unbind" and bound:
                for g in pair:
                    g.unbind()
                bound = False
            elif op == "obstacle":
                extra = mixed_scene(rng, 1)
                for g in pair:
                    g.add_obstacles(extra)
            elif op == "point":
                x, y = rng.uniform(0, 100), rng.uniform(0, 100)
                ids = {g.add_point(x, y) for g in pair}
                assert len(ids) == 1
            elif op == "compact":
                for g in pair:
                    g.compact()
            else:
                assert bulk.build_all() == per_row_build(oracle)
            assert_rows_identical(bulk, oracle)


class TestFrontierPrefetch:
    def test_settle_order_identical_with_prefetch(self):
        rng = random.Random(13)
        obstacles = mixed_scene(rng, 9)
        plain = LocalVisibilityGraph(Q)
        waved = LocalVisibilityGraph(Q)
        for g in (plain, waved):
            g.add_obstacles(obstacles)
        got = list(waved.dijkstra_order(waved.S))
        # The same traversal without the prefetch hook: each settle reads
        # (and cuts) its own row.
        bare = ArrayTraversal(plain.row_arrays, plain.S, len(plain._xy),
                              alive=plain._alive_view)
        bare.run_to_completion()
        assert got == bare.settled             # dist, node, pred — exact
        waves = waved.work
        assert 0 < waves.bulk_pair_launches < waves.rows_bulk_materialized
        assert plain.work.bulk_pair_launches == \
            plain.work.rows_bulk_materialized > 0

    def test_prefetched_rows_match_lazy_rows(self):
        rng = random.Random(14)
        obstacles = mixed_scene(rng, 9)
        plain = LocalVisibilityGraph(Q)
        waved = LocalVisibilityGraph(Q)
        for g in (plain, waved):
            g.add_obstacles(obstacles)
        waved.shortest_distances(waved.S, (waved.E,))
        assert waved.work.rows_bulk_materialized > 0
        for v in waved._alive_ids():
            wi, ww = waved.row_arrays(v)
            pi, pw = plain.row_arrays(v)
            assert wi.tolist() == pi.tolist()
            assert ww.tolist() == pw.tolist()
        assert plain.work.bulk_pair_launches == \
            plain.work.rows_bulk_materialized > 0


class TestColdRebuilds:
    def test_invalidated_shared_backend_answers_like_per_query(self):
        """Every query on a freshly rebuilt shared graph returns exactly the
        per-query backend's tuples; each rebuild is a new graph whose rows
        are cut in bulk.

        Scene: a 7 x 7 lattice cycling wall/rect/triangle, 50 sites and 20
        CONN queries along one corridor, the obstacle cache fully warm.
        """
        obstacles = building_lattice(7, width=0.5, height=0.375, mixed=True)
        points = lattice_sites(obstacles, 50, seed=11)
        rng = random.Random(12)
        queries = []
        for _ in range(20):
            y = 50.0 + rng.uniform(-4.0, 4.0)
            ax = rng.uniform(5.0, 25.0)
            queries.append(ConnQuery(Segment(ax, y,
                                             ax + rng.uniform(25, 55), y)))

        def workspace(backend):
            ws = Workspace.from_points(
                points, obstacles, page_size=256,
                backend=backend)
            ws.prefetch_all()
            return ws

        ref = workspace("per-query")
        want = [ref.execute(q).tuples() for q in queries]
        ws = workspace("shared")
        ws.routing.warm()
        got = []
        for q in queries:
            ws.routing.invalidate()
            ws.routing.warm()
            got.append(ws.execute(q).tuples())
        assert got == want
        assert ws.routing.stats.graphs_built > len(queries)
        assert ws.routing.stats.rows_bulk_materialized > 0


class TestBulkVisibilityKernel:
    def test_blocked_bulk_empty(self):
        g = LocalVisibilityGraph(Q)
        empty = np.empty((0, 2))
        assert g._blocked_bulk(empty, empty).size == 0
