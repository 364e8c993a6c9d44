"""Hypothesis property suite: the visibility graph against brute force.

The graph's rows are cut, repaired and extended by several batched paths
(bulk materialization, frontier waves, per-row reads, stale-row repair,
transient visibility cells, ring rows), and traversed by
:class:`~repro.routing.dijkstra.ArrayTraversal`.  Every path is checked
here against the naive references of :mod:`tests.reference`:

* **rows** — every adjacency row holds exactly the brute-force neighbor
  set with bit-equal ``math.hypot`` weights, whichever way the graph
  filled its transient visibility cells (whole graph in one tile, per
  frontier wave through the traversal's prefetch hook, or row by row) and
  whatever the frontier-wave width;
* **traversals** — full Dijkstra runs from the query endpoints and from
  transient data points settle every reachable node at its networkx
  distance, in ascending order, each through an exact predecessor edge;
  traversals aimed at the query segment settle exactly what textbook A*
  settles (:func:`tests.reference.reference_astar`), a transient source's
  row cut in rings that partition its full row; stopping at a limit and
  resuming settles what one run settles; and all of it across bind/unbind
  churn, obstacle insertion, point removal, ``compact()`` and
  ``clone_skeleton()``;
* **queries** — a workspace on the shared backend returns the per-query
  backend's CONN / COkNN / ONN / range answers.
"""

from __future__ import annotations

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SegmentObstacle, Workspace
from repro.geometry.vectorized import BATCH_TILE_ELEMS
from repro.obstacles import visgraph
from repro.obstacles.visgraph import LocalVisibilityGraph
from repro.routing.dijkstra import ArrayTraversal
from tests.conftest import random_query, random_scene, same_values
from tests.reference import (
    assert_aimed_traversal_matches,
    assert_row_matches,
    assert_traversal_matches,
    reference_astar,
    reference_graph,
)

# Op pattern the churn property drives through the graph.
OPS = ("bind", "unbind", "add_obstacle", "add_point", "remove_point",
       "compact")


def _wave(width: int):
    """Run with the frontier-wave width set to ``width`` (0: each
    traversal wave materializes only the settled node's own row)."""
    return mock.patch.object(visgraph, "FRONTIER_WAVE", width)


def _wall_lattice(rng: random.Random):
    """A 10 x 10 lattice of randomly turned walls plus six points.

    208 alive nodes x 8 transients x 100 primitives is well past one
    kernel tile, so transient cells fill per row or per frontier wave
    rather than for the whole graph at once.
    """
    walls = []
    for i in range(10):
        for j in range(10):
            a = rng.uniform(0.0, math.pi)
            dx, dy = 3.0 * math.cos(a), 3.0 * math.sin(a)
            cx, cy = 5.0 + 10.0 * i, 5.0 + 10.0 * j
            walls.append(SegmentObstacle(cx - dx, cy - dy, cx + dx, cy + dy))
    points = [(k, (rng.uniform(0, 100), rng.uniform(0, 100)))
              for k in range(6)]
    return points, walls


def _graph(rng: random.Random, n_obstacles: int = 5,
           anchored: bool = True, lattice: bool = False):
    """A random scene as one graph, its transient points and the query."""
    if lattice:
        points, obstacles = _wall_lattice(rng)
    else:
        points, obstacles = random_scene(rng, n_points=6,
                                         n_obstacles=n_obstacles)
    qseg = random_query(rng)
    g = LocalVisibilityGraph(qseg if anchored else None)
    g.add_obstacles(obstacles)
    nodes = [g.add_point(x, y) for _payload, (x, y) in points]
    return g, nodes, qseg


def _settled(graph: LocalVisibilityGraph, source: int):
    """The complete settled sequence — exact tuples, exhausted eagerly."""
    return list(graph.dijkstra_order(source))


def _aimed(graph: LocalVisibilityGraph, source: int) -> ArrayTraversal:
    """The traversal aimed at the graph's query segment, run out."""
    tr, _on_settle = graph.aimed_traversal(source)
    tr.run_to_completion()
    return tr


def _heuristic(graph: LocalVisibilityGraph, qseg):
    """``node -> dist(node, qseg)``, what an aimed key adds to ``d``."""
    def h(node):
        p = graph.node_point(node)
        return qseg.dist_point(p.x, p.y)
    return h


def _assert_traversals_match(graph, sources) -> None:
    ref = reference_graph(graph)
    for source in sources:
        settled = _settled(graph, source)
        assert_traversal_matches(graph, source, settled, ref)
        for _d, node, _p in settled:
            assert_row_matches(graph, node)
        if graph.qseg is not None:
            tr = _aimed(graph, source)
            assert_aimed_traversal_matches(graph, source, tr.settled, ref)
            h = _heuristic(graph, graph.qseg)
            assert tr.keys == [d + h(v) for d, v, _p in tr.settled]


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_rows_and_traversals_identical(seed):
    rng = random.Random(seed)
    g, nodes, _qseg = _graph(rng)
    sources = [g.S, g.E] + nodes[:2]
    _assert_traversals_match(g, sources)
    for source in sources:
        settled = {v: d for d, v, _p in _settled(g, source)}
        got = g.shortest_distances(source, (g.S, g.E))
        assert got == {t: settled.get(t, math.inf) for t in (g.S, g.E)}


def _known_cells(g: LocalVisibilityGraph):
    """(filled, total) transient cells over the alive slots."""
    n = len(g._xy)
    t = len(g._live_transients)
    alive = g._alive_np[:n]
    known = np.count_nonzero(g._cell_state[:n, :t][alive])
    return int(known), int(alive.sum()) * t


@pytest.mark.parametrize("lattice", [False, True],
                         ids=["one-tile", "frontier-wave"])
@pytest.mark.parametrize("prefetch", [16, 0])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=6, deadline=None)
def test_every_row_identical_in_both_fill_regimes(lattice, prefetch, seed):
    rng = random.Random(seed)
    g, nodes, _qseg = _graph(rng, n_obstacles=8, lattice=lattice)
    n_alive = len(g._alive_ids())
    work = n_alive * len(g._live_transients) * g._prims_now()
    assert (work > BATCH_TILE_ELEMS) == lattice
    # A first row read fills the whole graph only when it fits one tile.
    g.row_arrays(g.S)
    known, total = _known_cells(g)
    assert (known == total) != lattice
    # Traversals read rows through the prefetch hook, which fills the
    # rows and cells of each frontier wave.
    with _wave(prefetch):
        _assert_traversals_match(g, [g.S, g.E] + nodes[:2])
    for v in g._alive_ids():
        assert_row_matches(g, v)


@given(seed=st.integers(min_value=0, max_value=10_000),
       fracs=st.lists(st.floats(min_value=0.0, max_value=1.2),
                      min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_stopped_traversal_resumes_to_one_run(seed, fracs):
    """Stopping an aimed traversal at limits and resuming it settles
    exactly what one run settles, and nothing at or past a limit is
    settled, cut or prefetched while it holds.

    The source is a transient point (``add_point``), like a data point
    under evaluation, so its row is cut in rings; both with the default
    frontier wave (16) and with single-row waves (0).
    """
    for width in (16, 0):
        with _wave(width):
            _check_resumed_traversal(seed, fracs)


def _check_resumed_traversal(seed: int, fracs) -> None:
    g, nodes, qseg = _graph(random.Random(seed))
    source = nodes[0]
    assert g._transient[source]
    h = _heuristic(g, qseg)
    tr = _aimed(g, source)
    full, keys = list(tr.settled), list(tr.keys)
    assert_aimed_traversal_matches(g, source, full)
    # A fresh graph for the stopped run, so its rows and rings are cut
    # while the limits hold.
    g2, nodes2, _q = _graph(random.Random(seed))
    assert nodes2[0] == source
    cuts = []
    ring_row = g2._ring_row

    def ring_spy(node, d, lo, view):
        limit = view()
        cut = ring_row(node, d, lo, view)
        if cut is not None:
            idx, w, hi = cut
            assert lo < limit and (hi <= limit or hi == math.inf)
            assert all((d + wj) + h(v) <= limit
                       for v, wj in zip(idx.tolist(), w.tolist()))
            cuts.append(cut)
        return cut

    prefetch = g2._prefetch_rows

    def prefetch_spy(node, frontier, whole=True):
        def checked():
            ids = frontier()
            heap = {}
            for k, v in tr2._frontier:
                heap[v] = min(k, heap.get(v, math.inf))
            assert all(heap[v] < tr2._limit for v in ids)
            return ids
        return prefetch(node, checked, whole)

    g2._ring_row = ring_spy
    g2._prefetch_rows = prefetch_spy
    tr2, _on_settle = g2.aimed_traversal(source)
    top = max(max(keys), 1e-9)
    for limit in sorted(top * frac for frac in fracs):
        while tr2.advance(limit) is not None:
            pass
        n = len(tr2.settled)
        assert tr2.settled == full[:n]
        assert all(k < limit for k in tr2.keys)
        assert n == len(full) or keys[n] >= limit
    tr2.run_to_completion()
    assert tr2.settled == full and tr2.keys == keys
    assert cuts and g2.work.bounded_rows == len(cuts)
    assert source not in g2._indptr, "ring rows are not cached"


def _bits(w: np.ndarray):
    return np.asarray(w, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("anchored", [True, False],
                         ids=["anchored", "bound-endpoints"])
@given(seed=st.integers(min_value=0, max_value=10_000),
       fracs=st.lists(st.floats(min_value=0.0, max_value=1.2),
                      min_size=1, max_size=4))
@settings(max_examples=15, deadline=None)
def test_ring_rows_partition_the_full_row(anchored, seed, fracs):
    """The rings of a transient's row, cut under rising limits, partition
    its full row: each ring holds the entries keyed in ``(lo, hi]``, in
    the full row's order, and together they are the full row — same ids,
    same order, same weight bits.

    With ``anchored`` off the endpoints are bound transients too, so the
    candidates span permanent nodes and several live transients.
    """
    def graph():
        g, nodes, qseg = _graph(random.Random(seed), n_obstacles=8,
                                anchored=anchored)
        if not anchored:
            g.bind(qseg)
        return g, nodes[0], _heuristic(g, qseg)

    # The full row (cached) sets the scale of the limits to try; an
    # entry's own key is tried too (a limit exactly there keeps it).
    g, source, h = graph()
    idx_f, w_f = g.row_arrays(source)
    assert_row_matches(g, source, (idx_f, w_f))
    assert g._ring_row(source, 0.0, -math.inf, lambda: math.inf) is None
    keys = [(0.0 + w) + h(i) for i, w in zip(idx_f.tolist(), w_f.tolist())]
    scale = max(keys, default=1.0)
    limits = sorted([scale * frac for frac in fracs]
                    + keys[len(keys) // 2:][:1]) + [math.inf]
    # A fresh graph cuts the same row in rings, as an aimed traversal
    # from the source does when its markers pop below each limit.
    g2, source2, _h = graph()
    assert source2 == source and g2._transient[source]
    launches = g2.work.batch_visibility_calls
    pos = {v: j for j, v in enumerate(idx_f.tolist())}
    key_of = dict(zip(idx_f.tolist(), keys))
    rings = []
    lo = -math.inf
    for limit in limits:
        while lo < limit:
            idx, w, hi = g2._ring_row(source, 0.0, lo, lambda: limit)
            # A ring reaches no farther than the limit, unless nothing
            # lies past it: then it ends the row.
            assert lo < hi and (hi <= limit or hi == math.inf)
            assert all(key_of[v] <= limit for v in idx.tolist())
            rings.append((lo, hi, idx.tolist(), _bits(w)))
            lo = hi
    assert lo == math.inf
    assert source not in g2._indptr, "ring rows are not cached"
    assert g2.work.bounded_rows == len(rings)
    assert g2.work.batch_visibility_calls - launches <= len(rings)
    union = []
    for lo, hi, ids, bits in rings:
        assert [pos[v] for v in ids] == sorted(pos[v] for v in ids)
        assert all(lo < key_of[v] <= hi for v in ids)
        union += zip(ids, bits)
    union.sort(key=lambda e: pos[e[0]])
    assert [v for v, _b in union] == idx_f.tolist()
    assert [b for _v, b in union] == _bits(w_f)
    # Permanent rows are read whole.
    assert g2._ring_row(g2._perm_ids[0], 0.0, -math.inf,
                        lambda: math.inf) is None


@given(st.integers(), st.lists(st.floats(min_value=0.0, max_value=12.0),
                               max_size=3))
@settings(max_examples=80, deadline=None)
def test_ring_traversal_matches_textbook_astar(seed, limits):
    """Rows cut in rings settle like whole rows, exact ties included.

    Dense random digraphs with weights from a tiny pool (many tentative
    distances tie exactly) and a consistent integer heuristic; some rows
    are cut in rings of growing width, the traversal is stopped at
    ``limits`` and resumed, and the settled ``(dist, node, pred)``
    sequence must equal textbook A*'s.
    """
    rng = random.Random(seed)
    n = rng.randrange(2, 16)
    weights = [1.0, 1.0, 2.0, 0.5, 3.0]
    rows = [{v: rng.choice(weights) for v in range(n)
             if v != u and rng.random() < 0.5} for u in range(n)]
    # h(v) = [v is not a goal]: 1-Lipschitz for edges of weight >= 1 ...
    goals = {v for v in range(n) if rng.random() < 0.5}
    heur = np.array([0.0 if v in goals else 1.0 for v in range(n)])
    # ... and made consistent on the lighter edges by lifting them.
    for u in range(n):
        for v in rows[u]:
            rows[u][v] = max(rows[u][v], heur[u] - heur[v])
    ringed = {u for u in range(n) if rng.random() < 0.6}
    width = [rng.choice([0.5, 1.0, 2.0]) for _ in range(n)]
    alive = np.ones(n, dtype=bool)

    def whole(u):
        return (np.asarray(list(rows[u]), dtype=np.int64),
                np.asarray(list(rows[u].values()), dtype=np.float64))

    def ring(u, d, lo, view):
        limit = view()
        if lo == -math.inf:
            if u not in ringed:
                return None
            hi = d + width[u]
        else:
            hi = d + 2.0 * (lo - d)
        hi = min(hi, limit)
        ids, w = whole(u)
        key = (d + w) + heur[ids]
        keep = (key > lo) & (key <= hi)
        return ids[keep], w[keep], hi

    tr = ArrayTraversal(whole, 0, n, alive=lambda: alive,
                        aim=lambda: heur, ring=ring)
    for limit in sorted(limits):
        while tr.advance(limit) is not None:
            pass
        assert all(k < limit for k in tr.keys)
    tr.run_to_completion()
    assert tr.settled == reference_astar(rows.__getitem__, 0,
                                         lambda v: float(heur[v]))


@given(seed=st.integers(min_value=0, max_value=10_000),
       pattern=st.lists(st.tuples(st.sampled_from(OPS),
                                  st.integers(min_value=0, max_value=31)),
                        min_size=1, max_size=8))
@settings(max_examples=20, deadline=None)
def test_graph_matches_reference_under_churn(seed, pattern):
    rng = random.Random(seed)
    g, nodes, qseg = _graph(rng, anchored=False)
    bound_seg = None

    def check():
        sources = list(nodes[:2])
        if bound_seg is not None:
            sources += [g.S, g.E]
        if sources:
            _assert_traversals_match(g, sources)

    check()
    for op, victim in pattern:
        if op == "bind" and bound_seg is None:
            bound_seg = random_query(rng)
            g.bind(bound_seg)
        elif op == "unbind" and bound_seg is not None:
            g.unbind()
            bound_seg = None
        elif op == "add_obstacle":
            _pts, extra = random_scene(rng, n_points=1, n_obstacles=1)
            g.add_obstacles(extra)
        elif op == "add_point":
            nodes.append(g.add_point(rng.uniform(0, 100),
                                     rng.uniform(0, 100)))
        elif op == "remove_point" and nodes:
            g.remove_point(nodes.pop(victim % len(nodes)))
        elif op == "compact" and bound_seg is None and not nodes:
            # Only safe while no external node ids are held.
            dead = g.dead_slots
            assert g.compact() == dead
            assert g.dead_slots == 0
        check()


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_clone_skeleton_preserves_parity(seed):
    rng = random.Random(seed)
    g, nodes, _qseg = _graph(rng, anchored=False)
    for node in nodes:
        g.remove_point(node)
    g.build_all()
    clone = g.clone_skeleton()
    # The clone carries every cached row, and each is still exact.
    assert set(clone._indptr) == set(g._indptr)
    for v in clone._indptr:
        assert_row_matches(clone, v)
    clone.bind(random_query(rng))
    _assert_traversals_match(clone, [clone.S, clone.E])


def _assert_same_answers(got, want) -> None:
    assert [owner for owner, _iv in got] == [owner for owner, _iv in want]
    assert same_values([x for _o, iv in got for x in iv],
                       [x for _o, iv in want for x in iv], atol=1e-9)


@given(seed=st.integers(min_value=0, max_value=10_000),
       k=st.integers(min_value=1, max_value=2),
       prefetch=st.sampled_from([16, 0]))
@settings(max_examples=10, deadline=None)
def test_workspace_answers_identical_across_backends(seed, k, prefetch):
    rng = random.Random(seed)
    points, obstacles = random_scene(rng, n_points=8, n_obstacles=5)
    shared = Workspace.from_points(
        list(points), list(obstacles),
        backend="shared")
    per = Workspace.from_points(
        list(points), list(obstacles),
        backend="per-query")
    qseg = random_query(rng)
    x, y = qseg.point_at(0.5 * qseg.length)
    with _wave(prefetch):
        for _ in range(2):  # the second round reuses the shared graph
            _assert_same_answers(shared.coknn(qseg, k=k).tuples(),
                                 per.coknn(qseg, k=k).tuples())
            got_nn, _ = shared.onn(x, y, k=k)
            want_nn, _ = per.onn(x, y, k=k)
            _assert_same_answers([(p, (d,)) for p, d in got_nn],
                                 [(p, (d,)) for p, d in want_nn])
            got_r, _ = shared.range(x, y, 18.0)
            want_r, _ = per.range(x, y, 18.0)
            _assert_same_answers(
                [(p, (d,)) for p, d in sorted(got_r, key=str)],
                [(p, (d,)) for p, d in sorted(want_r, key=str)])
    assert shared.routing.stats.graphs_built == 1
