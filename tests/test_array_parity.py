"""Hypothesis property suite: the visibility graph against brute force.

The graph's rows are cut, repaired and extended by several batched paths
(bulk materialization, frontier waves, per-row reads, stale-row repair,
transient visibility cells, reach-limited rows), and traversed by
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
  under goal-directed ``prune_bound`` pruning the safe prefix equals the
  unpruned run; and all of it across bind/unbind churn, obstacle
  insertion, point removal, ``compact()`` and ``clone_skeleton()``;
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
from tests.conftest import random_query, random_scene, same_values
from tests.reference import (
    assert_row_matches,
    assert_traversal_matches,
    reference_graph,
    reference_row,
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


def _settled(graph: LocalVisibilityGraph, source: int,
             prune_bound: float = math.inf):
    """The complete settled sequence — exact tuples, exhausted eagerly."""
    return list(graph.dijkstra_order(source, prune_bound))


def _assert_traversals_match(graph, sources) -> None:
    ref = reference_graph(graph)
    for source in sources:
        settled = _settled(graph, source)
        assert_traversal_matches(graph, source, settled, ref)
        for _d, node, _p in settled:
            assert_row_matches(graph, node)


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


def _heuristic(graph: LocalVisibilityGraph, qseg):
    """``node -> dist(node, qseg)``, the value the prune test adds."""
    def h(node):
        p = graph.node_point(node)
        return qseg.dist_point(p.x, p.y)
    return h


@given(seed=st.integers(min_value=0, max_value=10_000),
       frac=st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=25, deadline=None)
def test_pruned_traversals_identical_and_safe_prefix_exact(seed, frac):
    """Pruning must keep the safe set exact and settle nothing beyond it.

    The source is a transient point (``add_point``), like a data point
    under evaluation, so its row is read reach-limited; both with the
    default frontier wave (16) and with single-row waves (0).
    """
    for width in (16, 0):
        with _wave(width):
            _check_pruned_traversal(seed, frac)


def _check_pruned_traversal(seed: int, frac: float) -> None:
    rng = random.Random(seed)
    g, nodes, qseg = _graph(rng)
    source = nodes[0]
    assert g._transient[source]
    full = _settled(g, source)
    assert_traversal_matches(g, source, full)
    reach = [d for d, _n, _p in full if math.isfinite(d)]
    if not reach:
        return
    bound = max(reach[-1] * frac, 1e-9)
    # A fresh graph for the pruned run: the first graph's memoized
    # *unpruned* traversal would (correctly) serve the pruned request by
    # replay, and beyond-bound entries of a replayed-unpruned vs
    # fresh-pruned run may differ — only the safe set is pinned across
    # construction states.
    g_p, nodes_p, _q = _graph(random.Random(seed))
    assert nodes_p[0] == source
    pruned = _settled(g_p, source, prune_bound=bound)
    h = _heuristic(g, qseg)
    # The source's row was read reach-limited (unless the source itself
    # lies past the bound, when it relaxes nothing).
    assert (g_p.work.bounded_rows > 0) == (h(source) < bound)
    # Safe nodes (dist + h < bound) keep their exact distance, predecessor
    # and settled position from the unpruned traversal.
    safe_full = [e for e in full if e[0] + h(e[1]) < bound]
    safe_pruned = [e for e in pruned if e[0] + h(e[1]) < bound]
    assert safe_pruned == safe_full
    # The bound is applied at push time: nothing past it settles but the
    # source, and every settled node hangs off an exact reference edge.
    assert pruned[0] == (0.0, source, None)
    dist = {v: d for d, v, _p in pruned}
    for d, v, p in pruned[1:]:
        assert d + h(v) < bound
        assert dist[p] + reference_row(g_p, p)[v] == d


def _bits(w: np.ndarray):
    return np.asarray(w, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("anchored", [True, False],
                         ids=["anchored", "bound-endpoints"])
@given(seed=st.integers(min_value=0, max_value=10_000),
       fracs=st.lists(st.floats(min_value=0.0, max_value=1.2),
                      min_size=1, max_size=4))
@settings(max_examples=15, deadline=None)
def test_reach_limited_row_is_the_full_row_filtered(anchored, seed, fracs):
    """A transient's reach-limited row is its full row filtered by
    ``w + h(target) <= reach``: same ids, same order, same weight bits.

    With ``anchored`` off the endpoints are bound transients too, so the
    candidates span permanent nodes and several live transients.
    """
    def graph():
        g, nodes, qseg = _graph(random.Random(seed), n_obstacles=8,
                                anchored=anchored)
        if not anchored:
            g.bind(qseg)
        return g, nodes[0], _heuristic(g, qseg)

    # The full row (cached) sets the scale of the reaches to try; an
    # entry's own w + h is tried too (a reach exactly there keeps it).
    g, source, h = graph()
    idx_f, w_f = g.row_arrays(source)
    assert_row_matches(g, source, (idx_f, w_f))
    sums = [w + h(i) for i, w in zip(idx_f.tolist(), w_f.tolist())]
    scale = max(sums, default=1.0)
    reaches = [scale * frac for frac in fracs] + sums[len(sums) // 2:][:1]
    # A fresh graph reads the same rows reach-limited.
    g2, source2, _h = graph()
    assert source2 == source and g2._transient[source]
    launches = g2.work.batch_visibility_calls
    rows = [(reach, g2.row_arrays(source, reach)) for reach in reaches]
    assert source not in g2._indptr, "reach-limited rows are not cached"
    assert g2.work.bounded_rows == len(reaches)
    assert g2.work.batch_visibility_calls - launches <= len(reaches)
    assert g2.row_arrays(source)[0].tolist() == idx_f.tolist()
    for reach, (idx, w) in rows:
        keep = [j for j, s in enumerate(sums) if s <= reach]
        assert idx.tolist() == idx_f[keep].tolist()
        assert _bits(w) == _bits(w_f[keep])
    # Full rows of permanent nodes ignore the reach.
    perm = g2._perm_ids[0]
    (pi, pw), (fi, fw) = g2.row_arrays(perm, 0.0), g2.row_arrays(perm)
    assert pi.tolist() == fi.tolist() and _bits(pw) == _bits(fw)


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
