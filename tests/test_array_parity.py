"""Hypothesis property suite for array/scalar engine parity.

The array-native hot path (flat CSR-style adjacency rows, batched
visibility kernels, :class:`~repro.routing.dijkstra.ArrayTraversal`)
promises *byte-identical* behaviour to the scalar dict implementation it
replaced — same distances, same predecessors, same settled order, same
query answers.  That promise is what lets :class:`~repro.routing.config.
RoutingConfig` swap engines freely and keeps the scalar engine alive as
the parity oracle; this suite is the net under it.

Three layers are pinned:

* **rows** — every adjacency row, read through ``row_arrays`` on the
  array graph and ``neighbors`` on the scalar one, holds the same
  neighbor set with bit-equal weights, whichever way the array graph
  filled its transient visibility cells (whole graph in one tile, per
  frontier wave through the traversal's prefetch hook, or row by row);
* **traversals** — full Dijkstra runs from the query endpoints and from
  transient data points settle the same ``(dist, node, pred)`` sequence,
  entry for entry, including under goal-directed ``prune_bound`` pruning
  and across bind/unbind churn, obstacle insertion, point removal,
  ``compact()`` and ``clone_skeleton()``;
* **queries** — whole workspaces forced onto each engine return
  identical CONN / COkNN / ONN / range tuples.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SegmentObstacle, Workspace
from repro.geometry.vectorized import BATCH_TILE_ELEMS
from repro.obstacles.visgraph import LocalVisibilityGraph
from repro.routing.config import (
    ARRAY_ENGINE,
    SCALAR_ENGINE,
    RoutingConfig,
)
from tests.conftest import random_query, random_scene

# Op pattern the churn property drives through both graphs in lock step.
OPS = ("bind", "unbind", "add_obstacle", "add_point", "remove_point",
       "compact")


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


def _twin_graphs(rng: random.Random, n_obstacles: int = 5,
                 anchored: bool = True, prefetch: int = 0,
                 lattice: bool = False):
    """The same scene as one array and one scalar graph (plus points)."""
    if lattice:
        points, obstacles = _wall_lattice(rng)
    else:
        points, obstacles = random_scene(rng, n_points=6,
                                         n_obstacles=n_obstacles)
    qseg = random_query(rng)
    pair = []
    for engine in (ARRAY_ENGINE, SCALAR_ENGINE):
        g = LocalVisibilityGraph(qseg if anchored else None, engine=engine,
                                 prefetch=prefetch)
        g.add_obstacles(obstacles)
        pair.append(g)
    nodes = []
    for _payload, (x, y) in points:
        ids = {g.add_point(x, y) for g in pair}
        assert len(ids) == 1, "engines must allocate identical node ids"
        nodes.append(ids.pop())
    return pair[0], pair[1], nodes, qseg


def _settled(graph: LocalVisibilityGraph, source: int,
             prune_bound: float = math.inf):
    """The complete settled sequence — exact tuples, exhausted eagerly."""
    return list(graph.dijkstra_order(source, prune_bound))


def _assert_rows_match(array_g: LocalVisibilityGraph,
                       scalar_g: LocalVisibilityGraph, node: int) -> None:
    idx, w = array_g.row_arrays(node)
    flat = dict(zip(idx.tolist(), w.tolist()))
    assert flat == scalar_g.neighbors(node)


def _assert_traversals_match(array_g, scalar_g, sources,
                             prune_bound: float = math.inf) -> None:
    for source in sources:
        got = _settled(array_g, source, prune_bound)
        want = _settled(scalar_g, source, prune_bound)
        assert got == want  # dist, node and pred — exact, in order
        for _d, node, _p in want:
            _assert_rows_match(array_g, scalar_g, node)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_rows_and_traversals_identical(seed):
    rng = random.Random(seed)
    array_g, scalar_g, nodes, _qseg = _twin_graphs(rng)
    sources = [array_g.S, array_g.E] + nodes[:2]
    _assert_traversals_match(array_g, scalar_g, sources)
    for source in sources:
        got = array_g.shortest_distances(source, (array_g.S, array_g.E))
        want = scalar_g.shortest_distances(source, (scalar_g.S, scalar_g.E))
        assert got == want


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
    array_g, scalar_g, nodes, _qseg = _twin_graphs(
        rng, n_obstacles=8, prefetch=prefetch, lattice=lattice)
    n_alive = len(array_g._alive_ids())
    work = n_alive * len(array_g._live_transients) * array_g._prims_now()
    assert (work > BATCH_TILE_ELEMS) == lattice
    # A first row read fills the whole graph only when it fits one tile.
    array_g.row_arrays(array_g.S)
    known, total = _known_cells(array_g)
    assert (known == total) != lattice
    # Traversals read rows through the prefetch hook (when installed),
    # which fills the cells of each frontier wave.
    _assert_traversals_match(array_g, scalar_g,
                             [array_g.S, array_g.E] + nodes[:2])
    for v in array_g._alive_ids():
        _assert_rows_match(array_g, scalar_g, v)


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
    """Pruning must agree across engines *and* keep the safe set exact.

    The source is a transient point (``add_point``), like a data point
    under evaluation, so the array engine reads its row reach-limited;
    both with the frontier-prefetch hook (16) and without it (0).
    """
    for prefetch in (16, 0):
        _check_pruned_traversal(seed, frac, prefetch)


def _check_pruned_traversal(seed: int, frac: float, prefetch: int) -> None:
    rng = random.Random(seed)
    array_g, _scalar_g, nodes, qseg = _twin_graphs(rng, prefetch=prefetch)
    source = nodes[0]
    assert array_g._transient[source]
    full = _settled(array_g, source)
    reach = [d for d, _n, _p in full if math.isfinite(d)]
    if not reach:
        return
    bound = max(reach[-1] * frac, 1e-9)
    # Fresh twins for the pruned run: the first pair's memoized *unpruned*
    # traversal would (correctly) serve the pruned request by replay, and
    # beyond-bound entries of a replayed-unpruned vs fresh-pruned run may
    # differ — only the safe set is pinned across construction states.
    array_p, scalar_p, nodes_p, _q = _twin_graphs(random.Random(seed),
                                                  prefetch=prefetch)
    assert nodes_p[0] == source
    _assert_traversals_match(array_p, scalar_p, [source], prune_bound=bound)
    h = _heuristic(array_g, qseg)
    # The source's row was read reach-limited (unless the source itself
    # lies past the bound, when it relaxes nothing); the scalar oracle
    # reads full rows, so it prunes at least every relaxation the array
    # engine does (the rest never left the reach-limited rows).
    assert (array_p.bounded_rows > 0) == (h(source) < bound)
    assert scalar_p.bounded_rows == 0
    assert array_p.relaxations_pruned <= scalar_p.relaxations_pruned
    # Safe nodes (dist + h < bound) keep their exact distance, predecessor
    # and settled position from the unpruned traversal.
    pruned = _settled(array_p, source, prune_bound=bound)
    safe_full = [e for e in full if e[0] + h(e[1]) < bound]
    safe_pruned = [e for e in pruned if e[0] + h(e[1]) < bound]
    assert safe_pruned == safe_full
    # The bound is applied at push time: nothing past it settles but the
    # source.
    assert pruned[0][1] == source
    assert all(d + h(v) < bound for d, v, _p in pruned[1:])


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
        g, _scalar_g, nodes, qseg = _twin_graphs(
            random.Random(seed), n_obstacles=8, anchored=anchored)
        if not anchored:
            g.bind(qseg)
        return g, nodes[0], _heuristic(g, qseg)

    # The full row (cached) sets the scale of the reaches to try; an
    # entry's own w + h is tried too (a reach exactly there keeps it).
    g, source, h = graph()
    idx_f, w_f = g.row_arrays(source)
    sums = [w + h(i) for i, w in zip(idx_f.tolist(), w_f.tolist())]
    scale = max(sums, default=1.0)
    reaches = [scale * frac for frac in fracs] + sums[len(sums) // 2:][:1]
    # A fresh twin reads the same rows reach-limited.
    g2, source2, _h = graph()
    assert source2 == source and g2._transient[source]
    launches = g2.batch_visibility_calls
    rows = [(reach, g2.row_arrays(source, reach)) for reach in reaches]
    assert source not in g2._indptr, "reach-limited rows are not cached"
    assert g2.bounded_rows == len(reaches)
    assert g2.batch_visibility_calls - launches <= len(reaches)
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
def test_engines_agree_under_graph_churn(seed, pattern):
    rng = random.Random(seed)
    array_g, scalar_g, nodes, qseg = _twin_graphs(rng, anchored=False)
    pair = (array_g, scalar_g)
    bound_seg = None

    def check():
        sources = list(nodes[:2])
        if bound_seg is not None:
            sources += [array_g.S, array_g.E]
        if sources:
            _assert_traversals_match(array_g, scalar_g, sources)

    check()
    for op, victim in pattern:
        if op == "bind" and bound_seg is None:
            bound_seg = random_query(rng)
            for g in pair:
                g.bind(bound_seg)
            assert array_g.S == scalar_g.S and array_g.E == scalar_g.E
        elif op == "unbind" and bound_seg is not None:
            for g in pair:
                g.unbind()
            bound_seg = None
        elif op == "add_obstacle":
            _pts, extra = random_scene(rng, n_points=1, n_obstacles=1)
            for g in pair:
                g.add_obstacles(extra)
        elif op == "add_point":
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            ids = {g.add_point(x, y) for g in pair}
            assert len(ids) == 1
            nodes.append(ids.pop())
        elif op == "remove_point" and nodes:
            node = nodes.pop(victim % len(nodes))
            for g in pair:
                g.remove_point(node)
        elif op == "compact" and bound_seg is None and not nodes:
            # Only safe while no external node ids are held: compaction
            # remaps live slots identically on both engines.
            assert array_g.compact() == scalar_g.compact()
        check()


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_clone_skeleton_preserves_parity(seed):
    rng = random.Random(seed)
    array_g, scalar_g, nodes, _qseg = _twin_graphs(rng, anchored=False)
    for g in (array_g, scalar_g):
        for node in nodes:
            g.remove_point(node)
    clones = [g.clone_skeleton() for g in (array_g, scalar_g)]
    qseg = random_query(rng)
    for c in clones:
        c.bind(qseg)
    _assert_traversals_match(clones[0], clones[1],
                             [clones[0].S, clones[0].E])


@given(seed=st.integers(min_value=0, max_value=10_000),
       k=st.integers(min_value=1, max_value=2),
       prefetch=st.sampled_from([16, 0]))
@settings(max_examples=10, deadline=None)
def test_workspace_answers_identical_across_engines(seed, k, prefetch):
    rng = random.Random(seed)
    points, obstacles = random_scene(rng, n_points=8, n_obstacles=5)
    ws_array = Workspace.from_points(
        list(points), list(obstacles),
        routing=RoutingConfig(engine=ARRAY_ENGINE,
                              frontier_prefetch=prefetch))
    ws_scalar = Workspace.from_points(
        list(points), list(obstacles),
        routing=RoutingConfig(engine=SCALAR_ENGINE))
    qseg = random_query(rng)
    got = ws_array.coknn(qseg, k=k)
    want = ws_scalar.coknn(qseg, k=k)
    assert got.tuples() == want.tuples()  # owners AND interval floats
    x, y = qseg.point_at(0.5 * qseg.length)
    got_nn, _ = ws_array.onn(x, y, k=k)
    want_nn, _ = ws_scalar.onn(x, y, k=k)
    assert got_nn == want_nn
    got_r, _ = ws_array.range(x, y, 18.0)
    want_r, _ = ws_scalar.range(x, y, 18.0)
    assert sorted(got_r, key=str) == sorted(want_r, key=str)
