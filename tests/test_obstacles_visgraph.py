"""Local visibility graph: structure, incremental growth, Dijkstra vs networkx."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.geometry import Segment
from repro.obstacles import (
    LocalVisibilityGraph,
    RectObstacle,
    SegmentObstacle,
    obstructed_distance,
)


def make_vg(obstacles, q=Segment(0, 50, 100, 50)):
    vg = LocalVisibilityGraph(q)
    vg.add_obstacles(obstacles)
    return vg


def networkx_reference(vg: LocalVisibilityGraph):
    """Materialize the graph fully and mirror it in networkx."""
    g = nx.Graph()
    for node in range(len(vg._xy)):
        if vg._alive[node]:
            g.add_node(node)
            for nbr, w in vg.neighbors(node).items():
                g.add_edge(node, nbr, weight=w)
    return g


class TestStructure:
    def test_initial_graph_has_endpoints(self):
        vg = LocalVisibilityGraph(Segment(0, 0, 10, 0))
        assert vg.num_nodes == 2
        assert vg.svg_size == 2
        # With no obstacles S sees E directly.
        assert vg.neighbors(vg.S)[vg.E] == pytest.approx(10.0)

    def test_obstacle_vertices_become_nodes(self):
        vg = make_vg([RectObstacle(40, 40, 60, 60)])
        assert vg.svg_size == 6  # S, E + 4 corners

    def test_segment_obstacle_two_vertices(self):
        vg = make_vg([SegmentObstacle(40, 40, 60, 60)])
        assert vg.svg_size == 4

    def test_rect_blocks_direct_edge(self):
        q = Segment(0, 50, 100, 50)
        vg = make_vg([RectObstacle(45, 40, 55, 60)], q)
        assert vg.E not in vg.neighbors(vg.S)

    def test_rect_boundary_edges_exist(self):
        vg = make_vg([RectObstacle(40, 40, 60, 60)])
        # Adjacent corners of a rect are mutually visible (run along edge);
        # diagonal corners are blocked by the interior.
        corners = [i for i in range(2, 6)]
        xy = {i: vg.node_point(i) for i in corners}
        for i in corners:
            nbrs = vg.neighbors(i)
            for j in corners:
                if i == j:
                    continue
                diag = (xy[i].x != xy[j].x) and (xy[i].y != xy[j].y)
                assert (j not in nbrs) == diag

    def test_transient_point_add_remove(self):
        vg = make_vg([RectObstacle(40, 40, 60, 60)])
        before = vg.num_nodes
        p = vg.add_point(50, 10)
        assert vg.num_nodes == before + 1
        assert vg.svg_size == before  # transient points don't count in |SVG|
        assert vg.neighbors(p)  # sees something
        vg.remove_point(p)
        assert vg.num_nodes == before
        # no dangling references to p in cached rows
        for node in range(len(vg._xy)):
            if vg._alive[node]:
                assert p not in vg.neighbors(node)

    def test_remove_permanent_node_rejected(self):
        vg = make_vg([])
        with pytest.raises(ValueError):
            vg.remove_point(vg.S)

    def test_seeded_constructor_equals_add_obstacles(self):
        q = Segment(0, 50, 100, 50)
        obstacles = [RectObstacle(30, 40, 40, 60),
                     SegmentObstacle(60, 30, 70, 70)]
        seeded = LocalVisibilityGraph(q, obstacles=obstacles)
        grown = make_vg(obstacles, q)
        assert seeded.svg_size == grown.svg_size
        da = seeded.shortest_distances(seeded.S, [seeded.E])[seeded.E]
        db = grown.shortest_distances(grown.S, [grown.E])[grown.E]
        assert da == pytest.approx(db)

    def test_duplicate_obstacles_skipped(self):
        obstacles = [RectObstacle(30, 40, 40, 60)]
        vg = make_vg(obstacles)
        assert vg.add_obstacles(obstacles) == 0  # re-offer is a no-op
        assert vg.add_obstacles([SegmentObstacle(60, 30, 70, 70),
                                 obstacles[0]]) == 1
        assert vg.svg_size == 2 + 4 + 2

    def test_incremental_equals_batch(self):
        """Adding obstacles one by one == adding them all at once."""
        rng = random.Random(3)
        obs = []
        for _ in range(8):
            x, y = rng.uniform(0, 90), rng.uniform(0, 90)
            obs.append(RectObstacle(x, y, x + rng.uniform(2, 10),
                                    y + rng.uniform(2, 10)))
        q = Segment(0, 50, 100, 50)
        vg_batch = make_vg(obs, q)
        vg_inc = LocalVisibilityGraph(q)
        for o in obs:
            vg_inc.add_obstacles([o])
        g1 = networkx_reference(vg_batch)
        g2 = networkx_reference(vg_inc)
        assert set(g1.nodes) == set(g2.nodes)
        assert set(map(frozenset, g1.edges)) == set(map(frozenset, g2.edges))

    def test_edge_invalidated_by_later_obstacle(self):
        q = Segment(0, 50, 100, 50)
        vg = LocalVisibilityGraph(q)
        assert vg.E in vg.neighbors(vg.S)
        vg.add_obstacles([RectObstacle(45, 40, 55, 60)])
        assert vg.E not in vg.neighbors(vg.S)


class TestDijkstra:
    @pytest.mark.parametrize("seed", range(6))
    def test_distances_match_networkx(self, seed):
        rng = random.Random(seed)
        obs = []
        for _ in range(7):
            x, y = rng.uniform(0, 90), rng.uniform(0, 90)
            if rng.random() < 0.3:
                obs.append(SegmentObstacle(x, y, x + rng.uniform(-15, 15),
                                           y + rng.uniform(-15, 15)))
            else:
                obs.append(RectObstacle(x, y, x + rng.uniform(2, 12),
                                        y + rng.uniform(2, 12)))
        vg = make_vg(obs)
        g = networkx_reference(vg)
        lengths = nx.single_source_dijkstra_path_length(g, vg.S)
        got = {}
        for d, node, _pred in vg.dijkstra_order(vg.S):
            got[node] = d
        for node, want in lengths.items():
            assert math.isclose(got[node], want, abs_tol=1e-9)
        # Unreached nodes are exactly those networkx also cannot reach.
        assert set(got) == set(lengths)

    def test_settled_order_ascending(self):
        vg = make_vg([RectObstacle(30, 30, 70, 70)])
        dists = [d for d, _n, _p in vg.dijkstra_order(vg.S)]
        assert dists == sorted(dists)

    def test_predecessors_form_shortest_paths(self):
        vg = make_vg([RectObstacle(30, 40, 70, 60)])
        dist = {}
        pred = {}
        for d, node, p in vg.dijkstra_order(vg.S):
            dist[node] = d
            pred[node] = p
        for node, p in pred.items():
            if p is not None:
                w = vg.neighbors(p)[node]
                assert math.isclose(dist[node], dist[p] + w, abs_tol=1e-9)

    def test_shortest_path_endpoints(self):
        q = Segment(0, 50, 100, 50)
        vg = make_vg([RectObstacle(45, 30, 55, 70)], q)
        d, path = vg.shortest_path(vg.S, vg.E)
        assert path[0] == vg.S and path[-1] == vg.E
        assert d > 100.0  # forced around the block
        ref = obstructed_distance((0, 50), (100, 50),
                                  [RectObstacle(45, 30, 55, 70)])
        assert math.isclose(d, ref, abs_tol=1e-9)

    def test_unreachable_distance_inf(self):
        q = Segment(0, 50, 100, 50)
        walls = [RectObstacle(40, -10, 45, 110),
                 RectObstacle(55, -10, 60, 110),
                 RectObstacle(40, -10, 60, -5),
                 RectObstacle(40, 105, 60, 110)]
        vg = make_vg(walls, q)
        p = vg.add_point(50, 50)  # inside the walled corridor
        d = vg.shortest_distances(p, [vg.S])[vg.S]
        assert math.isinf(d)

    def test_shortest_distances_early_stop(self):
        vg = make_vg([RectObstacle(30, 40, 70, 60)])
        out = vg.shortest_distances(vg.S, [vg.E])
        assert set(out) == {vg.E}
        assert math.isfinite(out[vg.E])


class TestVisibleRegionCache:
    def test_cache_narrows_with_new_obstacles(self):
        q = Segment(0, 0, 100, 0)
        vg = LocalVisibilityGraph(q)
        p = vg.add_point(50, 30)
        vr0 = vg.visible_region_of(p)
        assert vr0.measure() == pytest.approx(100.0)
        vg.add_obstacles([RectObstacle(45, 5, 55, 10)])
        vr1 = vg.visible_region_of(p)
        assert vr1.measure() < 100.0
        # Incremental narrowing equals recomputation from scratch.
        from repro.obstacles import visible_region

        fresh = visible_region(50, 30, q, vg.obstacles)
        assert vr1 == fresh

    def test_distinct_nodes_cached_independently(self):
        q = Segment(0, 0, 100, 0)
        vg = make_vg([RectObstacle(40, 10, 60, 20)], q)
        a = vg.add_point(50, 30)
        b = vg.add_point(50, 5)
        vra = vg.visible_region_of(a)
        vrb = vg.visible_region_of(b)
        assert vra.measure() < vrb.measure()  # a is behind the obstacle
