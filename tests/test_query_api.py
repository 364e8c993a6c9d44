"""The declarative query API: typed descriptions, normalization, exports."""

from __future__ import annotations

import inspect
import math
import random
import typing

import pytest

import repro
from repro import (
    AddObstacle,
    AddSite,
    ClosestPairQuery,
    CoknnQuery,
    ConnQuery,
    EDistanceJoinQuery,
    OnnQuery,
    Point,
    PolygonObstacle,
    Query,
    QueryResult,
    RangeQuery,
    RectObstacle,
    RStarTree,
    Segment,
    SegmentObstacle,
    SemiJoinQuery,
    ShardedWorkspace,
    TrajectoryQuery,
    Workspace,
)


def small_scene(seed: int = 3, layout: str = "2T",
                page_size: int = 4096) -> Workspace:
    rng = random.Random(seed)
    points = [(i, (rng.uniform(0, 100), rng.uniform(0, 100)))
              for i in range(40)]
    obstacles = [RectObstacle(x, y, x + 7, y + 4)
                 for x, y in ((rng.uniform(0, 90), rng.uniform(0, 90))
                              for _ in range(12))]
    return Workspace.from_points(points, obstacles, layout=layout,
                                 page_size=page_size)


def other_tree(seed: int = 5, n: int = 6) -> RStarTree:
    rng = random.Random(seed)
    tree = RStarTree()
    for i in range(n):
        tree.insert_point(f"b{i}", rng.uniform(0, 100), rng.uniform(0, 100))
    return tree


class TestDescriptions:
    def test_frozen_and_validated(self):
        q = CoknnQuery(Segment(0, 0, 10, 0), knn=2, label="tagged")
        with pytest.raises(Exception):
            q.knn = 3  # frozen dataclass
        assert q.k == 2 and q.label == "tagged"
        with pytest.raises(ValueError):
            CoknnQuery(Segment(5, 5, 5, 5))  # degenerate
        with pytest.raises(ValueError):
            CoknnQuery(Segment(0, 0, 1, 0), knn=0)
        with pytest.raises(ValueError):
            ConnQuery(Segment(0, 0, 1, 0), knn=2)  # CONN is k = 1
        with pytest.raises(ValueError):
            OnnQuery((1, 2), knn=0)
        with pytest.raises(ValueError):
            RangeQuery((1, 2), -1.0)
        with pytest.raises(ValueError):
            TrajectoryQuery(((0, 0),))
        with pytest.raises(ValueError):
            TrajectoryQuery(((5, 5), (5, 5)))  # no leg of positive length
        with pytest.raises(ValueError):
            EDistanceJoinQuery(other_tree(), other_tree(), -2.0)

    def test_segment_and_point_coercion(self):
        assert CoknnQuery((0, 0, 10, 0)).segment == Segment(0, 0, 10, 0)
        assert OnnQuery((3, 4)).point == Point(3.0, 4.0)
        assert OnnQuery(Point(3, 4)) == OnnQuery((3, 4))
        assert RangeQuery(Point(1, 2), 5).radius == 5.0
        assert TrajectoryQuery([(0, 0), (1, 1)]).waypoints == \
            ((0.0, 0.0), (1.0, 1.0))

    def test_footprints(self):
        assert ConnQuery(Segment(2, 8, 10, 4)).footprint() == \
            repro.Rect(2, 4, 10, 8)
        fp = RangeQuery((5, 5), 3).footprint()
        assert (fp.xlo, fp.ylo, fp.xhi, fp.yhi) == (2, 2, 8, 8)
        assert TrajectoryQuery([(0, 0), (4, 9)]).footprint() == \
            repro.Rect(0, 0, 4, 9)
        assert SemiJoinQuery(other_tree(), other_tree()).footprint() is None

    def test_per_query_config_override(self):
        ws = small_scene()
        cfg = repro.ConnConfig.no_pruning()
        q = ConnQuery(Segment(0, 50, 100, 50), config=cfg)
        assert ws.plan(q).config == cfg
        assert ws.plan(ConnQuery(Segment(0, 50, 100, 50))).config == \
            repro.DEFAULT_CONFIG
        assert ws.execute(q).tuples() == \
            ws.conn(Segment(0, 50, 100, 50)).tuples()


class TestPointNormalization:
    """``onn``/``range`` accept bare floats, an (x, y) tuple, or a Point."""

    @pytest.mark.parametrize("layout", ["2T", "1T"])
    def test_workspace_onn_spellings(self, layout):
        ws = small_scene(layout=layout)
        base, _ = ws.onn(20.0, 30.0, k=3)
        assert ws.onn((20.0, 30.0), k=3)[0] == base
        assert ws.onn(Point(20.0, 30.0), k=3)[0] == base

    def test_workspace_range_spellings(self):
        ws = small_scene()
        base, _ = ws.range(20.0, 30.0, 25.0)
        assert ws.range((20.0, 30.0), 25.0)[0] == base
        assert ws.range(Point(20.0, 30.0), radius=25.0)[0] == base

    def test_free_function_spellings(self):
        ws = small_scene()
        dt, ot = ws.data_tree, ws.obstacle_tree
        base, _ = repro.onn(dt, ot, 20.0, 30.0, k=2)
        assert repro.onn(dt, ot, (20.0, 30.0), k=2)[0] == base
        rbase, _ = repro.obstructed_range(dt, ot, 20.0, 30.0, 25.0)
        assert repro.obstructed_range(dt, ot, (20.0, 30.0), 25.0)[0] == rbase
        assert repro.obstructed_range(dt, ot, Point(20.0, 30.0),
                                      radius=25.0)[0] == rbase

    def test_ambiguous_spellings_rejected(self):
        ws = small_scene()
        with pytest.raises(TypeError):
            ws.onn((20.0, 30.0), 3)  # k must be keyword with a point-like
        with pytest.raises(TypeError):
            ws.onn(20.0)  # missing y
        with pytest.raises(TypeError):
            ws.range(20.0, 30.0)  # missing radius


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInput:
    """NaN / infinite query coordinates raise ``ValueError`` up front.

    Before validation, a NaN segment hung ``PiecewiseDistance.merge_min``
    and an infinite one answered ``[(0, (0.0, inf))]``.
    """

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("slot", range(4))
    def test_segment_queries(self, bad, slot):
        coords = [10.0, 20.0, 30.0, 25.0]
        coords[slot] = bad
        ws = small_scene()
        with pytest.raises(ValueError, match="non-finite"):
            ws.conn(Segment(*coords))
        with pytest.raises(ValueError, match="non-finite"):
            ws.coknn(tuple(coords), k=2)
        with pytest.raises(ValueError, match="non-finite"):
            repro.conn(ws.data_tree, ws.obstacle_tree, Segment(*coords))
        with pytest.raises(ValueError, match="non-finite"):
            TrajectoryQuery([(0.0, 0.0), tuple(coords[:2]),
                             tuple(coords[2:])])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_point_queries(self, bad):
        ws = small_scene()
        for x, y in ((bad, 30.0), (20.0, bad)):
            with pytest.raises(ValueError, match="non-finite"):
                ws.onn(x, y, k=2)
            with pytest.raises(ValueError, match="non-finite"):
                ws.onn(Point(x, y))
            with pytest.raises(ValueError, match="non-finite"):
                ws.range((x, y), 25.0)
            with pytest.raises(ValueError, match="non-finite"):
                RangeQuery(Point(x, y), 5.0)

    def test_range_radius(self):
        with pytest.raises(ValueError, match="non-negative"):
            RangeQuery((1, 2), math.nan)
        # An unbounded radius stays meaningful: every reachable site.
        assert RangeQuery((1, 2), math.inf).radius == math.inf


class TestNonFiniteSitesAndObstacles:
    """NaN / infinite site and obstacle coordinates raise ``ValueError``,
    and so do point-degenerate obstacles.

    Before validation, ``Workspace.from_points`` indexed a NaN site and
    ``RectObstacle(0, 0, nan, 1)`` built an obstacle, and queries went on
    answering over them.
    """

    def test_point_degenerate_obstacles(self):
        with pytest.raises(ValueError, match="degenerate"):
            RectObstacle(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            SegmentObstacle(2.0, 2.0, 2.0, 2.0)
        # Zero width or height alone still constructs (perfbench builds
        # such rects as clearance proxies); workspaces refuse them, see
        # TestZeroAreaRects.
        assert RectObstacle(1.0, 1.0, 1.0, 5.0).rect.area() == 0.0
        assert RectObstacle(1.0, 1.0, 5.0, 1.0).rect.area() == 0.0

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("slot", range(4))
    def test_obstacles(self, bad, slot):
        coords = [10.0, 20.0, 30.0, 25.0]
        coords[slot] = bad
        with pytest.raises(ValueError, match="non-finite"):
            RectObstacle(*coords)
        with pytest.raises(ValueError, match="non-finite"):
            SegmentObstacle(*coords)
        pts = [(10.0, 20.0), (30.0, 20.0), (30.0, 25.0), (10.0, 25.0)]
        x, y = pts[slot]
        pts[slot] = (bad, y) if slot % 2 else (x, bad)
        with pytest.raises(ValueError, match="non-finite"):
            PolygonObstacle(pts)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("layout", ["2T", "1T"])
    def test_workspace_sites(self, bad, layout):
        obstacles = [RectObstacle(40.0, 40.0, 50.0, 45.0)]
        for site in ((bad, 3.0), (3.0, bad)):
            with pytest.raises(ValueError, match="non-finite"):
                Workspace.from_points([("a", (1.0, 2.0)), ("c", site)],
                                      obstacles, layout=layout)
        ws = small_scene(layout=layout)
        before = ws.version
        with pytest.raises(ValueError, match="non-finite"):
            ws.apply([AddSite("c", bad, 3.0)])
        with pytest.raises(ValueError, match="non-finite"):
            ws.add_site("c", 3.0, bad)
        assert ws.version == before  # nothing was applied

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_sharded_sites(self, bad):
        rng = random.Random(4)
        points = [(i, (rng.uniform(0, 100), rng.uniform(0, 100)))
                  for i in range(20)]
        obstacles = [RectObstacle(40.0, 40.0, 50.0, 45.0)]
        with pytest.raises(ValueError, match="non-finite"):
            ShardedWorkspace.from_points(points + [("c", (bad, 3.0))],
                                         obstacles, shards=2)
        sws = ShardedWorkspace.from_points(points, obstacles, shards=2)
        before = sws.version
        with pytest.raises(ValueError, match="non-finite"):
            sws.apply([AddSite("c", 3.0, bad)])
        with pytest.raises(ValueError, match="non-finite"):
            sws.add_site("c", bad, 3.0)
        assert sws.version == before
        assert sws.size == len(points)


class TestZeroAreaRects:
    """A zero-width or zero-height ``RectObstacle`` has no open interior, so
    it blocks no sight line.  Workspaces refuse one and name
    ``SegmentObstacle``, the kind that models a wall.

    Before the check such a rect was indexed, and every answer came out as
    if the wall were not there.
    """

    WALL = (50.0, 30.0, 50.0, 70.0)
    POINTS = [("a", (45.0, 50.0)), ("b", (20.0, 50.0)), ("c", (70.0, 50.0))]

    @pytest.mark.parametrize("layout", ["2T", "1T"])
    @pytest.mark.parametrize("wall", [WALL, (30.0, 50.0, 70.0, 50.0)])
    def test_workspace_refuses_flat_rect(self, layout, wall):
        with pytest.raises(ValueError, match="SegmentObstacle"):
            Workspace.from_points(self.POINTS, [RectObstacle(*wall)],
                                  layout=layout)

    def test_updates_refuse_flat_rect(self):
        ws = Workspace.from_points(self.POINTS, [])
        flat = RectObstacle(*self.WALL)
        with pytest.raises(ValueError, match="SegmentObstacle"):
            ws.add_obstacle(flat)
        with pytest.raises(ValueError, match="SegmentObstacle"):
            ws.apply([AddObstacle(flat)])
        assert ws.version == 0 and ws.obstacle_tree.size == 0

    def test_sharded_workspace_refuses_flat_rect(self):
        flat = RectObstacle(*self.WALL)
        with pytest.raises(ValueError, match="SegmentObstacle"):
            ShardedWorkspace.from_points(self.POINTS, [flat], shards=2)
        sws = ShardedWorkspace.from_points(
            self.POINTS, [SegmentObstacle(*self.WALL)], shards=2)
        before = sws.version
        with pytest.raises(ValueError, match="SegmentObstacle"):
            sws.add_obstacle(flat)
        with pytest.raises(ValueError, match="SegmentObstacle"):
            sws.apply([AddObstacle(flat)])
        assert sws.version == before


class TestResultProtocol:
    """Every ``execute`` result: ``.tuples()``, ``.stats``, ``.query``."""

    def test_all_eight_query_types(self):
        ws = small_scene()
        inner = other_tree()
        seg = Segment(10, 50, 90, 55)
        queries = [
            ConnQuery(seg),
            CoknnQuery(seg, knn=2),
            OnnQuery((20, 20), knn=2),
            RangeQuery((20, 20), 30.0),
            TrajectoryQuery([(0, 0), (50, 50), (90, 10)]),
            SemiJoinQuery(ws.data_tree, inner),
            EDistanceJoinQuery(ws.data_tree, inner, 15.0),
            ClosestPairQuery(ws.data_tree, inner),
        ]
        for q in queries:
            res = ws.execute(q)
            assert isinstance(res, QueryResult), q
            assert res.query is q
            assert isinstance(res.tuples(), list)
            assert res.stats is not None

    def test_sequence_behavior_of_wrapped_results(self):
        ws = small_scene()
        res = ws.execute(OnnQuery((20, 20), knn=3))
        assert len(res) == len(res.tuples()) == len(res.neighbors)
        assert list(res) == res.tuples()
        assert res[0] == res.tuples()[0]
        jres = ws.execute(SemiJoinQuery(ws.data_tree, other_tree()))
        assert jres.rows == jres.tuples()
        cres = ws.execute(ClosestPairQuery(ws.data_tree, other_tree()))
        assert cres.tuples() == ([cres.pair] if cres.pair else [])


class TestCostAccounting:
    """A result's page reads are exactly its trees' reads during ``execute``.

    Small pages give every tree several levels and a four-page LRU buffer
    makes faults differ from reads.  A warm-up query in a corner leaves
    cached obstacles and a capsule behind, so the trajectory's legs mix
    cache-served rounds with tree scans.
    """

    SEG = Segment(10, 30, 90, 60)
    QUERIES = {
        "conn": ConnQuery(SEG),
        "coknn": CoknnQuery(SEG, knn=3),
        "onn": OnnQuery((40, 55), knn=3),
        "range": RangeQuery((40, 55), 30.0),
        "trajectory": TrajectoryQuery([(10, 30), (50, 70), (90, 40)], knn=2),
    }

    @pytest.mark.parametrize("kind", sorted(QUERIES))
    @pytest.mark.parametrize("layout", ["2T", "1T"])
    def test_reads_and_faults_match_tree_deltas(self, layout, kind):
        ws = small_scene(layout=layout, page_size=256)
        trees = ([ws.data_tree, ws.obstacle_tree] if layout == "2T"
                 else [ws.unified_tree])
        for tree in trees:
            tree.attach_buffer(repro.LRUBuffer(4))
        ws.execute(ConnQuery(Segment(0, 0, 15, 5)))
        before = [tree.tracker.local_stats.snapshot() for tree in trees]
        stats = ws.execute(self.QUERIES[kind]).stats
        deltas = [tree.tracker.local_stats.delta(snap)
                  for tree, snap in zip(trees, before)]
        assert stats.io.logical_reads == sum(d.logical_reads for d in deltas)
        assert stats.io.page_faults == sum(d.page_faults for d in deltas)
        # The obstacle index is the last tree (the unified one on 1T).
        assert stats.obstacle_reads == deltas[-1].logical_reads > 0

    JOINS = {
        "semi": lambda left, right: SemiJoinQuery(left, right),
        "e_distance": lambda left, right: EDistanceJoinQuery(left, right,
                                                             15.0),
        "closest_pair": lambda left, right: ClosestPairQuery(left, right),
    }

    @pytest.mark.parametrize("kind", sorted(JOINS))
    def test_join_reads_match_tree_deltas(self, kind):
        """A join's reads are its point trees' and the obstacle index's,
        which also give its obstacle reads (joins run on 2T only)."""
        ws = small_scene(page_size=256)
        left, right = other_tree(seed=9, n=8), other_tree()
        trees = [left, right, ws.obstacle_tree]
        before = [tree.tracker.local_stats.snapshot() for tree in trees]
        stats = ws.execute(self.JOINS[kind](left, right)).stats
        deltas = [tree.tracker.local_stats.delta(snap)
                  for tree, snap in zip(trees, before)]
        assert stats.io.logical_reads == sum(d.logical_reads for d in deltas)
        assert stats.io.page_faults == sum(d.page_faults for d in deltas)
        # Each point tree is read: the e-distance and closest-pair joins
        # scan both whole, the semi-join scans the outer whole and the
        # inner by nearest-neighbour search.
        assert deltas[0].logical_reads > 0 and deltas[1].logical_reads > 0
        assert stats.obstacle_reads == deltas[-1].logical_reads > 0

    def test_self_join_charges_its_tree_once(self):
        """A semi-join of a tree with itself reads through one shared
        tracker, whose delta is charged once.  (The semi-join is the join
        that reads its point trees page by page: its inner scans.)"""
        ws = small_scene(page_size=256)
        tree = other_tree(seed=9, n=8)
        trees = [tree, ws.obstacle_tree]
        before = [t.tracker.local_stats.snapshot() for t in trees]
        stats = ws.execute(SemiJoinQuery(tree, tree)).stats
        deltas = [t.tracker.local_stats.delta(snap)
                  for t, snap in zip(trees, before)]
        assert deltas[0].logical_reads > 0
        assert stats.io.logical_reads == sum(d.logical_reads for d in deltas)
        assert stats.io.page_faults == sum(d.page_faults for d in deltas)
        assert stats.obstacle_reads == deltas[-1].logical_reads > 0

    def test_e_distance_self_join_charges_its_tree_once(self):
        """An e-distance self-join scans its one tree a single time, one
        read per page, and charges that delta once."""
        ws = small_scene(page_size=256)
        tree = other_tree(seed=9, n=8)
        trees = [tree, ws.obstacle_tree]
        before = [t.tracker.local_stats.snapshot() for t in trees]
        stats = ws.execute(EDistanceJoinQuery(tree, tree, 15.0)).stats
        deltas = [t.tracker.local_stats.delta(snap)
                  for t, snap in zip(trees, before)]
        assert deltas[0].logical_reads == tree.num_pages > 0
        assert stats.io.logical_reads == sum(d.logical_reads for d in deltas)
        assert stats.io.page_faults == sum(d.page_faults for d in deltas)
        assert stats.obstacle_reads == deltas[-1].logical_reads > 0


class TestExports:
    QUERY_TYPES = [ConnQuery, CoknnQuery, OnnQuery, RangeQuery,
                   TrajectoryQuery, SemiJoinQuery, EDistanceJoinQuery,
                   ClosestPairQuery]

    def test_query_types_in_all(self):
        for cls in self.QUERY_TYPES + [Query, repro.QueryPlan,
                                       repro.QueryResult,
                                       repro.NeighborsResult,
                                       repro.JoinResult,
                                       repro.ClosestPairResult,
                                       repro.TrajectoryResult]:
            assert cls.__name__ in repro.__all__
            assert getattr(repro, cls.__name__) is cls

    def test_every_workspace_return_type_importable(self):
        """Every public Workspace method's return type resolves at top level."""
        classes: set = set()

        def walk(tp):
            if tp is None:
                return
            for arg in typing.get_args(tp):
                walk(arg)
            if (inspect.isclass(tp) and not typing.get_args(tp)
                    and getattr(tp, "__module__", "").startswith("repro")):
                classes.add(tp)

        members = inspect.getmembers(Workspace, predicate=inspect.isfunction)
        for name, fn in members:
            if name.startswith("_"):
                continue
            walk(typing.get_type_hints(fn).get("return"))
        for name, prop in inspect.getmembers(
                Workspace, lambda m: isinstance(m, property)):
            if name.startswith("_"):
                continue
            walk(typing.get_type_hints(prop.fget).get("return"))
        assert {"ConnResult", "TrajectoryResult", "QueryPlan", "QueryStats",
                "CacheStats", "QueryService", "QueryResult"} <= \
            {c.__name__ for c in classes}
        for cls in classes:
            assert getattr(repro, cls.__name__, None) is cls, \
                f"repro.{cls.__name__} is not exported from the top level"
