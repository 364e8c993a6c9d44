"""Engine internals: KEnvelope cascade, ConnResult accessors, data sources."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core import ConnConfig, PiecewiseDistance, QueryStats
from repro.core.engine import ConnResult, KEnvelope, TreeDataSource
from repro.geometry import IntervalSet, Segment
from repro.index import nearest_to_segment
from tests.conftest import build_point_tree, same_values

Q = Segment(0, 0, 100, 0)
CFG = ConnConfig()


def fn(cp, base, owner):
    return PiecewiseDistance.from_region(Q, IntervalSet.full(0, Q.length),
                                         cp, base, owner)


class TestKEnvelope:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KEnvelope(Q, 0)

    def test_initial_rlmax_infinite(self):
        env = KEnvelope(Q, 2)
        assert math.isinf(env.rlmax())

    def test_rlmax_finite_after_k_candidates(self):
        env = KEnvelope(Q, 2)
        stats = QueryStats()
        env.insert(fn((10, 5), 0.0, "a"), CFG, stats)
        assert math.isinf(env.rlmax())  # only 1 candidate for k=2
        env.insert(fn((90, 5), 0.0, "b"), CFG, stats)
        assert math.isfinite(env.rlmax())

    def test_rlmax_is_max_endpoint_of_kth_level(self):
        env = KEnvelope(Q, 1)
        stats = QueryStats()
        env.insert(fn((50, 10), 0.0, "a"), CFG, stats)
        want = max(math.hypot(50, 10), math.hypot(50, 10))
        assert env.rlmax() == pytest.approx(want)

    def test_cascade_matches_sorted_values(self):
        rng = random.Random(3)
        env = KEnvelope(Q, 3)
        stats = QueryStats()
        fns = [fn((rng.uniform(0, 100), rng.uniform(1, 30)),
                  rng.uniform(0, 10), i) for i in range(6)]
        for f in fns:
            env.insert(f, CFG, stats)
        ts = np.linspace(0, 100, 101)
        stacked = np.sort(np.stack([f.values(ts) for f in fns]), axis=0)
        for lvl in range(3):
            assert same_values(env.levels[lvl].values(ts), stacked[lvl])

    def test_insert_reports_change(self):
        env = KEnvelope(Q, 1)
        stats = QueryStats()
        assert env.insert(fn((50, 5), 0.0, "a"), CFG, stats)
        # A hopeless candidate changes nothing.
        assert not env.insert(fn((50, 500), 100.0, "b"), CFG, stats)


class TestConnResult:
    def _result(self):
        stats = QueryStats()
        env = KEnvelope(Q, 2)
        env.insert(fn((20, 10), 0.0, "a"), CFG, stats)
        env.insert(fn((80, 10), 0.0, "b"), CFG, stats)
        return ConnResult(Q, 2, env.levels, stats)

    def test_envelope_is_level_one(self):
        res = self._result()
        assert res.envelope is res.levels[0]

    def test_owner_and_distance(self):
        res = self._result()
        assert res.owner_at(0.0) == "a"
        assert res.owner_at(100.0) == "b"
        assert res.distance(0.0) == pytest.approx(math.hypot(20, 10))

    def test_kth_distance_dominates(self):
        res = self._result()
        for t in (0.0, 25.0, 50.0, 75.0, 100.0):
            assert res.kth_distance(t) >= res.distance(t) - 1e-9

    def test_knn_at_sorted_pairs(self):
        res = self._result()
        pairs = res.knn_at(50.0)
        assert len(pairs) == 2
        assert pairs[0][1] <= pairs[1][1]
        assert {p[0] for p in pairs} == {"a", "b"}

    def test_knn_intervals_owners_swap(self):
        res = self._result()
        intervals = res.knn_intervals()
        assert intervals[0][0] == ("a", "b")
        assert intervals[-1][0] == ("b", "a")

    def test_knn_intervals_merge_unreachable_level_boundaries(self):
        """A level boundary between two no-path pieces must not force a cut.

        Unreachable (``cp is None``) pieces can carry arbitrary recorded
        owners (whichever function lost there); the ordered k-NN tuple is
        unchanged across such a boundary, so the intervals must merge and
        the reported owner must be the normalized ``None``.
        """
        from repro.core.distance_function import Piece

        level1 = fn((50, 10), 0.0, "a")
        level2 = PiecewiseDistance(Q, [
            Piece(0.0, 40.0, None, math.inf, "a"),
            Piece(40.0, 100.0, None, math.inf, "b"),
        ])
        res = ConnResult(Q, 2, [level1, level2], QueryStats())
        intervals = res.knn_intervals()
        assert intervals == [(("a", None), (0.0, 100.0))]

    def test_knn_intervals_merge_same_owner_cp_change(self):
        """A control-point change within one owner never cuts the partition."""
        from repro.core.distance_function import Piece

        level1 = PiecewiseDistance(Q, [
            Piece(0.0, 60.0, (0.0, 10.0), 0.0, "a"),
            Piece(60.0, 100.0, (100.0, 10.0), 2.0, "a"),
        ])
        res = ConnResult(Q, 1, [level1], QueryStats())
        intervals = res.knn_intervals()
        assert intervals == [(("a",), (0.0, 100.0))]

    def test_tuples_and_split_points(self):
        res = self._result()
        assert res.split_points() == pytest.approx([50.0])
        assert [o for o, _r in res.tuples()] == ["a", "b"]


class TestTreeDataSource:
    def test_orders_by_segment_mindist(self, rng):
        pts = [(i, (rng.uniform(0, 100), rng.uniform(0, 100)))
               for i in range(40)]
        tree = build_point_tree(pts)
        q = Segment(0, 50, 100, 50)
        src = TreeDataSource(nearest_to_segment(tree, q.ax, q.ay, q.bx, q.by))
        dists = []
        while not math.isinf(src.peek_key()):
            d, _payload, (x, y) = src.pop()
            assert d == pytest.approx(q.dist_point(x, y), abs=1e-9)
            dists.append(d)
        assert dists == sorted(dists)
        assert len(dists) == 40

    def test_peek_stable(self, rng):
        pts = [(i, (rng.uniform(0, 100), rng.uniform(0, 100)))
               for i in range(5)]
        src = TreeDataSource(
            nearest_to_segment(build_point_tree(pts), 0, 0, 10, 0))
        assert src.peek_key() == src.peek_key()
