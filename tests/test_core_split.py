"""The quadratic split-point solver (Theorem 1) and the Case 1-4 taxonomy."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import classify_case, crossing_params, dist_quadratic, \
    perpendicular_distance
from repro.geometry import Segment

coord = st.floats(min_value=-200, max_value=200, allow_nan=False,
                  allow_infinity=False)
base_d = st.floats(min_value=0, max_value=300, allow_nan=False,
                   allow_infinity=False)


def path_value(qseg, cp, base, t):
    p = qseg.point_at(t)
    return base + math.hypot(p.x - cp[0], p.y - cp[1])


class TestDistQuadratic:
    @given(coord, coord, st.floats(min_value=0, max_value=100))
    @settings(max_examples=50)
    def test_matches_direct_distance(self, px, py, t):
        q = Segment(0, 0, 100, 0)
        b, c = dist_quadratic(q, px, py)
        want = q.point_at(t).dist((px, py))
        got_sq = t * t + b * t + c
        # Compare squared distances: near the segment the three quadratic
        # terms cancel almost exactly, so the achievable absolute error is
        # a few ulps of the *term magnitudes*, not of the tiny residual.
        scale = t * t + abs(b) * t + abs(c) + 1.0
        assert math.isclose(got_sq, want * want,
                            rel_tol=1e-9, abs_tol=1e-12 * scale)

    def test_oblique_segment(self):
        q = Segment(1, 2, 4, 6)  # length 5
        b, c = dist_quadratic(q, 3.0, -1.0)
        for t in (0.0, 1.7, 5.0):
            want = q.point_at(t).dist((3.0, -1.0))
            got = math.sqrt(t * t + b * t + c)
            assert math.isclose(got, want, rel_tol=1e-9)


class TestCrossingParams:
    def test_symmetric_points_single_crossing(self):
        """Equal bases, mirrored control points: tie at the midpoint."""
        q = Segment(0, 0, 10, 0)
        roots = crossing_params(q, (2, 3), 0.0, (8, 3), 0.0, 0.0, 10.0)
        assert len(roots) == 1
        assert math.isclose(roots[0], 5.0, abs_tol=1e-7)

    def test_no_crossing_when_one_dominates(self):
        q = Segment(0, 0, 10, 0)
        # Control point at distance with a big base handicap never wins.
        roots = crossing_params(q, (5, 1), 100.0, (5, 2), 0.0, 0.0, 10.0)
        assert roots == []

    def test_two_crossings_case2_configuration(self):
        """A near control point with base handicap loses in the middle only."""
        q = Segment(0, 0, 20, 0)
        u = (10.0, 8.0)   # far from the line, no handicap
        v = (10.0, 1.0)   # close to the line, but base handicap 5
        roots = crossing_params(q, u, 0.0, v, 5.0, 0.0, 20.0)
        assert len(roots) == 2
        # Verify each root is a genuine tie.
        for t in roots:
            fu = path_value(q, u, 0.0, t)
            fv = path_value(q, v, 5.0, t)
            assert math.isclose(fu, fv, abs_tol=1e-6)

    def test_roots_sorted_and_inside_interval(self):
        q = Segment(0, 0, 20, 0)
        roots = crossing_params(q, (10, 8), 0.0, (10, 1), 5.0, 0.0, 20.0)
        assert roots == sorted(roots)
        for t in roots:
            assert 0.0 < t < 20.0

    def test_interval_clipping_drops_outside_roots(self):
        q = Segment(0, 0, 20, 0)
        all_roots = crossing_params(q, (10, 8), 0.0, (10, 1), 5.0, 0.0, 20.0)
        assert len(all_roots) == 2
        lo = all_roots[0] + 0.5
        clipped = crossing_params(q, (10, 8), 0.0, (10, 1), 5.0, lo, 20.0)
        assert len(clipped) == 1

    def test_identical_control_points_no_roots(self):
        q = Segment(0, 0, 10, 0)
        assert crossing_params(q, (5, 2), 1.0, (5, 2), 3.0, 0.0, 10.0) == []

    @given(st.tuples(coord, coord), base_d, st.tuples(coord, coord), base_d)
    @settings(max_examples=120, deadline=None)
    def test_at_most_two_roots_and_all_are_ties(self, u, bu, v, bv):
        """Theorem 1: never more than two tie points, each a true tie."""
        q = Segment(0, 0, 100, 0)
        roots = crossing_params(q, u, bu, v, bv, 0.0, 100.0)
        assert len(roots) <= 2
        for t in roots:
            fu = path_value(q, u, bu, t)
            fv = path_value(q, v, bv, t)
            assert math.isclose(fu, fv, abs_tol=1e-5), (u, bu, v, bv, t)

    @given(st.tuples(coord, coord), base_d, st.tuples(coord, coord), base_d)
    @settings(max_examples=120, deadline=None)
    def test_sign_constant_between_roots(self, u, bu, v, bv):
        """Between consecutive roots the winner never changes (sampled)."""
        q = Segment(0, 0, 100, 0)
        roots = crossing_params(q, u, bu, v, bv, 0.0, 100.0)
        edges = [0.0, *roots, 100.0]
        for lo, hi in zip(edges, edges[1:]):
            if hi - lo < 1e-6:
                continue
            signs = set()
            for f in (0.15, 0.5, 0.85):
                t = lo + f * (hi - lo)
                diff = path_value(q, u, bu, t) - path_value(q, v, bv, t)
                if abs(diff) > 1e-6:
                    signs.add(diff > 0)
            assert len(signs) <= 1, (u, bu, v, bv, roots, lo, hi)


class TestClassifyCase:
    def _setup(self):
        # Canonical configuration from Figure 4: both control points above
        # the query line, u farther than v.
        q = Segment(0, 0, 20, 0)
        u = (12.0, 6.0)
        v = (8.0, 2.0)
        return q, u, v

    def test_case1_challenger_takes_all(self):
        q, u, v = self._setup()
        duv = math.dist(u, v)
        # d = v_base - u_base >= dist(u, v): challenger u wins everywhere.
        case = classify_case(q, u, 0.0, v, duv + 1.0)
        assert case == 1
        roots = crossing_params(q, u, 0.0, v, duv + 1.0, 0.0, 20.0)
        assert roots == []

    def test_case2_two_split_points(self):
        q, u, v = self._setup()
        duv = math.dist(u, v)
        a = abs(q.param_of(*u) - q.param_of(*v))
        d = (a + duv) / 2.0  # strictly between a and dist(u, v)
        case = classify_case(q, u, 0.0, v, d)
        assert case == 2

    def test_case3_one_split_point(self):
        q, u, v = self._setup()
        case = classify_case(q, u, 0.0, v, 0.0)  # d = 0 in (-a, a]
        assert case == 3
        roots = crossing_params(q, u, 0.0, v, 0.0, 0.0, 20.0)
        assert len(roots) == 1

    def test_case4_incumbent_keeps_all(self):
        q, u, v = self._setup()
        a = abs(q.param_of(*u) - q.param_of(*v))
        case = classify_case(q, u, a + 5.0, v, 0.0)  # d = -(a+5) <= -a
        assert case == 4
        crossing_params(q, u, a + 5.0, v, 0.0, 0.0, 20.0)
        # Case 4 may still produce tangent roots clipped away; the winner
        # check matters: v dominates at every sample.
        for t in (0.0, 5.0, 10.0, 15.0, 20.0):
            assert path_value(q, v, 0.0, t) <= path_value(q, u, a + 5.0, t) + 1e-9


class TestPerpendicularDistance:
    def test_horizontal_line(self):
        q = Segment(0, 0, 10, 0)
        assert perpendicular_distance(q, 3, 7) == pytest.approx(7.0)

    def test_point_on_line(self):
        q = Segment(0, 0, 10, 0)
        assert perpendicular_distance(q, 25, 0) == pytest.approx(0.0)

    def test_oblique(self):
        q = Segment(0, 0, 10, 10)
        assert perpendicular_distance(q, 10, 0) == pytest.approx(math.sqrt(50))

    @given(coord, coord)
    def test_beyond_endpoints_uses_line_not_segment(self, px, py):
        q = Segment(0, 0, 10, 0)
        assert perpendicular_distance(q, px, py) == pytest.approx(abs(py))
