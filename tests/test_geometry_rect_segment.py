"""Tests for Rect and Segment geometry, including the mindist lower bounds."""

from __future__ import annotations

import math

from hypothesis import example, given
from hypothesis import strategies as st

from repro.geometry import Point, Rect, Segment

coord = st.floats(min_value=-500, max_value=500, allow_nan=False,
                  allow_infinity=False)


@st.composite
def rects(draw) -> Rect:
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


@st.composite
def segments(draw) -> Segment:
    return Segment(draw(coord), draw(coord), draw(coord), draw(coord))


class TestRectBasics:
    def test_from_points(self):
        r = Rect.from_points([(1, 5), (4, 2), (3, 3)])
        assert r == Rect(1, 2, 4, 5)

    def test_point_rect_is_degenerate(self):
        r = Rect.point(2, 3)
        assert r.area() == 0.0 and r.contains_point(2, 3)

    def test_area_margin(self):
        r = Rect(0, 0, 4, 2)
        assert r.area() == 8.0 and r.margin() == 6.0

    def test_corners_ccw(self):
        c = Rect(0, 0, 1, 2).corners()
        assert c == (Point(0, 0), Point(1, 0), Point(1, 2), Point(0, 2))

    def test_union(self):
        assert Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3)) == Rect(0, 0, 3, 3)

    def test_intersection_area(self):
        assert Rect(0, 0, 2, 2).intersection_area(Rect(1, 1, 3, 3)) == 1.0
        assert Rect(0, 0, 1, 1).intersection_area(Rect(2, 2, 3, 3)) == 0.0

    def test_contains_rect(self):
        assert Rect(0, 0, 10, 10).contains_rect(Rect(1, 1, 2, 2))
        assert not Rect(0, 0, 10, 10).contains_rect(Rect(5, 5, 11, 6))

    def test_enlargement(self):
        assert Rect(0, 0, 1, 1).enlargement(Rect(0, 0, 2, 1)) == 1.0

    def test_expanded(self):
        assert Rect(1, 1, 2, 2).expanded(1) == Rect(0, 0, 3, 3)


class TestRectDistances:
    def test_mindist_point_inside_zero(self):
        assert Rect(0, 0, 2, 2).mindist_point(1, 1) == 0.0

    def test_mindist_point_outside(self):
        assert Rect(0, 0, 2, 2).mindist_point(5, 6) == 5.0

    def test_maxdist_point(self):
        assert Rect(0, 0, 3, 4).maxdist_point(0, 0) == 5.0

    def test_mindist_rect_overlapping_zero(self):
        assert Rect(0, 0, 2, 2).mindist_rect(Rect(1, 1, 3, 3)) == 0.0

    def test_mindist_rect_diagonal(self):
        assert Rect(0, 0, 1, 1).mindist_rect(Rect(4, 5, 6, 7)) == 5.0

    def test_mindist_segment_crossing_zero(self):
        assert Rect(0, 0, 2, 2).mindist_segment(-1, 1, 3, 1) == 0.0

    def test_mindist_segment_parallel(self):
        assert math.isclose(Rect(0, 0, 2, 2).mindist_segment(0, 5, 2, 5), 3.0)

    def test_mindist_segment_endpoint_inside_zero(self):
        assert Rect(0, 0, 2, 2).mindist_segment(1, 1, 9, 9) == 0.0

    @given(rects(), coord, coord, coord, coord)
    # Crosses the rectangle 2**-23 inside its top edge: near-collinear
    # with it, so only clipping (not the edge tests) sees the crossing.
    @example(Rect(-40.0, -1.0, 0.0, 0.0), -160.0, -2.0 ** -23, 1.0,
             -2.0 ** -23)
    def test_mindist_segment_lower_bounds_samples(self, r, ax, ay, bx, by):
        """mindist(rect, seg) must lower-bound the distance from any sample
        of the segment to the rect — the property the R-tree scan relies on."""
        if math.hypot(bx - ax, by - ay) < 1e-9:
            return
        md = r.mindist_segment(ax, ay, bx, by)
        for f in (0.0, 0.25, 0.5, 0.75, 1.0):
            px = ax + f * (bx - ax)
            py = ay + f * (by - ay)
            assert md <= r.mindist_point(px, py) + 1e-7


class TestSegment:
    def test_length(self):
        assert Segment(0, 0, 3, 4).length == 5.0

    def test_point_at_clamps(self):
        s = Segment(0, 0, 10, 0)
        assert s.point_at(-5) == Point(0, 0)
        assert s.point_at(99) == Point(10, 0)
        assert s.point_at(5) == Point(5, 0)

    def test_param_of_projection(self):
        s = Segment(0, 0, 10, 0)
        assert s.param_of(3, 7) == 3.0
        assert s.param_of(-2, 0) == -2.0

    def test_param_clamped(self):
        s = Segment(0, 0, 10, 0)
        assert s.param_clamped(-2, 0) == 0.0
        assert s.param_clamped(12, 0) == 10.0

    def test_dist_point(self):
        assert Segment(0, 0, 10, 0).dist_point(5, 3) == 3.0

    def test_direction_unit(self):
        d = Segment(0, 0, 3, 4).direction()
        assert math.isclose(d.norm(), 1.0)

    def test_degenerate_direction_raises(self):
        import pytest

        with pytest.raises(ZeroDivisionError):
            Segment(1, 1, 1, 1).direction()

    def test_line_intersection_param(self):
        s = Segment(0, 0, 10, 0)
        t = s.line_intersection_param(5, -1, 5, 1)
        assert t is not None and math.isclose(t, 5.0)

    def test_line_intersection_parallel_none(self):
        s = Segment(0, 0, 10, 0)
        assert s.line_intersection_param(0, 1, 10, 1) is None

    def test_reversed(self):
        assert Segment(1, 2, 3, 4).reversed() == Segment(3, 4, 1, 2)

    def test_bbox(self):
        assert Segment(3, 1, 0, 5).bbox() == (0, 1, 3, 5)

    def test_is_degenerate(self):
        assert Segment(1, 1, 1, 1).is_degenerate()
        assert not Segment(0, 0, 1, 0).is_degenerate()

    @given(segments(), st.floats(min_value=0, max_value=1))
    def test_point_at_on_segment(self, s, f):
        if s.is_degenerate():
            return
        p = s.point_at(f * s.length)
        assert s.dist_point(p.x, p.y) <= 1e-6

    @given(segments(), coord, coord)
    def test_param_clamped_minimizes_distance(self, s, px, py):
        if s.is_degenerate():
            return
        t = s.param_clamped(px, py)
        best = s.point_at(t)
        d_best = math.hypot(px - best.x, py - best.y)
        for f in (0.0, 0.33, 0.66, 1.0):
            other = s.point_at(f * s.length)
            assert d_best <= math.hypot(px - other.x, py - other.y) + 1e-6
