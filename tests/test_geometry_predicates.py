"""Tests for scalar geometric predicates (orientation, crossing, clipping)."""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    Rect,
    clip_segment_to_rect,
    line_line_intersection,
    orient_sign,
    point_in_triangle,
    point_seg_dist,
    seg_seg_dist,
    segment_crosses_rect_interior,
    segments_intersect,
    segments_properly_cross,
)

coord = st.floats(min_value=-1000, max_value=1000, allow_nan=False,
                  allow_infinity=False)


class TestOrientation:
    def test_left_turn_positive(self):
        assert orient_sign(0, 0, 1, 0, 1, 1) == 1

    def test_right_turn_negative(self):
        assert orient_sign(0, 0, 1, 0, 1, -1) == -1

    def test_collinear_zero(self):
        assert orient_sign(0, 0, 1, 1, 2, 2) == 0

    def test_near_collinear_with_large_coordinates(self):
        # At coordinates ~1e4 the raw determinant can be ~1e-8 by rounding;
        # the scaled tolerance must classify this as collinear.
        assert orient_sign(0, 0, 9000, 9000, 4500.0000000001, 4500) == 0


class TestProperCrossing:
    def test_plain_cross(self):
        assert segments_properly_cross(0, 0, 2, 2, 0, 2, 2, 0)

    def test_shared_endpoint_not_proper(self):
        assert not segments_properly_cross(0, 0, 2, 2, 2, 2, 3, 0)

    def test_t_junction_not_proper(self):
        # Endpoint of one segment lies in the interior of the other.
        assert not segments_properly_cross(0, 0, 2, 0, 1, 0, 1, 5)

    def test_collinear_overlap_not_proper(self):
        assert not segments_properly_cross(0, 0, 2, 0, 1, 0, 3, 0)

    def test_disjoint(self):
        assert not segments_properly_cross(0, 0, 1, 0, 0, 1, 1, 1)


class TestSegmentsIntersect:
    def test_proper_cross_intersects(self):
        assert segments_intersect(0, 0, 2, 2, 0, 2, 2, 0)

    def test_touching_endpoint_intersects(self):
        assert segments_intersect(0, 0, 1, 1, 1, 1, 2, 0)

    def test_collinear_overlap_intersects(self):
        assert segments_intersect(0, 0, 2, 0, 1, 0, 3, 0)

    def test_collinear_disjoint(self):
        assert not segments_intersect(0, 0, 1, 0, 2, 0, 3, 0)

    def test_parallel_disjoint(self):
        assert not segments_intersect(0, 0, 1, 0, 0, 1, 1, 1)

    def test_banded_zero_orientation_is_not_opposite_side(self):
        # A rectangle's bottom edge lying ~3000 units past the end of a
        # near-collinear query: the orientation signs come out
        # (o1, o2, o3, o4) = (0, 1, 0, -1), which must not read as a
        # crossing; the touching branches reject it on extent.
        edge = (3739.435058549558, 1048.399006915313,
                4704.308073263833, 1048.399006915313)
        query = (-8530.154030879157, 1048.399005915313,
                 730.2454370071664, 1048.399015915313)
        signs = (orient_sign(*edge, *query[:2]), orient_sign(*edge, *query[2:]),
                 orient_sign(*query, *edge[:2]), orient_sign(*query, *edge[2:]))
        assert signs == (0, 1, 0, -1)
        assert not segments_intersect(*edge, *query)
        rect = Rect(3739.435058549558, 1048.399006915313,
                    4704.308073263833, 1643.2428195759999)
        assert math.isclose(rect.mindist_segment(*query),
                            math.hypot(edge[0] - query[2], edge[1] - query[3]))


class TestDistances:
    def test_point_seg_projects_inside(self):
        assert math.isclose(point_seg_dist(1, 1, 0, 0, 2, 0), 1.0)

    def test_point_seg_clamps_to_endpoint(self):
        assert math.isclose(point_seg_dist(-3, 4, 0, 0, 2, 0), 5.0)

    def test_point_degenerate_segment(self):
        assert math.isclose(point_seg_dist(3, 4, 0, 0, 0, 0), 5.0)

    def test_seg_seg_crossing_is_zero(self):
        assert seg_seg_dist(0, 0, 2, 2, 0, 2, 2, 0) == 0.0

    def test_seg_seg_parallel(self):
        assert math.isclose(seg_seg_dist(0, 0, 2, 0, 0, 3, 2, 3), 3.0)

    @given(coord, coord, coord, coord, coord, coord)
    def test_point_seg_dist_below_endpoint_distances(self, px, py, ax, ay, bx, by):
        d = point_seg_dist(px, py, ax, ay, bx, by)
        assert d <= math.hypot(px - ax, py - ay) + 1e-9
        assert d <= math.hypot(px - bx, py - by) + 1e-9


class TestClipping:
    def test_fully_inside(self):
        assert clip_segment_to_rect(1, 1, 2, 2, 0, 0, 3, 3) == (0.0, 1.0)

    def test_fully_outside(self):
        assert clip_segment_to_rect(5, 5, 6, 6, 0, 0, 3, 3) is None

    def test_crossing_clip_params(self):
        t = clip_segment_to_rect(-1, 1, 3, 1, 0, 0, 2, 2)
        assert t is not None
        t0, t1 = t
        assert math.isclose(t0, 0.25) and math.isclose(t1, 0.75)

    def test_parallel_miss(self):
        assert clip_segment_to_rect(-1, 5, 3, 5, 0, 0, 2, 2) is None


class TestRectInteriorCrossing:
    def test_straight_through(self):
        assert segment_crosses_rect_interior(-1, 1, 3, 1, 0, 0, 2, 2)

    def test_along_edge_does_not_block(self):
        assert not segment_crosses_rect_interior(0, 0, 2, 0, 0, 0, 2, 2)

    def test_corner_touch_does_not_block(self):
        assert not segment_crosses_rect_interior(-1, -1, 1, 1, 1, 1, 3, 3)

    def test_degenerate_rect_never_blocks(self):
        assert not segment_crosses_rect_interior(-1, 1, 3, 1, 0, 1, 2, 1)

    def test_endpoint_on_boundary_entering(self):
        # Starts on the boundary and dives inside: blocked.
        assert segment_crosses_rect_interior(0, 1, 2, 1, 0, 0, 4, 4)

    def test_chord_between_corners(self):
        # Diagonal chord through the interior between two corners: blocked.
        assert segment_crosses_rect_interior(0, 0, 2, 2, 0, 0, 2, 2)


class TestTriangleAndLines:
    def test_point_inside_triangle(self):
        assert point_in_triangle(1, 0.5, 0, 0, 2, 0, 1, 2)

    def test_point_on_edge_counts_inside(self):
        assert point_in_triangle(1, 0, 0, 0, 2, 0, 1, 2)

    def test_point_outside_triangle(self):
        assert not point_in_triangle(3, 3, 0, 0, 2, 0, 1, 2)

    def test_line_intersection_params(self):
        hit = line_line_intersection(0, 0, 2, 0, 1, -1, 1, 1)
        assert hit is not None
        t, u = hit
        assert math.isclose(t, 0.5) and math.isclose(u, 0.5)

    def test_parallel_lines_none(self):
        assert line_line_intersection(0, 0, 1, 0, 0, 1, 1, 1) is None
