"""Vectorized predicates must agree exactly with their scalar references."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    segment_crosses_rect_interior,
    segments_properly_cross,
)
from repro.geometry.vectorized import (
    blocked_by_rects,
    blocked_by_segments,
    crosses_rect_interior,
    visibility_mask,
)

coord = st.floats(min_value=-100, max_value=100, allow_nan=False,
                  allow_infinity=False)


@st.composite
def rect_rows(draw, n: int = 8) -> np.ndarray:
    rows = []
    for _ in range(n):
        x1, x2 = sorted((draw(coord), draw(coord)))
        y1, y2 = sorted((draw(coord), draw(coord)))
        rows.append((x1, y1, x2, y2))
    return np.asarray(rows)


@st.composite
def seg_rows(draw, n: int = 8) -> np.ndarray:
    return np.asarray([(draw(coord), draw(coord), draw(coord), draw(coord))
                       for _ in range(n)])


class TestAgainstScalar:
    @given(coord, coord, coord, coord, rect_rows())
    @settings(max_examples=60)
    def test_rect_crossing_matches_scalar(self, ax, ay, bx, by, rects):
        got = blocked_by_rects(ax, ay, bx, by, rects)
        want = [segment_crosses_rect_interior(ax, ay, bx, by, *row)
                for row in rects]
        assert list(got) == want

    @given(coord, coord, coord, coord, seg_rows())
    @settings(max_examples=60)
    def test_segment_crossing_matches_scalar(self, ax, ay, bx, by, segs):
        got = blocked_by_segments(ax, ay, bx, by, segs)
        want = [segments_properly_cross(ax, ay, bx, by, *row) for row in segs]
        assert list(got) == want


class TestKnownCases:
    def test_rect_through_middle(self):
        rects = np.array([[0.0, 0.0, 2.0, 2.0]])
        assert crosses_rect_interior(-1, 1, 3, 1, *rects[0])
        assert blocked_by_rects(-1, 1, 3, 1, rects)[0]

    def test_rect_edge_graze_visible(self):
        rects = np.array([[0.0, 0.0, 2.0, 2.0]])
        assert not blocked_by_rects(0, 0, 2, 0, rects)[0]

    def test_degenerate_rect_never_blocks(self):
        rects = np.array([[0.0, 1.0, 2.0, 1.0]])
        assert not blocked_by_rects(-1, 1, 3, 1, rects)[0]

    def test_vertical_sight_line(self):
        rects = np.array([[0.0, 0.0, 2.0, 2.0]])
        assert blocked_by_rects(1, -1, 1, 3, rects)[0]
        assert not blocked_by_rects(5, -1, 5, 3, rects)[0]

    def test_proper_cross_array(self):
        segs = np.array([[0.0, 2.0, 2.0, 0.0], [5.0, 5.0, 6.0, 6.0]])
        got = blocked_by_segments(0, 0, 2, 2, segs)
        assert got.tolist() == [True, False]

    def test_empty_obstacle_arrays(self):
        empty = np.empty((0, 4))
        assert blocked_by_rects(0, 0, 1, 1, empty).shape == (0,)
        assert blocked_by_segments(0, 0, 1, 1, empty).shape == (0,)


class TestVisibilityMask:
    def test_wall_splits_targets(self):
        rects = np.array([[4.0, -10.0, 6.0, 10.0]])
        segs = np.empty((0, 4))
        targets = np.array([[2.0, 0.0], [10.0, 0.0], [5.0, 20.0]])
        mask = visibility_mask(0.0, 0.0, targets, rects, segs)
        assert mask.tolist() == [True, False, True]

    def test_no_obstacles_all_visible(self):
        targets = np.array([[1.0, 1.0], [2.0, 2.0]])
        mask = visibility_mask(0, 0, targets, np.empty((0, 4)), np.empty((0, 4)))
        assert mask.all()

    def test_empty_targets(self):
        mask = visibility_mask(0, 0, np.empty((0, 2)), np.empty((0, 4)),
                               np.empty((0, 4)))
        assert mask.shape == (0,)
