"""Unit and property tests for IntervalSet, the region algebra of the library."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import IntervalSet
from repro.geometry.interval import MERGE_EPS

bound = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                  allow_infinity=False)


@st.composite
def interval_sets(draw, max_intervals: int = 6) -> IntervalSet:
    n = draw(st.integers(min_value=0, max_value=max_intervals))
    ivals = []
    for _ in range(n):
        a = draw(bound)
        b = draw(bound)
        ivals.append((min(a, b), max(a, b)))
    return IntervalSet(ivals)


def assert_invariants(s: IntervalSet) -> None:
    prev_hi = None
    for lo, hi in s:
        assert hi > lo, f"non-positive interval [{lo}, {hi}]"
        if prev_hi is not None:
            assert lo > prev_hi, f"unsorted/overlapping at [{lo}, {hi}]"
        prev_hi = hi


class TestConstruction:
    def test_empty(self):
        s = IntervalSet.empty()
        assert s.is_empty() and len(s) == 0 and s.measure() == 0.0

    def test_full(self):
        s = IntervalSet.full(0.0, 10.0)
        assert s.measure() == 10.0 and len(s) == 1

    def test_full_degenerate_is_empty(self):
        assert IntervalSet.full(5.0, 5.0).is_empty()

    def test_overlapping_inputs_coalesce(self):
        s = IntervalSet([(0, 5), (3, 8), (8, 10)])
        assert len(s) == 1
        assert s.intervals == [(0, 10)]

    def test_slivers_dropped(self):
        s = IntervalSet([(1.0, 1.0 + 1e-12), (2, 3)])
        assert s.intervals == [(2, 3)]

    def test_unsorted_inputs_sorted(self):
        s = IntervalSet([(5, 6), (1, 2)])
        assert s.intervals == [(1, 2), (5, 6)]


class TestOperations:
    def test_union_disjoint(self):
        a = IntervalSet([(0, 1)])
        b = IntervalSet([(2, 3)])
        assert a.union(b).intervals == [(0, 1), (2, 3)]

    def test_union_overlapping(self):
        a = IntervalSet([(0, 2)])
        b = IntervalSet([(1, 3)])
        assert a.union(b).intervals == [(0, 3)]

    def test_intersect(self):
        a = IntervalSet([(0, 5), (7, 9)])
        b = IntervalSet([(3, 8)])
        assert a.intersect(b).intervals == [(3, 5), (7, 8)]

    def test_subtract_hole(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(3, 4)])
        assert a.subtract(b).intervals == [(0, 3), (4, 10)]

    def test_subtract_everything(self):
        a = IntervalSet([(2, 4)])
        assert a.subtract(IntervalSet([(0, 10)])).is_empty()

    def test_subtract_multiple_holes(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(1, 2), (4, 5), (9, 12)])
        assert a.subtract(b).intervals == [(0, 1), (2, 4), (5, 9)]

    def test_complement(self):
        s = IntervalSet([(2, 3)])
        assert s.complement(0, 10).intervals == [(0, 2), (3, 10)]

    def test_clipped(self):
        s = IntervalSet([(0, 10)])
        assert s.clipped(3, 5).intervals == [(3, 5)]

    def test_contains(self):
        s = IntervalSet([(1, 2), (5, 6)])
        assert s.contains(1.5) and s.contains(5.0) and s.contains(6.0)
        assert not s.contains(3.0) and not s.contains(0.0)

    def test_covers(self):
        assert IntervalSet([(0, 5), (5, 10)]).covers(0, 10)
        assert not IntervalSet([(0, 4)]).covers(0, 10)

    def test_boundaries(self):
        assert IntervalSet([(1, 2), (5, 6)]).boundaries() == [1, 2, 5, 6]

    def test_equality_tolerant(self):
        assert IntervalSet([(0, 1)]) == IntervalSet([(1e-12, 1.0)])

    def test_span(self):
        assert IntervalSet([(1, 2), (7, 9)]).span() == (1, 9)
        assert IntervalSet.empty().span() is None


class TestProperties:
    @given(interval_sets(), interval_sets())
    def test_all_operations_preserve_invariants(self, a, b):
        for s in (a.union(b), a.intersect(b), a.subtract(b)):
            assert_invariants(s)

    @given(interval_sets(), interval_sets())
    def test_union_measure_bounds(self, a, b):
        u = a.union(b)
        assert u.measure() <= a.measure() + b.measure() + 1e-6
        assert u.measure() >= max(a.measure(), b.measure()) - 1e-6

    @given(interval_sets(), interval_sets())
    def test_subtract_then_intersect_disjoint(self, a, b):
        diff = a.subtract(b)
        assert diff.intersect(b).measure() <= 1e-6

    @given(interval_sets(), interval_sets())
    def test_inclusion_exclusion(self, a, b):
        u = a.union(b)
        i = a.intersect(b)
        assert abs(u.measure() + i.measure() -
                   (a.measure() + b.measure())) <= 1e-5

    @given(interval_sets())
    def test_complement_partitions(self, a):
        c = a.clipped(0, 100)
        comp = c.complement(0, 100)
        assert abs(c.measure() + comp.measure() - 100.0) <= 1e-5
        assert c.intersect(comp).measure() <= 1e-6

    @given(interval_sets(), interval_sets(), st.floats(min_value=0, max_value=100))
    def test_membership_consistent_with_ops(self, a, b, t):
        # Zero-measure slivers are dropped by design, so stay away from the
        # interval boundaries where closed-set semantics are ambiguous.
        boundaries = a.boundaries() + b.boundaries()
        if boundaries and min(abs(t - x) for x in boundaries) < 1e-6:
            return
        in_a = a.contains(t, eps=0)
        in_b = b.contains(t, eps=0)
        if in_a and in_b:
            assert a.intersect(b).contains(t, eps=1e-7)
        if in_a or in_b:
            assert a.union(b).contains(t, eps=1e-7)
        if in_a and not in_b:
            assert a.subtract(b).contains(t, eps=1e-7)


@st.composite
def eps_edge_shadows(draw, length: float = 10.0):
    """Blocked intervals on ``[0, length]`` packed at the ``MERGE_EPS`` scale.

    Each interval starts a gap (or an overlap) of 0.3-3 ``MERGE_EPS``, or
    an ordinary gap, from the previous one's end and is 0.3-3
    ``MERGE_EPS`` or ordinarily wide, so coalescing, sliver dropping and
    exact ties all occur.  Returns ``(intervals, owner)`` with ``owner[i]``
    splitting them into two lists.
    """
    n = draw(st.integers(min_value=0, max_value=8))
    tiny = st.floats(min_value=0.3, max_value=3.0).map(lambda f: f * MERGE_EPS)
    sign = st.sampled_from([1.0, -1.0])
    cursor = draw(st.sampled_from([0.0, MERGE_EPS, 0.5 * MERGE_EPS]) |
                  st.floats(min_value=0.0, max_value=length))
    out = []
    for _ in range(n):
        gap = draw(st.builds(lambda s, g: s * g, sign, tiny) |
                   st.floats(min_value=0.0, max_value=2.0))
        width = draw(tiny | st.floats(min_value=0.0, max_value=3.0))
        lo = min(max(cursor + gap, 0.0), length)
        hi = min(lo + width, length)
        out.append((lo, hi))
        cursor = hi
    owner = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return out, owner


class TestPendingShadows:
    """Visible regions subtract all shadows filled since a node's last
    read as one ``IntervalSet``; the result may not depend on how the
    fills split that list or ordered it."""

    @given(eps_edge_shadows(), st.randoms(use_true_random=False))
    def test_subtraction_depends_only_on_the_multiset(self, drawn, rng):
        intervals, owner = drawn
        a = [iv for iv, o in zip(intervals, owner) if o]
        b = [iv for iv, o in zip(intervals, owner) if not o]
        full = IntervalSet.full(0.0, 10.0)
        once = full.subtract(IntervalSet(a + b)).intervals
        shuffled = b + a
        rng.shuffle(shuffled)
        assert full.subtract(IntervalSet(shuffled)).intervals == once
        assert_invariants(IntervalSet(once, _trusted=True))

    def test_narrowing_twice_is_not_subtracting_once(self):
        # Why fills keep shadows pending instead of narrowing early: an A
        # interval ending at h and a B interval starting at fl(h + eps)
        # coalesce in one IntervalSet, but subtracting them in turn keeps
        # the eps-wide gap between them as a region interval.
        h = 1.1928608078522345
        a, b = [(0.2, h)], [(h + MERGE_EPS, 9.5)]
        full = IntervalSet.full(0.0, 10.0)
        once = full.subtract(IntervalSet(a + b)).intervals
        twice = full.subtract(IntervalSet(a)).subtract(IntervalSet(b))
        assert once == [(0.0, 0.2), (9.5, 10.0)]
        assert twice.intervals == [(0.0, 0.2), (h, h + MERGE_EPS),
                                   (9.5, 10.0)]
