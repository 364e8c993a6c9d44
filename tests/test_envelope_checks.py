"""Properties of the envelope's check and evaluation methods.

CPLC skips a challenger merge whenever
``PiecewiseDistance.dominates_challenger`` says it would be a no-op, so
the check must be *sound*: every True must mean ``merge_min`` leaves the
envelope exactly as it was.  The other inspection methods are checked
against the per-piece values they summarize.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PiecewiseDistance
from repro.geometry import IntervalSet, Segment

Q = Segment(0.0, 0.0, 100.0, 0.0)
TS = np.linspace(0.0, 100.0, 173)

coord = st.floats(min_value=-150.0, max_value=150.0, allow_nan=False,
                  allow_infinity=False)
base = st.floats(min_value=0.0, max_value=200.0, allow_nan=False,
                 allow_infinity=False)
nudge = st.one_of(st.just(0.0), st.floats(min_value=-5.0, max_value=5.0))


@st.composite
def distance_functions(draw, owner):
    cp = (draw(coord), draw(coord))
    b = draw(base)
    if draw(st.booleans()):
        lo = draw(st.floats(min_value=0, max_value=90))
        hi = draw(st.floats(min_value=lo + 1.0, max_value=100))
        region = IntervalSet([(lo, hi)])
    else:
        region = IntervalSet.full(0.0, Q.length)
    return PiecewiseDistance.from_region(Q, region, cp, b, owner)


@st.composite
def envelopes(draw, min_fns=1, max_fns=9):
    """A merged envelope, possibly with unknown spans."""
    k = draw(st.integers(min_value=min_fns, max_value=max_fns))
    env = PiecewiseDistance.unknown(Q)
    for i in range(k):
        env, _, _ = env.merge_min(draw(distance_functions(i)))
    return env


@st.composite
def regions(draw):
    spans = []
    cursor = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        lo = cursor + draw(st.floats(min_value=0.0, max_value=30.0))
        hi = lo + draw(st.floats(min_value=0.5, max_value=40.0))
        if lo >= 100.0:
            break
        spans.append((lo, min(hi, 100.0)))
        cursor = hi + 0.5
    return IntervalSet(spans if spans else [(0.0, 100.0)])


def assert_merge_is_noop(env, region, cp, b):
    challenger = PiecewiseDistance.from_region(Q, region, cp, b, "z")
    win, _, changed = env.merge_min(challenger)
    assert not changed
    assert win.pieces == env.pieces


class TestDominanceSoundness:
    @given(envelopes(), regions(), coord, coord, base)
    @settings(max_examples=300, deadline=None)
    def test_dominated_challenger_merge_is_noop(self, env, region, cx, cy, b):
        if env.dominates_challenger(region, (cx, cy), b):
            assert_merge_is_noop(env, region, (cx, cy), b)

    @given(envelopes(), regions(), st.integers(min_value=0, max_value=50),
           nudge, nudge, nudge)
    @settings(max_examples=300, deadline=None)
    def test_near_incumbent_challenger_merge_is_noop(self, env, region, k,
                                                     dx, dy, db):
        # Adversarial: the challenger reuses an incumbent piece's control
        # point and base, or nudges them, so the bound and the incumbent
        # tie exactly or nearly on that piece.
        finite = [p for p in env.pieces if p.cp is not None]
        if not finite:
            return
        p = finite[k % len(finite)]
        cp = (p.cp[0] + dx, p.cp[1] + dy)
        b = max(p.base + db, 0.0)
        if env.dominates_challenger(region, cp, b):
            assert_merge_is_noop(env, region, cp, b)

    def test_far_challenger_is_dominated(self):
        # The property above is not vacuous: a challenger far behind the
        # envelope is dominated everywhere, one ahead of it nowhere.
        env = PiecewiseDistance.unknown(Q)
        for i, x in enumerate((10.0, 40.0, 75.0)):
            f = PiecewiseDistance.from_region(
                Q, IntervalSet.full(0.0, Q.length), (x, 5.0), 1.0, i)
            env, _, _ = env.merge_min(f)
        region = IntervalSet([(20.0, 60.0)])
        assert env.dominates_challenger(region, (50.0, 80.0), 10.0)
        assert_merge_is_noop(env, region, (50.0, 80.0), 10.0)
        assert not env.dominates_challenger(region, (30.0, 0.0), 0.0)

    def test_unknown_overlap_is_not_dominated(self):
        env = PiecewiseDistance.from_region(
            Q, IntervalSet([(0.0, 50.0)]), (25.0, 5.0), 0.0, "a")
        assert not env.dominates_challenger(
            IntervalSet([(40.0, 60.0)]), (25.0, 90.0), 500.0)


class TestEndpointMaximum:
    @given(envelopes())
    @settings(max_examples=100, deadline=None)
    def test_equals_max_over_piece_endpoints(self, env):
        if any(p.cp is None for p in env.pieces):
            want = math.inf
        else:
            want = max(max(p.value_at(Q, p.lo), p.value_at(Q, p.hi))
                       for p in env.pieces)
        assert env.max_endpoint_value() == want


class TestValues:
    @given(envelopes())
    @settings(max_examples=80, deadline=None)
    def test_values_match_pointwise_value(self, env):
        got = env.values(TS)
        want = np.array([env.value(float(t)) for t in TS])
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        assert np.allclose(got[fin], want[fin], rtol=0.0, atol=1e-9)
        # Any array shape evaluates elementwise.
        assert np.array_equal(env.values(TS.reshape(1, -1)).ravel(), got)


class TestReplaceSpan:
    def test_splice_evaluates_patch_and_flanks(self):
        env = PiecewiseDistance.unknown(Q)
        for i, (x, b) in enumerate([(10.0, 1.0), (35.0, 2.0), (60.0, 0.5),
                                    (80.0, 3.0), (20.0, 1.5), (50.0, 0.2),
                                    (70.0, 2.5), (90.0, 1.1)]):
            f = PiecewiseDistance.from_region(
                Q, IntervalSet.full(0.0, Q.length), (x, 5.0), b, i)
            env, _, _ = env.merge_min(f)
        sub = Segment(30.0, 0.0, 70.0, 0.0)
        patch = PiecewiseDistance.from_region(
            sub, IntervalSet.full(0.0, sub.length), (50.0, 1.0), 0.0, "new")
        spliced = env.replace_span(30.0, 70.0, patch)
        spliced.assert_partition()
        # The splice region evaluates as the patch, the flanks as before.
        assert spliced.value(50.0) == pytest.approx(1.0)
        assert spliced.value(5.0) == env.value(5.0)
        assert spliced.value(95.0) == env.value(95.0)


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
