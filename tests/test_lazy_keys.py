"""Lazy best-first segment keys.

Segment-keyed scans push the cheap MBR-gap bound
(:func:`~repro.geometry.rectangle.segment_mindist_lower`) and compute the
exact ``Rect.mindist_segment`` key only for entries that reach the heap
head.  Three promises are pinned here:

* the bound never exceeds the computed exact key, over adversarial
  near-collinear inputs at coordinates up to 1e7;
* a lazy :class:`~repro.index.nearest.IncrementalNearest` yields exactly
  the eager scan's ``(key, payload)`` sequence and page-access order under
  interleaved ``peek_key`` / ``pop`` with early stops;
* :meth:`ObstacleCache.ranked` reads exactly like the eagerly sorted
  ``(key, index)`` list, in any read order.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import EPS, Rect, Segment
from repro.geometry.rectangle import segment_mindist_lower
from repro.index import IncrementalNearest, RStarTree, nearest_to_segment
from repro.obstacles import RectObstacle, SegmentObstacle
from repro.service.cache import ObstacleCache


# --------------------------------------------------------------- the bound
@st.composite
def segment_and_rect(draw):
    """A query segment and a rectangle placed to stress the bound.

    Segments run anywhere (or nearly axis-parallel, so rectangle edges can
    be near-collinear with them) with lengths from 1e-7 to a tenth of the
    coordinate scale.  Rectangles are points or thin/wide boxes whose edge
    sits at a relative offset 1e-12..1e-2 from the segment's supporting
    line (or straddles the orientation test's collinearity band), anywhere
    from before its start to past its end, or free boxes.
    """
    scale = draw(st.sampled_from([1.0, 1e2, 1e4, 1e7]))
    coord = st.floats(min_value=-scale, max_value=scale)
    ax, ay = draw(coord), draw(coord)
    length = 10.0 ** draw(st.floats(min_value=-7.0,
                                    max_value=math.log10(scale / 10.0)))
    if draw(st.booleans()):
        tilt = 10.0 ** draw(st.floats(min_value=-14.0, max_value=-8.0))
        theta = (draw(st.integers(min_value=0, max_value=3)) * math.pi / 2
                 + tilt * draw(st.sampled_from([-1.0, 0.0, 1.0])))
    else:
        theta = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    bx = ax + length * math.cos(theta)
    by = ay + length * math.sin(theta)
    shape = draw(st.sampled_from(["point", "edge", "free"]))
    if shape == "free":
        x0, x1 = sorted((draw(coord), draw(coord)))
        y0, y1 = sorted((draw(coord), draw(coord)))
        return (ax, ay, bx, by), Rect(x0, y0, x1, y1)
    t = draw(st.floats(min_value=-2.0, max_value=3.0))
    px, py = ax + t * (bx - ax), ay + t * (by - ay)
    sign = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    if draw(st.booleans()):
        off = sign * scale * 10.0 ** draw(st.floats(min_value=-12.0,
                                                    max_value=-2.0))
    else:
        # Straddle the orientation test's collinearity band, whose width
        # grows with the distance from the segment's start.
        off = (sign * EPS * max(abs(t), 1.0) * length
               * draw(st.floats(min_value=0.1, max_value=10.0)))
    if shape == "point":
        nx, ny = -math.sin(theta), math.cos(theta)
        return (ax, ay, bx, by), Rect.point(px + off * nx, py + off * ny)
    # An edge near-collinear with the segment: the rectangle's side along
    # the segment's dominant axis sits ``off`` away from the line.
    w = scale * 10.0 ** draw(st.floats(min_value=-9.0, max_value=-1.0))
    h = scale * 10.0 ** draw(st.floats(min_value=-9.0, max_value=-1.0))
    f = draw(st.floats(min_value=0.0, max_value=1.0))
    side = draw(st.sampled_from([-1.0, 1.0]))
    if abs(bx - ax) >= abs(by - ay):
        y_edge = py + off
        lo, hi = sorted((y_edge, y_edge + side * h))
        return (ax, ay, bx, by), Rect(px - f * w, lo, px + (1 - f) * w, hi)
    x_edge = px + off
    lo, hi = sorted((x_edge, x_edge + side * h))
    return (ax, ay, bx, by), Rect(lo, py - f * w, hi, py + (1 - f) * w)


@given(case=segment_and_rect())
@settings(max_examples=400, deadline=None)
def test_lower_bound_never_exceeds_exact_key(case):
    (ax, ay, bx, by), r = case
    exact = r.mindist_segment(ax, ay, bx, by)
    lower = segment_mindist_lower(ax, ay, bx, by)(r)
    assert lower <= exact


def test_lower_bound_on_near_collinear_far_edge():
    """The banded-orientation case that made the exact key 0 before the
    strict-crossing fix: the bound must stay below the (now right) key."""
    r = Rect(3739.435058549558, 1048.399006915313,
             4704.308073263833, 1643.2428195759999)
    q = (-8530.154030879157, 1048.399005915313,
         730.2454370071664, 1048.399015915313)
    exact = r.mindist_segment(*q)
    assert math.isclose(exact, 3009.19, abs_tol=0.01)
    lower = segment_mindist_lower(*q)(r)
    assert exact - 1e-6 < lower <= exact


def test_lower_bound_is_the_mbr_gap_less_a_tiny_slack():
    r = Rect(10.0, 10.0, 12.0, 11.0)
    lower = segment_mindist_lower(0.0, 0.0, 4.0, 2.0)(r)
    assert 0.0 < math.hypot(6.0, 8.0) - lower < 1e-8
    # Touching or crossing rectangles bound at (just below) zero.
    assert segment_mindist_lower(11.0, 0.0, 11.0, 20.0)(r) <= 0.0


# -------------------------------------------------------- scan parity
def _random_tree(rng: random.Random, near: Segment) -> RStarTree:
    """Points and boxes, some exactly on or hugging the query line (tied
    and zero keys) and some duplicated, in a multi-level tree."""
    t = RStarTree(page_size=256)
    for i in range(rng.randrange(40, 160)):
        roll = rng.random()
        if roll < 0.2:
            s = rng.uniform(-0.5, 1.5)
            x = near.ax + s * (near.bx - near.ax)
            y = near.ay + s * (near.by - near.ay) + rng.choice(
                [0.0, 1e-9, -1e-7, 1e-3])
            t.insert_point(i, x, y)
        elif roll < 0.6:
            t.insert_point(i, rng.uniform(0, 100), rng.uniform(0, 100))
        else:
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            t.insert(i, Rect(x, y, x + rng.uniform(0, 8),
                             y + rng.uniform(0, 8)))
        if rng.random() < 0.05:
            t.insert_point(-i - 1, 50.0, 50.0)
    return t


def _drive(tree: RStarTree, scan, ops):
    """Run ``ops`` ("peek" / "pop") on ``scan``; record outputs and the
    page ids the scan read, in order."""
    reads = []
    tracker = tree.tracker
    plain = tracker.access
    tracker.access = lambda pid: (reads.append(pid), plain(pid))[1]
    try:
        out = []
        for op in ops:
            if op == "peek":
                out.append(("peek", scan.peek_key()))
            else:
                item = scan.pop()
                out.append(("pop", None) if item is None
                           else ("pop", item[0], item[1], item[2]))
    finally:
        del tracker.access
    return out, reads


@given(seed=st.integers(min_value=0, max_value=100_000),
       ops=st.lists(st.sampled_from(["peek", "pop", "pop"]),
                    min_size=0, max_size=200))
@settings(max_examples=60, deadline=None)
def test_lazy_scan_pops_in_eager_order(seed, ops):
    rng = random.Random(seed)
    ax, ay = rng.uniform(0, 100), rng.uniform(0, 100)
    qseg = Segment(ax, ay, ax + rng.uniform(-30, 30),
                   ay + rng.choice([0.0, 1e-9, rng.uniform(-30, 30)]))
    tree = _random_tree(rng, qseg)
    calls = {"eager": 0, "lazy": 0}

    def exact(arm):
        def key(r):
            calls[arm] += 1
            return r.mindist_segment(qseg.ax, qseg.ay, qseg.bx, qseg.by)
        return key

    eager = IncrementalNearest(tree, exact("eager"))
    lazy = IncrementalNearest(
        tree, exact("lazy"),
        lower=segment_mindist_lower(qseg.ax, qseg.ay, qseg.bx, qseg.by))
    # Run both to the same early stop (the op list's end).
    want, want_reads = _drive(tree, eager, ops)
    got, got_reads = _drive(tree, lazy, ops)
    assert got == want
    assert got_reads == want_reads
    assert calls["lazy"] <= calls["eager"]
    # nearest_to_segment is the lazy scan.
    again, again_reads = _drive(
        tree, nearest_to_segment(tree, qseg.ax, qseg.ay, qseg.bx, qseg.by),
        ops)
    assert again == want and again_reads == want_reads


def test_lazy_scan_skips_most_exact_keys_on_an_early_stop(rng):
    qseg = Segment(40.0, 40.0, 45.0, 42.0)
    tree = RStarTree(page_size=256)
    for i in range(1000):
        tree.insert_point(i, rng.uniform(0, 100), rng.uniform(0, 100))
    n = {"exact": 0}

    def exact(r):
        n["exact"] += 1
        return r.mindist_segment(qseg.ax, qseg.ay, qseg.bx, qseg.by)

    eager = IncrementalNearest(tree, exact)
    for _ in range(5):
        eager.pop()
    eager_calls, n["exact"] = n["exact"], 0
    lazy = IncrementalNearest(
        tree, exact,
        lower=segment_mindist_lower(qseg.ax, qseg.ay, qseg.bx, qseg.by))
    for _ in range(5):
        lazy.pop()
    assert n["exact"] < eager_calls / 2


# ------------------------------------------------------- cache ranking
@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_cache_ranking_reads_like_the_sorted_eager_list(seed):
    rng = random.Random(seed)
    cache = ObstacleCache(RStarTree())
    for _ in range(rng.randrange(0, 80)):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        if rng.random() < 0.3:
            cache.add(SegmentObstacle(x, y, x + rng.uniform(-10, 10),
                                      y + rng.uniform(-10, 10)))
        else:
            # Same-size boxes in a row tie on their key.
            w = rng.choice([2.0, rng.uniform(0.5, 9.0)])
            cache.add(RectObstacle(x, y, x + w, y + w))
    qseg = Segment(rng.uniform(0, 100), rng.uniform(0, 100),
                   rng.uniform(0, 100), rng.uniform(0, 100))
    keyed = sorted((o.mbr().mindist_segment(qseg.ax, qseg.ay, qseg.bx,
                                            qseg.by), i)
                   for i, o in enumerate(cache._obstacles))
    want = [(d, cache._obstacles[i]) for d, i in keyed]
    ranked = cache.ranked(qseg)
    assert len(ranked) == len(want)
    order = list(range(len(want)))
    rng.shuffle(order)
    for i in order:
        assert ranked[i] == want[i]
    assert list(ranked) == want
    # Memoized per (segment, epoch), refined prefix included.
    assert cache.ranked(qseg) is ranked
    cache.add(RectObstacle(200.0, 200.0, 201.0, 201.0))
    assert cache.ranked(qseg) is not ranked
