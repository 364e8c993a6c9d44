"""The one batched sight-line test, ``blocked_batch``, against a scalar one.

Contract under test:

* **Decisions** — on mixed rectangle / segment / padded-polygon scenes
  the mask equals :func:`tests.reference.blocked_pairs` (one scalar
  ``ObstacleSet.blocked`` call per sight line), both with chunks so small
  that every kind runs many early-terminating chunks and at the default
  size, where every kind fits one pass.  Zero sight lines, absent kinds,
  coincident endpoints and sight lines ending on obstacle vertices are
  drawn too.
* **Accounting** — a launch evaluates at most ``M x primitives`` pairs,
  and early termination never evaluates more than one pass does.  The
  graph's launch site, ``LocalVisibilityGraph._blocked_bulk``, counts
  each launch once with ``tested + pruned == M x primitives``, also for
  a ``since`` slice, which tests only the obstacles past the watermark.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import vectorized
from repro.geometry.vectorized import blocked_batch, primitive_bounds
from repro.obstacles import LocalVisibilityGraph, ObstacleSet, SegmentObstacle
from tests.reference import blocked_pairs
from tests.test_polygon_slab import mixed_scene

CHUNKS = {"tiny-chunks": 4, "one-pass": vectorized.BATCH_TILE_ELEMS}


def scene(rng: random.Random, n: int, drop):
    """``n`` obstacles cycling rect / segment / polygon, minus kind ``drop``."""
    return [o for i, o in enumerate(mixed_scene(rng, n)) if i % 3 != drop]


def sight_lines(rng: random.Random, obstacles, m: int):
    """``m`` sight lines between random points and obstacle vertices;
    about one in ten has coincident endpoints."""
    corners = [tuple(p) for o in obstacles for p in o.vertices()]

    def endpoint():
        if corners and rng.random() < 0.4:
            return rng.choice(corners)
        return (rng.uniform(0, 100), rng.uniform(0, 100))

    src = [endpoint() for _ in range(m)]
    tgt = [s if rng.random() < 0.1 else endpoint() for s in src]
    return (np.asarray(src, dtype=np.float64).reshape(m, 2),
            np.asarray(tgt, dtype=np.float64).reshape(m, 2))


def launch_args(oset: ObstacleSet):
    rects, segs, slab = oset.rects, oset.segs, oset.poly_slab
    return rects, segs, slab, primitive_bounds(rects, segs, slab)


@pytest.mark.parametrize("chunk", CHUNKS.values(), ids=CHUNKS.keys())
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=0, max_value=40),
       drop=st.sampled_from([None, 0, 1, 2]),
       m=st.integers(min_value=0, max_value=120))
@settings(max_examples=25, deadline=None)
def test_matches_scalar_reference(chunk, seed, n, drop, m):
    rng = random.Random(seed)
    obstacles = scene(rng, n, drop)
    oset = ObstacleSet(obstacles)
    src, tgt = sight_lines(rng, obstacles, m)
    args = launch_args(oset)
    with mock.patch.object(vectorized, "BATCH_TILE_ELEMS", chunk):
        got, tested = blocked_batch(src, tgt, *args)
    assert got.dtype == bool and got.shape == (m,)
    assert got.tolist() == blocked_pairs(oset, src, tgt)
    assert 0 <= tested <= m * len(obstacles)
    _mask, one_pass = blocked_batch(src, tgt, *args)
    assert tested <= one_pass


def test_zero_sight_lines():
    oset = ObstacleSet(scene(random.Random(1), 9, None))
    empty = np.empty((0, 2))
    got, tested = blocked_batch(empty, empty, *launch_args(oset))
    assert got.shape == (0,) and tested == 0


def test_early_termination_drops_blocked_lines():
    """Thirty walls cross every sight line: the first chunk decides all
    of them, so later chunks evaluate nothing."""
    walls = [SegmentObstacle(10.0 + 2.5 * i, 0.0, 10.0 + 2.5 * i, 100.0)
             for i in range(30)]
    oset = ObstacleSet(walls)
    ys = np.linspace(5.0, 95.0, 50)
    src = np.stack([np.zeros(50), ys], axis=1)
    tgt = np.stack([np.full(50, 100.0), ys[::-1]], axis=1)
    args = launch_args(oset)
    with mock.patch.object(vectorized, "BATCH_TILE_ELEMS", 4):
        got, tested = blocked_batch(src, tgt, *args)
    assert got.all() and tested == 50 * 8
    got, tested = blocked_batch(src, tgt, *args)
    assert got.all() and tested == 50 * 30


@pytest.mark.parametrize("chunk", CHUNKS.values(), ids=CHUNKS.keys())
@given(seed=st.integers(min_value=0, max_value=10_000),
       m=st.integers(min_value=0, max_value=80))
@settings(max_examples=15, deadline=None)
def test_since_slice_tests_only_later_obstacles(chunk, seed, m):
    rng = random.Random(seed)
    obstacles = scene(rng, 24, None)
    k = rng.randrange(len(obstacles) + 1)
    g = LocalVisibilityGraph(None)
    g.add_obstacles(obstacles[:k])
    since = g._row_mark()[:3]
    g.add_obstacles(obstacles[k:])
    src, tgt = sight_lines(rng, obstacles, m)
    work = g.work
    calls = work.batch_visibility_calls
    pairs = work.batched_edges_tested + work.kernel_pruned_edges
    with mock.patch.object(vectorized, "BATCH_TILE_ELEMS", chunk):
        got = g._blocked_bulk(src, tgt, since)
    assert got.tolist() == blocked_pairs(ObstacleSet(obstacles[k:]),
                                         src, tgt)
    assert work.batch_visibility_calls == calls + 1
    assert (work.batched_edges_tested + work.kernel_pruned_edges
            == pairs + m * (len(obstacles) - k))
    assert work.visibility_tests == work.batched_edges_tested
