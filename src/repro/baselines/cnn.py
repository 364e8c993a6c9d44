"""Euclidean continuous (k-)nearest-neighbor baseline (no obstacles).

The classic CNN query of Tao, Papadias & Shen (VLDB 2002) that Figure 1(a)
of the paper illustrates: one best-first traversal of the data R*-tree in
ascending ``mindist`` to the query segment, maintaining the exact minimum
envelope of the candidates' Euclidean distance functions.  Reuses the CONN
engine's envelope machinery with every candidate being its own control point
at base 0 — in an obstacle-free world the control point list of a point is
just the point itself over all of ``q``.

Serves two purposes: the Figure-1-style CNN-vs-CONN comparisons in the
examples, and the degenerate-case check ``CONN(O = {}) == CNN``.
"""

from __future__ import annotations

import math

from ..geometry.interval import IntervalSet
from ..geometry.predicates import EPS
from ..geometry.segment import Segment
from ..index.nearest import nearest_to_segment
from ..index.rstar import RStarTree
from ..core.config import DEFAULT_CONFIG, ConnConfig
from ..core.distance_function import PiecewiseDistance
from ..core.engine import ConnResult, KEnvelope
from ..core.stats import QueryStats, charge_run


def cknn_euclidean(data_tree: RStarTree, query: Segment, k: int = 1,
                   config: ConnConfig = DEFAULT_CONFIG) -> ConnResult:
    """Continuous Euclidean k-NN along ``query``.

    Returns the same :class:`~repro.core.engine.ConnResult` shape as
    :func:`~repro.core.conn.coknn`, so downstream code can compare the two
    directly (split points, tuples, distance functions).
    """
    if query.is_degenerate():
        raise ValueError("query segment is degenerate")
    stats = QueryStats()
    env = KEnvelope(query, k)
    full = IntervalSet.full(0.0, query.length)
    with charge_run(stats, None, (data_tree.tracker,)):
        scan = nearest_to_segment(data_tree, query.ax, query.ay,
                                  query.bx, query.by)
        while True:
            key = scan.peek_key()
            if math.isinf(key):
                break
            if config.use_rlmax and key > env.rlmax() + EPS:
                break
            _d, payload, rect = scan.pop()
            stats.npe += 1
            cx, cy = rect.center()
            candidate = PiecewiseDistance.from_region(query, full, (cx, cy),
                                                      0.0, payload)
            env.insert(candidate, config, stats)
    return ConnResult(query, k, env.levels, stats)


def cnn_euclidean(data_tree: RStarTree, query: Segment,
                  config: ConnConfig = DEFAULT_CONFIG) -> ConnResult:
    """Continuous Euclidean NN (k = 1) along ``query``."""
    return cknn_euclidean(data_tree, query, k=1, config=config)
