"""Brute-force references the visibility-graph suites check against.

Deliberately naive, and independent of the production graph's code paths:

* a **row** is one :func:`~repro.geometry.vectorized.visibility_mask` call
  from the node to every other alive node (permanent nodes and bound
  transients alike) over the graph's current obstacles, weighted with
  ``math.hypot`` — no batching across rows, no cached rows, no repair,
  no transient cells;
* **shortest paths** come from ``networkx.single_source_dijkstra_path_length``
  over those rows.

Rows must match bit for bit (the production paths all weight edges with
``math.hypot`` too); distances must match within ``abs_tol=1e-9``, and every
predecessor ``p`` of a settled node ``v`` must satisfy ``dist[p] + w(p, v)
== dist[v]`` exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.geometry.vectorized import visibility_mask

SettledEntry = Tuple[float, int, Optional[int]]


def reference_row(graph, node: int) -> Dict[int, float]:
    """``{neighbor: weight}`` of ``node`` from a brute-force sight test."""
    x, y = graph._xy[node]
    others = [i for i in graph._alive_ids() if i != node]
    if not others:
        return {}
    targets = np.asarray([graph._xy[i] for i in others], dtype=np.float64)
    obs = graph.obstacles
    visible = visibility_mask(x, y, targets, obs.rects, obs.segs,
                              [p.as_array() for p in obs.polys])
    row = {}
    for i, ok in zip(others, visible.tolist()):
        if ok:
            tx, ty = graph._xy[i]
            row[i] = math.hypot(x - tx, y - ty)
    return row


def reference_graph(graph) -> nx.DiGraph:
    """The whole graph rebuilt from :func:`reference_row`."""
    g = nx.DiGraph()
    for v in graph._alive_ids():
        g.add_node(v)
        for u, w in reference_row(graph, v).items():
            g.add_edge(v, u, weight=w)
    return g


def assert_row_matches(graph, node: int,
                       row: Optional[Tuple[np.ndarray, np.ndarray]] = None
                       ) -> None:
    """``graph``'s row of ``node`` (read now unless given) equals the
    reference row: same ids, each once, with bit-equal weights."""
    idx, w = graph.row_arrays(node) if row is None else row
    ids = idx.tolist()
    assert len(set(ids)) == len(ids), f"duplicate entries in row {node}"
    assert dict(zip(ids, w.tolist())) == reference_row(graph, node), node


def assert_traversal_matches(graph, source: int,
                             settled: List[SettledEntry],
                             ref: Optional[nx.DiGraph] = None) -> None:
    """A complete, unpruned settled sequence from ``source`` is a correct
    Dijkstra run over the reference graph."""
    ref = reference_graph(graph) if ref is None else ref
    want = nx.single_source_dijkstra_path_length(ref, source)
    got = {v: d for d, v, _p in settled}
    assert len(got) == len(settled), "a node settled twice"
    assert set(got) == set(want)
    for v, d in got.items():
        assert math.isclose(d, want[v], rel_tol=0.0, abs_tol=1e-9), \
            (v, d, want[v])
    dists = [d for d, _v, _p in settled]
    assert dists == sorted(dists), "settled out of order"
    assert settled[0] == (0.0, source, None)
    for d, v, p in settled[1:]:
        assert got[p] + ref[p][v]["weight"] == d, (v, p)
