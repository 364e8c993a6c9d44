"""R*-tree disk persistence: round trips, format guarantees, error cases."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core import conn
from repro.geometry import Rect
from repro.index import RStarTree
from repro.index.storage import load_tree, save_tree
from repro.obstacles import PolygonObstacle, RectObstacle, SegmentObstacle
from tests.conftest import (
    build_obstacle_tree,
    build_point_tree,
    random_query,
    random_scene,
    same_values,
)


class TestRoundTrip:
    def test_point_tree_round_trip(self, rng, tmp_path):
        tree = RStarTree(page_size=512)
        pts = [(i, (rng.uniform(0, 100), rng.uniform(0, 100)))
               for i in range(300)]
        for i, (x, y) in pts:
            tree.insert_point(i, x, y)
        path = tmp_path / "points.rtree"
        written = save_tree(tree, path)
        assert written >= (tree.num_pages + 1) * 512
        assert written % 512 == 0
        loaded = load_tree(path)
        loaded.check_invariants()
        assert loaded.size == 300
        probe = Rect(20, 20, 60, 70)
        assert sorted(loaded.range_search(probe)) == \
            sorted(tree.range_search(probe))

    def test_structure_preserved_exactly(self, rng, tmp_path):
        tree = RStarTree(page_size=512)
        for i in range(150):
            tree.insert_point(i, rng.uniform(0, 100), rng.uniform(0, 100))
        path = tmp_path / "t.rtree"
        save_tree(tree, path)
        loaded = load_tree(path)
        assert loaded.height == tree.height
        assert loaded.num_pages == tree.num_pages
        assert loaded.root.page_id == tree.root.page_id
        assert loaded.max_entries == tree.max_entries

    def test_obstacle_payloads_round_trip(self, tmp_path):
        obstacles = [
            RectObstacle(1, 2, 3, 4),
            SegmentObstacle(5, 6, 7, 8),
            PolygonObstacle([(10, 10), (14, 10), (12, 13)]),
        ]
        tree = build_obstacle_tree(obstacles, page_size=512)
        path = tmp_path / "obs.rtree"
        save_tree(tree, path)
        loaded = load_tree(path)
        payloads = {type(p).__name__: p for p, _r in loaded.items()}
        assert payloads["RectObstacle"].rect == Rect(1, 2, 3, 4)
        assert payloads["SegmentObstacle"].seg.length == pytest.approx(
            obstacles[1].seg.length)
        assert len(payloads["PolygonObstacle"].points) == 3
        # Oids survive, so payload equality works across the round trip.
        assert payloads["RectObstacle"] == obstacles[0]

    def test_string_payloads(self, tmp_path):
        tree = RStarTree(page_size=512)
        tree.insert_point("alpha", 1, 1)
        tree.insert_point("beta", 2, 2)
        path = tmp_path / "s.rtree"
        save_tree(tree, path)
        loaded = load_tree(path)
        assert sorted(p for p, _ in loaded.items()) == ["alpha", "beta"]

    def test_empty_tree(self, tmp_path):
        tree = RStarTree(page_size=512)
        path = tmp_path / "empty.rtree"
        save_tree(tree, path)
        loaded = load_tree(path)
        assert loaded.size == 0
        assert loaded.range_search(Rect(0, 0, 10, 10)) == []

    def test_loaded_tree_supports_inserts(self, rng, tmp_path):
        tree = RStarTree(page_size=512)
        for i in range(100):
            tree.insert_point(i, rng.uniform(0, 100), rng.uniform(0, 100))
        path = tmp_path / "grow.rtree"
        save_tree(tree, path)
        loaded = load_tree(path)
        for i in range(100, 160):
            loaded.insert_point(i, rng.uniform(0, 100), rng.uniform(0, 100))
        loaded.check_invariants()
        assert loaded.size == 160

    def test_conn_on_loaded_trees(self, rng, tmp_path):
        points, obstacles = random_scene(rng)
        q = random_query(rng)
        dt = build_point_tree(points)
        ot = build_obstacle_tree(obstacles)
        want = conn(dt, ot, q)
        save_tree(dt, tmp_path / "p.rtree")
        save_tree(ot, tmp_path / "o.rtree")
        got = conn(load_tree(tmp_path / "p.rtree"),
                   load_tree(tmp_path / "o.rtree"), q)
        ts = np.linspace(0, q.length, 101)
        assert same_values(got.envelope.values(ts), want.envelope.values(ts))


class TestFormat:
    def test_page_alignment(self, rng, tmp_path):
        tree = RStarTree(page_size=1024)
        for i in range(200):
            tree.insert_point(i, rng.uniform(0, 100), rng.uniform(0, 100))
        path = tmp_path / "a.rtree"
        save_tree(tree, path)
        assert path.stat().st_size % 1024 == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.rtree"
        path.write_bytes(b"NOPE" + b"\0" * 4096)
        with pytest.raises(ValueError, match="not an R\\*-tree"):
            load_tree(path)

    def test_unsupported_version_rejected(self, tmp_path):
        header = struct.pack("<4sIIIIQQQ", b"RPRO", 99, 4096, 10, 4, 0, 0, 0)
        path = tmp_path / "v99.rtree"
        path.write_bytes(header.ljust(4096, b"\0"))
        with pytest.raises(ValueError, match="version"):
            load_tree(path)

    def test_unpersistable_payload_raises(self, tmp_path):
        tree = RStarTree(page_size=512)
        tree.insert_point(object(), 1, 1)  # not JSON-serializable
        with pytest.raises(TypeError, match="not persistable"):
            save_tree(tree, tmp_path / "bad.rtree")

    def test_oversized_payload_spills_to_continuation_pages(self, tmp_path):
        tree = RStarTree(page_size=512)
        tree.insert_point("x" * 4000, 1, 1)
        path = tmp_path / "big.rtree"
        written = save_tree(tree, path)
        assert written % 512 == 0
        assert written > 2 * 512  # header + >1 node pages
        loaded = load_tree(path)
        assert [p for p, _r in loaded.items()] == ["x" * 4000]
