"""A paged R*-tree (Beckmann et al., SIGMOD 1990).

This is the data-partitioning index the paper assumes for both the data set
``P`` and the obstacle set ``O``.  It implements the full R* insertion
machinery — ChooseSubtree with overlap-minimizing leaf choice, forced
reinsertion of the 30 % farthest entries on first overflow per level, and the
topological (margin-driven) split — plus deletion with tree condensation and
an STR bulk loader for building large indexes quickly.

Every node occupies one simulated page; all traversals are charged through
the tree's :class:`~repro.index.pagestore.PageTracker` so benchmarks can
report logical reads, page faults, and the paper's 10 ms-per-fault I/O time.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Iterator, List, Tuple

from ..geometry.rectangle import Rect
from .buffer import LRUBuffer
from .node import Entry, Node
from .pagestore import PageTracker

DEFAULT_PAGE_SIZE = 4096
"""Page size in bytes (the paper fixes 4 KB pages)."""

ENTRY_BYTES = 40
"""Four 8-byte coordinates plus an 8-byte pointer/id per entry."""

NODE_HEADER_BYTES = 16
"""Per-node bookkeeping (level, count, ...)."""

REINSERT_FRACTION = 0.3
"""R* forced-reinsert fraction ``p`` (30 % of M+1 entries)."""

CHOOSE_SUBTREE_CANDIDATES = 32
"""R* optimization: cap on entries examined for overlap enlargement."""


class RStarTree:
    """An R*-tree over ``(payload, Rect)`` items.

    Args:
        page_size: simulated page size in bytes; determines fan-out.
        min_fill: minimum node fill as a fraction of the maximum fan-out.
        tracker: shared page tracker; a fresh one is created when omitted
            (pass a shared tracker to model several trees on one disk).
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, min_fill: float = 0.4,
                 tracker: PageTracker | None = None):
        if page_size < NODE_HEADER_BYTES + 4 * ENTRY_BYTES:
            raise ValueError("page size too small for a sensible fan-out")
        self.max_entries = (page_size - NODE_HEADER_BYTES) // ENTRY_BYTES
        self.min_entries = max(2, int(self.max_entries * min_fill))
        self.page_size = page_size
        self.tracker = tracker if tracker is not None else PageTracker()
        self.root = Node(level=0, page_id=self.tracker.allocate())
        self.size = 0
        self.version = 0
        """Mutation counter: bumped by every :meth:`insert` and successful
        :meth:`delete`.  Derived structures (the service layer's
        ``ObstacleCache``, prepared query plans) compare it against the
        value they were built at to detect that the indexed set changed
        underneath them."""
        self._reinserted_levels: set[int] = set()

    # ------------------------------------------------------------ public API
    def insert(self, payload: Any, rect: Rect) -> None:
        """Insert one item with the given MBR."""
        if not rect.is_valid():
            raise ValueError(f"invalid rectangle {rect!r}")
        self._reinserted_levels.clear()
        self._insert_entry(Entry(rect, payload), level=0)
        self.size += 1
        self.version += 1

    def insert_point(self, payload: Any, x: float, y: float) -> None:
        """Insert a point item (degenerate MBR)."""
        self.insert(payload, Rect.point(x, y))

    def delete(self, payload: Any, rect: Rect) -> bool:
        """Delete one item matching ``payload`` whose MBR intersects ``rect``.

        Returns:
            True when an item was found and removed.
        """
        found = self._find_leaf(self.root, payload, rect, [])
        if found is None:
            return False
        path, index = found
        leaf = path[-1]
        del leaf.entries[index]
        self.size -= 1
        self.version += 1
        self._condense(path)
        return True

    def range_search(self, rect: Rect) -> List[Any]:
        """All payloads whose MBR intersects ``rect``."""
        out: List[Any] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.tracker.access(node.page_id)
            for e in node.entries:
                if e.rect.intersects(rect):
                    if node.is_leaf:
                        out.append(e.item)
                    else:
                        stack.append(e.item)
        return out

    def items(self) -> Iterator[Tuple[Any, Rect]]:
        """Iterate all ``(payload, rect)`` pairs (no I/O accounting)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            for e in node.entries:
                if node.is_leaf:
                    yield (e.item, e.rect)
                else:
                    stack.append(e.item)

    def attach_buffer(self, buffer: LRUBuffer | None) -> None:
        """Attach an LRU buffer pool (``None`` detaches)."""
        self.tracker.attach_buffer(buffer)

    @property
    def bounds(self) -> Rect | None:
        """MBR of the whole indexed set (``None`` for an empty tree).

        Computed from the root's entries without touching pages below the
        root, so it is safe to call on every query plan.
        """
        if not self.root.entries:
            return None
        return self.root.mbr()

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is just a leaf root)."""
        return self.root.level + 1

    @property
    def num_pages(self) -> int:
        """Number of allocated pages (= number of nodes)."""
        return self._count_nodes(self.root)

    def _count_nodes(self, node: Node) -> int:
        if node.is_leaf:
            return 1
        return 1 + sum(self._count_nodes(e.item) for e in node.entries)

    # --------------------------------------------------------------- insert
    def _insert_entry(self, entry: Entry, level: int) -> None:
        path = self._choose_path(entry.rect, level)
        path[-1].entries.append(entry)
        self._refresh_path_rects(path)
        self._treat_overfull(path)

    def _choose_path(self, rect: Rect, level: int) -> List[Node]:
        """Descend from the root to a node at ``level``, recording the path."""
        node = self.root
        path = [node]
        while node.level > level:
            self.tracker.access(node.page_id)
            node = self._choose_subtree(node, rect)
            path.append(node)
        self.tracker.access(node.page_id)
        return path

    def _choose_subtree(self, node: Node, rect: Rect) -> Node:
        entries = node.entries
        if node.level == 1:
            # Children are leaves: minimize overlap enlargement among the
            # CHOOSE_SUBTREE_CANDIDATES entries with least area enlargement.
            ranked = sorted(range(len(entries)),
                            key=lambda i: entries[i].rect.enlargement(rect))
            candidates = ranked[:CHOOSE_SUBTREE_CANDIDATES]
            best = None
            best_key = None
            for i in candidates:
                ri = entries[i].rect
                grown = ri.union(rect)
                overlap_delta = 0.0
                for j, ej in enumerate(entries):
                    if j == i:
                        continue
                    overlap_delta += (grown.intersection_area(ej.rect) -
                                      ri.intersection_area(ej.rect))
                key = (overlap_delta, ri.enlargement(rect), ri.area())
                if best_key is None or key < best_key:
                    best_key = key
                    best = entries[i].item
            return best
        best = None
        best_key = None
        for e in entries:
            key = (e.rect.enlargement(rect), e.rect.area())
            if best_key is None or key < best_key:
                best_key = key
                best = e.item
        return best

    def _refresh_path_rects(self, path: List[Node]) -> None:
        """Recompute parent entry MBRs along ``path`` bottom-up."""
        for i in range(len(path) - 2, -1, -1):
            parent = path[i]
            child = path[i + 1]
            for j, e in enumerate(parent.entries):
                if e.item is child:
                    parent.entries[j] = Entry(child.mbr(), child)
                    break

    def _treat_overfull(self, path: List[Node]) -> None:
        level_index = len(path) - 1
        while level_index >= 0:
            node = path[level_index]
            if len(node.entries) <= self.max_entries:
                break
            is_root = node is self.root
            if (not is_root and node.level not in self._reinserted_levels):
                self._reinserted_levels.add(node.level)
                self._force_reinsert(node, path[:level_index + 1])
                # Reinsertion restarts insertion paths; nothing further to
                # propagate along this (now stale) path.
                return
            self._split_node(node, path[:level_index + 1])
            level_index -= 1

    def _force_reinsert(self, node: Node, path: List[Node]) -> None:
        center = node.mbr().center()
        order = sorted(node.entries,
                       key=lambda e: e.rect.center().dist_sq(center),
                       reverse=True)
        p = max(1, int(round(REINSERT_FRACTION * len(node.entries))))
        removed = order[:p]
        node.entries = order[p:]
        self._refresh_path_rects(path)
        # Close reinsert: nearest evicted entries first.
        for entry in reversed(removed):
            self._insert_entry(entry, node.level)

    def _split_node(self, node: Node, path: List[Node]) -> None:
        group1, group2 = _rstar_split(node.entries, self.min_entries)
        node.entries = group1
        sibling = Node(node.level, self.tracker.allocate(), group2)
        if node is self.root:
            new_root = Node(node.level + 1, self.tracker.allocate())
            new_root.entries = [Entry(node.mbr(), node), Entry(sibling.mbr(), sibling)]
            self.root = new_root
            return
        parent = path[-2]
        for j, e in enumerate(parent.entries):
            if e.item is node:
                parent.entries[j] = Entry(node.mbr(), node)
                break
        parent.entries.append(Entry(sibling.mbr(), sibling))
        self._refresh_path_rects(path[:-1])

    # --------------------------------------------------------------- delete
    def _find_leaf(self, node: Node, payload: Any, rect: Rect,
                   path: List[Node]):
        path.append(node)
        self.tracker.access(node.page_id)
        if node.is_leaf:
            for i, e in enumerate(node.entries):
                if e.item == payload and e.rect.intersects(rect):
                    return (list(path), i)
        else:
            for e in node.entries:
                if e.rect.intersects(rect):
                    found = self._find_leaf(e.item, payload, rect, path)
                    if found is not None:
                        return found
        path.pop()
        return None

    def _condense(self, path: List[Node]) -> None:
        orphans: List[Tuple[Entry, int]] = []
        for i in range(len(path) - 1, 0, -1):
            node = path[i]
            parent = path[i - 1]
            if len(node.entries) < self.min_entries:
                parent.entries = [e for e in parent.entries if e.item is not node]
                for e in node.entries:
                    orphans.append((e, node.level))
                self.tracker.free(node.page_id)
            else:
                self._refresh_path_rects(path[:i + 1])
        self._refresh_path_rects([path[0]])
        self._reinserted_levels.clear()
        for entry, level in orphans:
            self._insert_entry(entry, level)
        # Shrink the root while it is an internal node with a single child.
        while not self.root.is_leaf and len(self.root.entries) == 1:
            old = self.root
            self.root = self.root.entries[0].item
            self.tracker.free(old.page_id)
        if not self.root.is_leaf and not self.root.entries:  # pragma: no cover
            self.root = Node(0, self.root.page_id)

    # ------------------------------------------------------------ bulk load
    @classmethod
    def bulk_load(cls, items: Iterable[Tuple[Any, Rect]],
                  page_size: int = DEFAULT_PAGE_SIZE, fill: float = 0.7,
                  tracker: PageTracker | None = None) -> "RStarTree":
        """Build a tree bottom-up with Sort-Tile-Recursive packing.

        Args:
            items: iterable of ``(payload, rect)``.
            fill: target leaf fill as a fraction of maximum fan-out; partial
                fill mimics the occupancy of an insertion-built R*-tree.
        """
        tree = cls(page_size=page_size, tracker=tracker)
        entries = [Entry(rect, payload) for payload, rect in items]
        tree.size = len(entries)
        if not entries:
            return tree
        capacity = max(2, int(tree.max_entries * fill))
        level = 0
        nodes = tree._pack_level(entries, capacity, level)
        while len(nodes) > 1:
            level += 1
            upper = [Entry(n.mbr(), n) for n in nodes]
            nodes = tree._pack_level(upper, capacity, level)
        tree.tracker.free(tree.root.page_id)
        tree.root = nodes[0]
        return tree

    def _pack_level(self, entries: List[Entry], capacity: int, level: int) -> List[Node]:
        n = len(entries)
        pages = math.ceil(n / capacity)
        slices = max(1, math.ceil(math.sqrt(pages)))
        per_slice = slices * capacity
        entries = sorted(entries, key=lambda e: (e.rect.xlo + e.rect.xhi))
        nodes: List[Node] = []
        start = 0
        for width in _chunk_sizes(n, per_slice, self.min_entries):
            chunk = sorted(entries[start:start + width],
                           key=lambda e: (e.rect.ylo + e.rect.yhi))
            start += width
            k = 0
            for size in _chunk_sizes(len(chunk), capacity, self.min_entries):
                node = Node(level, self.tracker.allocate(), chunk[k:k + size])
                nodes.append(node)
                k += size
        return nodes

    # ------------------------------------------------------------ validation
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any structural violation (test hook)."""
        leaf_levels: set[int] = set()
        count = self._check_node(self.root, is_root=True, leaf_levels=leaf_levels)
        assert count == self.size, f"size mismatch: counted {count}, recorded {self.size}"
        assert leaf_levels <= {0}, f"leaves at nonzero levels: {leaf_levels}"

    def _check_node(self, node: Node, is_root: bool, leaf_levels: set[int]) -> int:
        if node.is_leaf:
            leaf_levels.add(node.level)
        if not is_root:
            assert len(node.entries) >= self.min_entries, (
                f"underfull node at level {node.level}: {len(node.entries)}")
        assert len(node.entries) <= self.max_entries, (
            f"overfull node at level {node.level}: {len(node.entries)}")
        if node.is_leaf:
            return len(node.entries)
        total = 0
        for e in node.entries:
            child = e.item
            assert child.level == node.level - 1, "level discontinuity"
            assert e.rect == child.mbr(), (
                f"stale MBR at level {node.level}: {e.rect} != {child.mbr()}")
            total += self._check_node(child, is_root=False, leaf_levels=leaf_levels)
        return total


def _chunk_sizes(n: int, capacity: int, minimum: int) -> List[int]:
    """Partition ``n`` items into chunks of at most ``capacity``.

    Every chunk except a lone final one is at least ``minimum`` long: when the
    natural remainder would fall short, items are stolen from the previous
    chunk, keeping bulk-loaded nodes within R*-tree fill bounds.
    """
    sizes: List[int] = []
    remaining = n
    while remaining > 0:
        if remaining <= capacity:
            sizes.append(remaining)
            break
        if 0 < remaining - capacity < minimum:
            first = min(capacity, remaining - minimum)
            sizes.append(first)
            remaining -= first
        else:
            sizes.append(capacity)
            remaining -= capacity
    return sizes


def _rstar_split(entries: List[Entry], min_entries: int) -> Tuple[List[Entry], List[Entry]]:
    """The R* topological split of an overflowing entry list.

    Chooses the split axis by minimum margin sum over all candidate
    distributions, then the distribution on that axis with minimum overlap
    (ties broken by total area).
    """
    m = min_entries
    total = len(entries)

    def distributions(sorted_entries: List[Entry]):
        prefix: List[Rect] = []
        r = None
        for e in sorted_entries:
            r = e.rect if r is None else r.union(e.rect)
            prefix.append(r)
        suffix: List[Rect] = [None] * total  # type: ignore[list-item]
        r = None
        for i in range(total - 1, -1, -1):
            r = sorted_entries[i].rect if r is None else r.union(sorted_entries[i].rect)
            suffix[i] = r
        for k in range(m, total - m + 1):
            yield k, prefix[k - 1], suffix[k]

    best_axis = None
    axis_sorts = {}
    for axis in (0, 1):
        if axis == 0:
            by_lo = sorted(entries, key=lambda e: (e.rect.xlo, e.rect.xhi))
            by_hi = sorted(entries, key=lambda e: (e.rect.xhi, e.rect.xlo))
        else:
            by_lo = sorted(entries, key=lambda e: (e.rect.ylo, e.rect.yhi))
            by_hi = sorted(entries, key=lambda e: (e.rect.yhi, e.rect.ylo))
        margin_sum = 0.0
        for ordering in (by_lo, by_hi):
            for _k, bb1, bb2 in distributions(ordering):
                margin_sum += bb1.margin() + bb2.margin()
        axis_sorts[axis] = (by_lo, by_hi)
        if best_axis is None or margin_sum < best_axis[0]:
            best_axis = (margin_sum, axis)

    _margin, axis = best_axis  # type: ignore[misc]
    best = None
    best_key = None
    for ordering in axis_sorts[axis]:
        for k, bb1, bb2 in distributions(ordering):
            key = (bb1.intersection_area(bb2), bb1.area() + bb2.area())
            if best_key is None or key < best_key:
                best_key = key
                best = (ordering, k)
    ordering, k = best  # type: ignore[misc]
    return list(ordering[:k]), list(ordering[k:])


MinDistFn = Callable[[Rect], float]
