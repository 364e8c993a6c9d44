"""Disk-page R*-tree index substrate with I/O accounting."""

from .buffer import LRUBuffer
from .nearest import IncrementalNearest, knn, nearest_to_point, nearest_to_segment
from .node import Entry, Node
from .pagestore import IO_MS_PER_FAULT, IOStats, PageTracker
from .rstar import DEFAULT_PAGE_SIZE, RStarTree
from .storage import load_tree, save_tree

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "Entry",
    "IncrementalNearest",
    "IOStats",
    "IO_MS_PER_FAULT",
    "LRUBuffer",
    "Node",
    "PageTracker",
    "RStarTree",
    "knn",
    "load_tree",
    "nearest_to_point",
    "nearest_to_segment",
    "save_tree",
]
