"""Spatial partitioners: who owns which region of the plane.

A partitioner is a pure, immutable function from locations to shard ids.
Two implementations:

* :class:`GridPartitioner` — a uniform ``nx`` x ``ny`` grid over a bounding
  rectangle.  Dead simple, O(1) point lookup, and the shard regions are
  axis-aligned rectangles, which makes the router's containment test ("does
  this influence ball stay inside the consulted shard set?") exact.
* :class:`HilbertPartitioner` — a fine cell grid walked in Hilbert order
  (the same :func:`~repro.query.executor.hilbert_index` the batch
  scheduler's locality buckets use) and cut into contiguous ranges of
  near-equal *site weight*.  Shards follow the data distribution instead of
  the area, at the cost of non-rectangular (but still cell-aligned) shard
  regions.

Both share one coordinate convention: the configured bounds tile the whole
plane — points outside are clamped to the nearest boundary cell, so edge
shards conceptually extend to infinity and every location has exactly one
owner.  That convention is what lets the router express "ball ⊆ consulted
regions" as plain cell-set containment: ``shards_for_rect(ball) <= sids``.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from ..geometry.rectangle import Rect
from ..query.executor import hilbert_index


def _factor_pair(n: int) -> Tuple[int, int]:
    """The most-square ``(nx, ny)`` with ``nx * ny == n`` (nx >= ny)."""
    best = (n, 1)
    for ny in range(1, int(math.isqrt(n)) + 1):
        if n % ny == 0:
            best = (n // ny, ny)
    return best


class Partitioner:
    """Base partitioner: an immutable map from the plane onto shard ids.

    Subclasses implement the two lookups everything else derives from:
    :meth:`shard_of` (point ownership) and :meth:`shards_for_rect`
    (which shards a rectangle touches, after clamping to the bounds).
    """

    num_shards: int
    bounds: Rect

    def shard_of(self, x: float, y: float) -> int:
        """The shard owning location ``(x, y)`` (clamped to the bounds)."""
        raise NotImplementedError

    def shards_for_rect(self, rect: Rect) -> FrozenSet[int]:
        """Every shard whose region intersects ``rect`` (clamped)."""
        raise NotImplementedError

    def all_shards(self) -> FrozenSet[int]:
        """The full shard id set."""
        return frozenset(range(self.num_shards))

    def describe(self) -> str:
        """One-line human-readable description for ``explain()`` output."""
        return f"{type(self).__name__}({self.num_shards} shards)"


class _CellGrid:
    """Shared clamped-cell arithmetic over a bounding rectangle."""

    def __init__(self, bounds: Rect, nx: int, ny: int):
        if nx < 1 or ny < 1:
            raise ValueError("need at least one cell per axis")
        if not bounds.is_valid() or bounds.width <= 0 or bounds.height <= 0:
            raise ValueError(f"degenerate partition bounds {bounds!r}")
        self.bounds = bounds
        self.nx = nx
        self.ny = ny
        self._cw = bounds.width / nx
        self._ch = bounds.height / ny

    @staticmethod
    def _axis_cell(v: float, lo: float, step: float, n: int) -> int:
        if not math.isfinite(v):  # infinite extents clamp to the edge cell
            return 0 if v < 0 else n - 1
        return min(max(int((v - lo) / step), 0), n - 1)

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        return (self._axis_cell(x, self.bounds.xlo, self._cw, self.nx),
                self._axis_cell(y, self.bounds.ylo, self._ch, self.ny))

    def cells_for_rect(self, rect: Rect) -> Iterable[Tuple[int, int]]:
        clo = self.cell_of(rect.xlo, rect.ylo)
        chi = self.cell_of(rect.xhi, rect.yhi)
        for cx in range(clo[0], chi[0] + 1):
            for cy in range(clo[1], chi[1] + 1):
                yield (cx, cy)

    def cell_rect(self, cx: int, cy: int) -> Rect:
        b = self.bounds
        return Rect(b.xlo + cx * self._cw, b.ylo + cy * self._ch,
                    b.xlo + (cx + 1) * self._cw, b.ylo + (cy + 1) * self._ch)


class GridPartitioner(Partitioner):
    """A uniform ``nx`` x ``ny`` grid of rectangular shard regions.

    Args:
        bounds: the rectangle the grid tiles; locations outside are owned
            by the nearest edge shard (edge regions extend to infinity).
        nx, ny: cells per axis; ``num_shards = nx * ny``.  Shard ids run
            row-major: ``sid = cy * nx + cx``.
    """

    def __init__(self, bounds: Rect, nx: int, ny: int):
        self._grid = _CellGrid(bounds, nx, ny)
        self.bounds = bounds
        self.nx = nx
        self.ny = ny
        self.num_shards = nx * ny

    @classmethod
    def square(cls, bounds: Rect, shards: int) -> "GridPartitioner":
        """The most-square grid with exactly ``shards`` cells (2 -> 2x1,
        4 -> 2x2, 9 -> 3x3, a prime p -> p x 1)."""
        if shards < 1:
            raise ValueError("need at least one shard")
        nx, ny = _factor_pair(shards)
        return cls(bounds, nx, ny)

    def shard_of(self, x: float, y: float) -> int:
        cx, cy = self._grid.cell_of(x, y)
        return cy * self.nx + cx

    def shards_for_rect(self, rect: Rect) -> FrozenSet[int]:
        return frozenset(cy * self.nx + cx
                         for cx, cy in self._grid.cells_for_rect(rect))

    def region(self, sid: int) -> Rect:
        """The finite core rectangle of shard ``sid`` (edge shards own the
        unbounded strip beyond it as well)."""
        if not 0 <= sid < self.num_shards:
            raise ValueError(f"no shard {sid}")
        return self._grid.cell_rect(sid % self.nx, sid // self.nx)

    def describe(self) -> str:
        return f"grid {self.nx}x{self.ny} over {_fmt_rect(self.bounds)}"


class HilbertPartitioner(Partitioner):
    """Contiguous Hilbert ranges of a fine cell grid, balanced by weight.

    The bounds are cut into a ``side`` x ``side`` grid (``side`` a power of
    two), cells are ordered along the Hilbert curve — the executor's
    locality order — and the curve is sliced into ``num_shards`` contiguous
    ranges carrying near-equal total weight.  Weight is one unit per cell
    plus one per provided site, so dense regions get small shards and empty
    regions get large ones while every shard stays a connected run of the
    curve.

    Args:
        bounds: the rectangle the cell grid tiles (clamped like the grid
            partitioner's).
        shards: number of ranges to cut.
        sites: optional ``(x, y)`` locations whose density balances the
            cut; omit for pure area balancing.
        order: grid refinement; ``side = 2 ** order`` cells per axis.
    """

    def __init__(self, bounds: Rect, shards: int,
                 sites: Sequence[Tuple[float, float]] = (), order: int = 4):
        if shards < 1:
            raise ValueError("need at least one shard")
        if not 1 <= order <= 8:
            raise ValueError("order must be in [1, 8]")
        side = 1 << order
        if shards > side * side:
            raise ValueError(f"{shards} shards need a finer grid than "
                             f"{side}x{side} (raise order)")
        self._grid = _CellGrid(bounds, side, side)
        self.bounds = bounds
        self.side = side
        self.num_shards = shards

        weight = [1] * (side * side)
        for x, y in sites:
            cx, cy = self._grid.cell_of(float(x), float(y))
            weight[hilbert_index(side, cx, cy)] += 1
        total = sum(weight)
        # Walk the curve, cutting whenever the running weight passes the
        # next equal-share boundary but never leaving a later shard empty.
        self._shard_of_cell: List[int] = [0] * (side * side)
        sid, acc = 0, 0
        for h in range(side * side):
            remaining_cells = side * side - h
            if (sid < shards - 1
                    and (acc >= (sid + 1) * total / shards
                         or remaining_cells <= shards - 1 - sid)):
                sid += 1
            self._shard_of_cell[h] = sid
            acc += weight[h]

    def shard_of(self, x: float, y: float) -> int:
        cx, cy = self._grid.cell_of(x, y)
        return self._shard_of_cell[hilbert_index(self.side, cx, cy)]

    def shards_for_rect(self, rect: Rect) -> FrozenSet[int]:
        return frozenset(
            self._shard_of_cell[hilbert_index(self.side, cx, cy)]
            for cx, cy in self._grid.cells_for_rect(rect))

    def describe(self) -> str:
        return (f"hilbert ranges ({self.side}x{self.side} cells) over "
                f"{_fmt_rect(self.bounds)}")


def _fmt_rect(r: Rect) -> str:
    return f"[{r.xlo:g}, {r.xhi:g}] x [{r.ylo:g}, {r.yhi:g}]"


def bounds_of(points: Iterable[Tuple[float, float]],
              rects: Iterable[Rect] = ()) -> Rect:
    """A bounding rectangle over site locations and obstacle MBRs.

    Degenerate extents are padded so the partitioners always get a
    positive-area rectangle to tile.
    """
    xs: List[float] = []
    ys: List[float] = []
    for x, y in points:
        xs.append(float(x))
        ys.append(float(y))
    rlist = list(rects)
    for r in rlist:
        xs.extend((r.xlo, r.xhi))
        ys.extend((r.ylo, r.yhi))
    if not xs:
        return Rect(0.0, 0.0, 1.0, 1.0)
    rect = Rect(min(xs), min(ys), max(xs), max(ys))
    pad = 0.5 * max(rect.width, rect.height, 1e-6) * 1e-9
    if rect.width <= 0:
        rect = Rect(rect.xlo - 0.5, rect.ylo, rect.xhi + 0.5, rect.yhi)
    if rect.height <= 0:
        rect = Rect(rect.xlo, rect.ylo - 0.5, rect.xhi, rect.yhi + 0.5)
    return rect.expanded(pad)
