"""Piecewise obstructed-distance functions over the query segment.

Everything the CONN algorithms maintain — a point's control point list
(Definition 9), the result list (Definition 6), each level of the COkNN
k-envelope — is the same mathematical object: a partition of ``q`` into
intervals, each carrying a *control point* ``cp`` and a *base* path length,
representing the distance function ``base + dist(cp, q(t))`` on the interval
(``Piece``).  An empty piece (``cp is None``) means "no path known", value
``+inf``.

:meth:`PiecewiseDistance.merge_min` is the single primitive both CPLC's
control-point-list updates and RLU's result-list updates reduce to: the
pointwise minimum of two such functions, with interval boundaries created
exactly at the quadratic split points of Section 3 and with the paper's
Lemma 1 endpoint-dominance rule used to skip solves when one side provably
dominates.  It returns winner *and* loser, which is what lets the COkNN
k-level envelope cascade losers downward (Section 4.5).
"""

from __future__ import annotations

import math
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..geometry.interval import MERGE_EPS, IntervalSet
from ..geometry.predicates import point_seg_dist
from ..geometry.segment import Segment
from .config import DEFAULT_CONFIG, ConnConfig
from .split import crossing_params, perpendicular_distance
from .stats import QueryStats

_TIE_EPS = 1e-9
"""Value difference below which two paths are considered tied."""

class Piece(NamedTuple):
    """One interval of a piecewise distance function.

    A NamedTuple rather than a dataclass: merges allocate millions of these
    on large workloads and tuple construction is several times cheaper.

    Attributes:
        lo, hi: arc-length parameter range on the query segment.
        cp: control point coordinates, or ``None`` for "unknown/unreachable".
        base: obstructed path length from the owner to ``cp``.
        owner: the data point (payload) this distance function belongs to;
            ``None`` for the initial empty function.
    """

    lo: float
    hi: float
    cp: Optional[Tuple[float, float]]
    base: float
    owner: Any

    def value_at(self, qseg: Segment, t: float) -> float:
        if self.cp is None:
            return math.inf
        return _piece_value(qseg, qseg.length, self.cp, self.base, t)

    def max_value(self, qseg: Segment) -> float:
        """Maximum over the piece = max of the endpoint values (convexity)."""
        if self.cp is None:
            return math.inf
        ln = qseg.length
        return max(_piece_value(qseg, ln, self.cp, self.base, self.lo),
                   _piece_value(qseg, ln, self.cp, self.base, self.hi))

    def clipped(self, lo: float, hi: float) -> "Piece":
        return Piece(lo, hi, self.cp, self.base, self.owner)


def _q_point(qseg: Segment, ln: float, t: float) -> Tuple[float, float]:
    """``q(t)`` replicating ``Segment.point_at`` bit-exactly.

    The float operations mirror :meth:`Segment.point_at` operation for
    operation (clamp, divide, lerp) so coordinates are identical to the
    historic ``qseg.point_at(t)`` path while skipping the Point allocation
    and the per-call ``length`` recomputation (callers hoist ``ln`` once).
    """
    if ln == 0.0:
        return qseg.ax, qseg.ay
    f = min(max(t, 0.0), ln) / ln
    return (qseg.ax + f * (qseg.bx - qseg.ax),
            qseg.ay + f * (qseg.by - qseg.ay))


def _piece_value(qseg: Segment, ln: float, cp: Tuple[float, float],
                 base: float, t: float) -> float:
    """``base + dist(cp, q(t))`` with a pre-hoisted segment length."""
    x, y = _q_point(qseg, ln, t)
    return base + math.hypot(x - cp[0], y - cp[1])


def _clip(p: Piece, lo: float, hi: float) -> Piece:
    """``p.clipped(lo, hi)`` without allocating when the range is unchanged."""
    if lo == p.lo and hi == p.hi:
        return p
    return Piece(lo, hi, p.cp, p.base, p.owner)


def _same_function(a: Piece, b: Piece) -> bool:
    """Do two pieces describe the same distance function (ignoring range)?"""
    if a.owner is not b.owner and a.owner != b.owner:
        return False
    if a.cp is None or b.cp is None:
        return a.cp is None and b.cp is None
    return (abs(a.cp[0] - b.cp[0]) <= _TIE_EPS and
            abs(a.cp[1] - b.cp[1]) <= _TIE_EPS and
            abs(a.base - b.base) <= _TIE_EPS)


def _append(pieces: List[Piece], piece: Piece) -> None:
    """Append with coalescing of adjacent pieces of the same function."""
    if piece.hi - piece.lo <= MERGE_EPS:
        return
    if pieces:
        last = pieces[-1]
        # Identity pre-check: clips share their parent's cp/owner objects,
        # so most coalesces are decided without the tolerance comparisons.
        if piece.lo <= last.hi + MERGE_EPS and (
                (piece.cp is last.cp and piece.base == last.base and
                 (piece.owner is last.owner or piece.owner == last.owner))
                or _same_function(last, piece)):
            pieces[-1] = Piece(last.lo, piece.hi, piece.cp, piece.base,
                               piece.owner)
            return
    pieces.append(piece)


class PiecewiseDistance:
    """A piecewise distance function partitioning ``[0, length(q)]``."""

    __slots__ = ("qseg", "pieces")

    def __init__(self, qseg: Segment, pieces: Sequence[Piece]):
        self.qseg = qseg
        self.pieces: List[Piece] = list(pieces)

    # ------------------------------------------------------------ factories
    @classmethod
    def unknown(cls, qseg: Segment, owner: Any = None) -> "PiecewiseDistance":
        """The initial "no answer yet" function: one empty piece over all of q."""
        return cls(qseg, [Piece(0.0, qseg.length, None, math.inf, owner)])

    @classmethod
    def from_region(cls, qseg: Segment, region: IntervalSet,
                    cp: Tuple[float, float], base: float,
                    owner: Any) -> "PiecewiseDistance":
        """``base + dist(cp, .)`` over ``region``, unknown elsewhere."""
        pieces: List[Piece] = []
        cursor = 0.0
        ln = qseg.length
        for lo, hi in region:
            lo = max(lo, 0.0)
            hi = min(hi, ln)
            if lo - cursor > MERGE_EPS:
                _append(pieces, Piece(cursor, lo, None, math.inf, owner))
            _append(pieces, Piece(max(cursor, lo), hi, cp, base, owner))
            cursor = max(cursor, hi)
        if ln - cursor > MERGE_EPS:
            _append(pieces, Piece(cursor, ln, None, math.inf, owner))
        if not pieces:
            return cls.unknown(qseg, owner)
        return cls(qseg, pieces)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"[{p.lo:.6g},{p.hi:.6g}]@{p.cp}+{p.base:.6g}" for p in self.pieces)
        return f"PiecewiseDistance({inner})"

    # ------------------------------------------------------------ inspection
    def piece_at(self, t: float) -> Piece:
        for p in self.pieces:
            if p.lo - MERGE_EPS <= t <= p.hi + MERGE_EPS:
                return p
        raise ValueError(f"parameter {t} outside [0, {self.qseg.length}]")

    def value(self, t: float) -> float:
        """Function value at ``t``; on an exact piece boundary, the minimum
        of the adjoining pieces (matching the vectorized :meth:`values`)."""
        best = math.inf
        for p in self.pieces:
            if p.lo - MERGE_EPS <= t <= p.hi + MERGE_EPS:
                v = p.value_at(self.qseg, t)
                if v < best:
                    best = v
            elif p.lo > t + MERGE_EPS:
                break
        if best == math.inf and not self.pieces:
            raise ValueError(f"parameter {t} outside [0, {self.qseg.length}]")
        return best

    def owner_at(self, t: float) -> Any:
        return self.piece_at(t).owner

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at parameters ``ts`` (one pass per piece)."""
        ts = np.asarray(ts, dtype=np.float64)
        out = np.full(ts.shape, np.inf)
        ln = self.qseg.length
        ux = (self.qseg.bx - self.qseg.ax) / ln
        uy = (self.qseg.by - self.qseg.ay) / ln
        for p in self.pieces:
            mask = (ts >= p.lo - MERGE_EPS) & (ts <= p.hi + MERGE_EPS)
            if p.cp is None or not mask.any():
                continue
            qx = self.qseg.ax + ts[mask] * ux
            qy = self.qseg.ay + ts[mask] * uy
            vals = p.base + np.hypot(qx - p.cp[0], qy - p.cp[1])
            out[mask] = np.minimum(out[mask], vals)
        return out

    def max_endpoint_value(self) -> float:
        """RLMAX / CPLMAX: max over pieces of their endpoint values.

        Infinite while any part of ``q`` has no known path (the paper's
        ``p_i = emptyset  =>  RLMAX = inf`` convention).
        """
        worst = 0.0
        qseg = self.qseg
        ln = qseg.length
        for p in self.pieces:
            if p.cp is None:
                return math.inf
            v = max(_piece_value(qseg, ln, p.cp, p.base, p.lo),
                    _piece_value(qseg, ln, p.cp, p.base, p.hi))
            if v > worst:
                worst = v
        return worst

    def dominates_challenger(self, region, cp: Tuple[float, float],
                             base: float) -> bool:
        """Would merging ``base + dist(cp, .)`` over ``region`` be a no-op?

        Exact piecewise test used by CPLC to skip provably-losing merges:
        for each of this envelope's pieces overlapping ``region``, the
        challenger's lower bound (``base`` plus the Euclidean distance from
        ``cp`` to the overlapped sub-segment of ``q``) is compared against
        the piece's maximum over the overlap (at an overlap endpoint, by
        convexity).  When the bound never goes below the incumbent, ties
        keep the incumbent and :meth:`merge_min` would return ``changed ==
        False`` with an identical winner — so the caller can skip it.
        Returns False conservatively whenever any overlap is inconclusive.

        :func:`_q_point` / :func:`_piece_value` are inlined here (same
        clamp / divide / lerp / hypot operation sequence, so values are
        bit-identical): this loop runs ~85k times per warm corridor and
        the helper-call overhead alone profiled at ~8% of the arm.  The
        challenger bound and the incumbent endpoint values share one
        ``q(t)`` evaluation per endpoint instead of recomputing it.
        """
        qseg = self.qseg
        ln = qseg.length
        pieces = self.pieces
        n = len(pieces)
        cx, cy = cp
        ax = qseg.ax
        ay = qseg.ay
        dx = qseg.bx - ax
        dy = qseg.by - ay
        hyp = math.hypot
        i = 0
        for rlo, rhi in region:
            rlo = max(rlo, 0.0)
            rhi = min(rhi, ln)
            if rhi < rlo:
                continue
            while i < n and pieces[i].hi <= rlo:
                i += 1
            j = i
            while j < n and pieces[j].lo < rhi:
                p = pieces[j]
                pcp = p.cp
                if pcp is None:
                    return False
                a = p.lo if p.lo > rlo else rlo
                b = p.hi if p.hi < rhi else rhi
                if b >= a:
                    if ln == 0.0:
                        x0 = x1 = ax
                        y0 = y1 = ay
                    else:
                        f = min(max(a, 0.0), ln) / ln
                        x0 = ax + f * dx
                        y0 = ay + f * dy
                        f = min(max(b, 0.0), ln) / ln
                        x1 = ax + f * dx
                        y1 = ay + f * dy
                    lb = base + point_seg_dist(cx, cy, x0, y0, x1, y1)
                    pb = p.base
                    px, py = pcp
                    v0 = pb + hyp(x0 - px, y0 - py)
                    v1 = pb + hyp(x1 - px, y1 - py)
                    inc = v0 if v0 >= v1 else v1
                    if lb < inc:
                        return False
                j += 1
        return True

    def all_unknown(self) -> bool:
        return all(p.cp is None for p in self.pieces)

    def covered(self) -> bool:
        return all(p.cp is not None for p in self.pieces)

    def boundaries(self) -> List[float]:
        out = [self.pieces[0].lo] if self.pieces else []
        out.extend(p.hi for p in self.pieces)
        return out

    def split_points(self) -> List[float]:
        """Interior boundaries where the *owner* changes (paper's split points)."""
        out: List[float] = []
        for a, b in zip(self.pieces, self.pieces[1:]):
            if a.owner is not b.owner and a.owner != b.owner:
                out.append(a.hi)
        return out

    def owner_tuples(self) -> List[Tuple[Any, Tuple[float, float]]]:
        """The user-facing result list: ``(owner, (lo, hi))`` merged by owner."""
        out: List[Tuple[Any, Tuple[float, float]]] = []
        for p in self.pieces:
            key = p.owner if p.cp is not None else None
            if out and (out[-1][0] is key or out[-1][0] == key):
                out[-1] = (key, (out[-1][1][0], p.hi))
            else:
                out.append((key, (p.lo, p.hi)))
        return out

    def replace_span(self, lo: float, hi: float,
                     other: "PiecewiseDistance") -> "PiecewiseDistance":
        """Splice ``other`` over the parameter span ``[lo, hi]``.

        ``other`` must be a piecewise distance over the collinear
        sub-segment of ``self.qseg`` running from ``point_at(lo)`` to
        ``point_at(hi)`` — its pieces are parameterized from 0 and are
        shifted by ``lo`` into this function's parameterization.  Because
        control points live in world coordinates and the sub-segment shares
        the parent's direction, the shifted pieces evaluate identically.

        This is the primitive behind the continuous-monitor layer's local
        repair: re-run the engine on the affected span only, splice the
        fresh answer over the old one, keep everything else untouched.
        """
        ln = self.qseg.length
        lo = max(0.0, min(lo, ln))
        hi = max(lo, min(hi, ln))
        if abs((hi - lo) - other.qseg.length) > 1e-6:
            raise ValueError(
                f"replacement spans {other.qseg.length:g} but the span is "
                f"{hi - lo:g} long")
        pieces: List[Piece] = []
        for p in self.pieces:
            if p.hi <= lo + MERGE_EPS:
                _append(pieces, p)
            elif p.lo < lo - MERGE_EPS:
                _append(pieces, p.clipped(p.lo, lo))
        mid = [Piece(lo + p.lo, lo + p.hi, p.cp, p.base, p.owner)
               for p in other.pieces]
        if mid:
            # Pin the outer boundaries exactly to the span: the sub-segment's
            # length may drift from ``hi - lo`` by float rounding, and a gap
            # wider than the merge tolerance would break the partition.
            mid[0] = Piece(lo, mid[0].hi, mid[0].cp, mid[0].base,
                           mid[0].owner)
            mid[-1] = Piece(mid[-1].lo, hi, mid[-1].cp, mid[-1].base,
                            mid[-1].owner)
        for p in mid:
            _append(pieces, p)
        for p in self.pieces:
            if p.lo >= hi - MERGE_EPS:
                _append(pieces, p.clipped(max(p.lo, hi), p.hi))
            elif p.hi > hi + MERGE_EPS:
                _append(pieces, p.clipped(hi, p.hi))
        return PiecewiseDistance(self.qseg, pieces)

    def assert_partition(self) -> None:
        """Test hook: pieces must exactly partition ``[0, length]`` in order."""
        assert self.pieces, "no pieces"
        assert abs(self.pieces[0].lo) <= 1e-6, f"starts at {self.pieces[0].lo}"
        assert abs(self.pieces[-1].hi - self.qseg.length) <= 1e-6
        for a, b in zip(self.pieces, self.pieces[1:]):
            assert abs(a.hi - b.lo) <= 1e-6, f"gap {a.hi} -> {b.lo}"
            assert a.hi - a.lo > 0, "empty piece"

    # ----------------------------------------------------------------- merge
    def merge_min(self, other: "PiecewiseDistance",
                  cfg: ConnConfig = DEFAULT_CONFIG,
                  stats: QueryStats | None = None
                  ) -> Tuple["PiecewiseDistance", "PiecewiseDistance", bool]:
        """Pointwise minimum against a challenger function.

        Returns:
            ``(winner, loser, changed)`` — the minimum envelope, the
            pointwise-maximum remainder (for k-level cascading), and whether
            the challenger won anywhere.  Ties keep the incumbent.
        """
        qseg = self.qseg
        ln = qseg.length
        stats = stats if stats is not None else QueryStats()
        win: List[Piece] = []
        lose: List[Piece] = []
        changed = False
        ia = ib = 0
        A = self.pieces
        B = other.pieces
        cursor = 0.0
        while ia < len(A) and ib < len(B):
            pa = A[ia]
            pb = B[ib]
            nxt = min(pa.hi, pb.hi)
            if nxt - cursor > MERGE_EPS:
                # Unknown sides short-circuit here: challengers are typically
                # finite on a few intervals only, and copying the incumbent
                # over the unknown spans is the merge's bulk.
                if pb.cp is None:
                    _append(win, _clip(pa, cursor, nxt))
                    _append(lose, _clip(pb, cursor, nxt))
                elif pa.cp is None:
                    _append(win, _clip(pb, cursor, nxt))
                    _append(lose, _clip(pa, cursor, nxt))
                    changed = True
                else:
                    challenger_won = self._resolve(pa, pb, cursor, nxt, ln,
                                                   win, lose, cfg, stats)
                    changed = changed or challenger_won
            cursor = nxt
            if pa.hi <= nxt + MERGE_EPS:
                ia += 1
            if pb.hi <= nxt + MERGE_EPS:
                ib += 1
        return (PiecewiseDistance(qseg, win), PiecewiseDistance(qseg, lose),
                changed)

    def _resolve(self, pa: Piece, pb: Piece, lo: float, hi: float, ln: float,
                 win: List[Piece], lose: List[Piece],
                 cfg: ConnConfig, stats: QueryStats) -> bool:
        """Resolve one overlap interval; returns True when challenger won any part."""
        qseg = self.qseg
        a_cp = pa.cp
        b_cp = pb.cp
        if b_cp is None:
            _append(win, _clip(pa, lo, hi))
            _append(lose, _clip(pb, lo, hi))
            return False
        if a_cp is None:
            _append(win, _clip(pb, lo, hi))
            _append(lose, _clip(pa, lo, hi))
            return True
        # Identical control points: the smaller base wins outright.
        if (abs(a_cp[0] - b_cp[0]) <= _TIE_EPS and
                abs(a_cp[1] - b_cp[1]) <= _TIE_EPS):
            if pb.base < pa.base - _TIE_EPS:
                _append(win, _clip(pb, lo, hi))
                _append(lose, _clip(pa, lo, hi))
                return True
            _append(win, _clip(pa, lo, hi))
            _append(lose, _clip(pb, lo, hi))
            return False

        a_base = pa.base
        b_base = pb.base
        xlo, ylo = _q_point(qseg, ln, lo)
        xhi, yhi = _q_point(qseg, ln, hi)
        va_lo = a_base + math.hypot(xlo - a_cp[0], ylo - a_cp[1])
        va_hi = a_base + math.hypot(xhi - a_cp[0], yhi - a_cp[1])
        vb_lo = b_base + math.hypot(xlo - b_cp[0], ylo - b_cp[1])
        vb_hi = b_base + math.hypot(xhi - b_cp[0], yhi - b_cp[1])
        if cfg.use_lemma1:
            # Lemma 1: endpoint dominance plus the farther-control-point
            # condition proves dominance over the whole interval.
            h_a = perpendicular_distance(qseg, a_cp[0], a_cp[1])
            h_b = perpendicular_distance(qseg, b_cp[0], b_cp[1])
            if va_lo <= vb_lo + _TIE_EPS and va_hi <= vb_hi + _TIE_EPS and \
                    h_b >= h_a:
                stats.lemma1_prunes += 1
                _append(win, _clip(pa, lo, hi))
                _append(lose, _clip(pb, lo, hi))
                return False
            if vb_lo < va_lo - _TIE_EPS and vb_hi < va_hi - _TIE_EPS and \
                    h_a >= h_b:
                stats.lemma1_prunes += 1
                _append(win, _clip(pb, lo, hi))
                _append(lose, _clip(pa, lo, hi))
                return True

        stats.split_solves += 1
        roots = crossing_params(qseg, b_cp, b_base, a_cp, a_base, lo, hi)
        edges = [lo, *roots, hi]
        challenger_won = False
        for x0, x1 in zip(edges, edges[1:]):
            if x1 - x0 <= MERGE_EPS:
                continue
            mid = 0.5 * (x0 + x1)
            xm, ym = _q_point(qseg, ln, mid)
            if b_base + math.hypot(xm - b_cp[0], ym - b_cp[1]) < \
                    a_base + math.hypot(xm - a_cp[0], ym - a_cp[1]) - _TIE_EPS:
                _append(win, _clip(pb, x0, x1))
                _append(lose, _clip(pa, x0, x1))
                challenger_won = True
            else:
                _append(win, _clip(pa, x0, x1))
                _append(lose, _clip(pb, x0, x1))
        return challenger_won
