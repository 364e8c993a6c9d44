"""Quadratic split-point computation (Section 3, Theorem 1).

A split point is a parameter ``t`` on the query segment where two candidate
paths tie:

    base_u + dist(u, q(t))  =  base_v + dist(v, q(t))

with ``u, v`` control points and ``base_*`` the obstructed distances from the
data point(s) to them.  Geometrically the solution set is the intersection of
``q`` with one branch of a hyperbola whose foci are ``u`` and ``v`` — hence
at most two split points (Theorem 1).

We solve it exactly the way the paper's Equation (1) arises: with ``q``
parametrized by arc length, both squared distances are *monic quadratics* in
``t``, so their difference is linear, and squaring the defining equation once
yields a single quadratic.  Spurious roots introduced by squaring are
filtered by re-substitution, and every accepted root is polished with Newton
steps on the exact residual (the squared form loses precision when the
coefficients reach ``1e17`` at the paper's coordinate scale).

The paper's Case 1-4 classification (Figure 4) is provided for analysis and
tests via :func:`classify_case`; the query engine itself relies on the root
solver plus midpoint evaluation, which handles every geometric configuration
uniformly — including the configurations (``a = 0``, ``b > c``, ...) the
paper notes would need separate case analyses.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from ..geometry.segment import Segment

_RESIDUAL_TOL = 1e-6
"""Accept a root when the path-length residual is below this (world units)."""

_ROOT_MERGE = 1e-9
"""Roots closer than this collapse into one."""

_ROOT_COALESCE = 1e-6
"""Polished roots closer than this (relative to the interval span) are one
tie point.

Near a tangency the residual is locally *quadratic* in ``t``, so Newton
cannot separate the two quadratic roots below roughly ``sqrt(eps)`` of the
coordinate scale; polishing the pair from slightly different seeds can
land them ``~1e-7`` apart and, with a tighter merge radius, report one
double root as two distinct split points in one argument order but not
the other.  Two genuine transversal crossings this close bound a piece
far below the envelope's merge tolerance — collapsing them is lossless."""


def dist_quadratic(qseg: Segment, px: float, py: float) -> Tuple[float, float]:
    """Coefficients ``(b, c)`` with ``dist(p, q(t))^2 = t^2 + b t + c``.

    Valid because ``q(t) = S + t * u`` with ``u`` a unit vector.
    """
    ln = qseg.length
    ux = (qseg.bx - qseg.ax) / ln
    uy = (qseg.by - qseg.ay) / ln
    wx = qseg.ax - px
    wy = qseg.ay - py
    b = 2.0 * (ux * wx + uy * wy)
    c = wx * wx + wy * wy
    return b, c


def _value(b: float, c: float, t: float) -> float:
    """dist(p, q(t)) from the quadratic coefficients."""
    return math.sqrt(max(t * t + b * t + c, 0.0))


def crossing_params(qseg: Segment,
                    u_cp: Tuple[float, float], u_base: float,
                    v_cp: Tuple[float, float], v_base: float,
                    lo: float, hi: float) -> List[float]:
    """Parameters in the open interval ``(lo, hi)`` where the two paths tie.

    Args:
        u_cp, u_base: challenger's control point and path length to it.
        v_cp, v_base: incumbent's control point and path length to it.

    Returns:
        Sorted tie parameters (at most two by Theorem 1).
    """
    b1, c1 = dist_quadratic(qseg, u_cp[0], u_cp[1])
    b2, c2 = dist_quadratic(qseg, v_cp[0], v_cp[1])
    # Tie condition: sqrt(g) - sqrt(h) = d, with g the challenger's squared
    # distance, h the incumbent's, and d the base-length gap.
    d = v_base - u_base
    beta = b1 - b2
    gamma = c1 - c2

    def residual(t: float) -> float:
        return (u_base + _value(b1, c1, t)) - (v_base + _value(b2, c2, t))

    def residual_derivative(t: float) -> float:
        g = _value(b1, c1, t)
        h = _value(b2, c2, t)
        if g <= 0.0 or h <= 0.0:
            return 0.0
        return (t + 0.5 * b1) / g - (t + 0.5 * b2) / h

    scale = max(abs(beta), abs(gamma) ** 0.5, 1.0)
    candidates: List[float] = []
    if abs(d) <= 1e-12 * max(u_base, v_base, 1.0):
        # Equal bases: the tie locus is the radical axis -> linear equation.
        if abs(beta) > 1e-12 * scale:
            candidates.append(-gamma / beta)
    else:
        k = gamma - d * d
        a_coef = beta * beta - 4.0 * d * d
        b_coef = 2.0 * beta * k - 4.0 * d * d * b2
        c_coef = k * k - 4.0 * d * d * c2
        lin_scale = max(abs(b_coef), 1.0)
        if abs(a_coef) <= 1e-12 * max(beta * beta, 4 * d * d, 1.0):
            if abs(b_coef) > 1e-12 * lin_scale:
                candidates.append(-c_coef / b_coef)
        else:
            disc = b_coef * b_coef - 4.0 * a_coef * c_coef
            # A near-tangent tie (double root, e.g. a vanishing base gap)
            # can land the discriminant a rounding error below zero; treat
            # it as zero and let the residual filter reject false alarms.
            disc_tol = 1e-9 * max(b_coef * b_coef,
                                  abs(4.0 * a_coef * c_coef))
            if disc >= -disc_tol:
                sq = math.sqrt(max(disc, 0.0))
                # Numerically stable quadratic roots.
                if b_coef >= 0.0:
                    qq = -0.5 * (b_coef + sq)
                else:
                    qq = -0.5 * (b_coef - sq)
                candidates.append(qq / a_coef)
                if qq != 0.0:
                    candidates.append(c_coef / qq)
        # Degenerate identity: when both control points lie *on* the query
        # line, the two path functions are piecewise linear in ``t`` and can
        # coincide on a whole ray (e.g. ``t`` vs ``1 + |t - 1|`` for
        # ``t >= 1``).  Squaring then collapses to ``0 = 0`` — no quadratic
        # or linear coefficient survives — yet the tie set has a genuine
        # boundary: the cone apex (the parameter where a distance hits
        # zero and the linearization changes slope).  Offer both apexes as
        # candidates; the residual filter keeps only real tie points.
        for b_i, c_i in ((b1, c1), (b2, c2)):
            if c_i - 0.25 * b_i * b_i <= 1e-12 * max(c_i, 1.0):
                candidates.append(-0.5 * b_i)

    margin = max((hi - lo) * 1e-12, _ROOT_MERGE)
    roots: List[float] = []
    for t in candidates:
        if not math.isfinite(t):
            continue
        # Newton polish against the exact (unsquared) residual.
        for _ in range(3):
            f = residual(t)
            df = residual_derivative(t)
            if abs(df) < 1e-12:
                break
            step = f / df
            if not math.isfinite(step):
                break
            t -= step
        if not (lo + margin < t < hi - margin):
            continue
        ref = max(u_base + _value(b1, c1, t), 1.0)
        if abs(residual(t)) > _RESIDUAL_TOL * max(1.0, ref * 1e-6) + _RESIDUAL_TOL:
            continue  # spurious root from squaring
        coalesce = _ROOT_COALESCE * max(1.0, abs(t), hi - lo)
        if all(abs(t - r) > coalesce for r in roots):
            roots.append(t)
    roots.sort()
    return roots


def classify_case(qseg: Segment,
                  u_cp: Tuple[float, float], u_base: float,
                  v_cp: Tuple[float, float], v_base: float) -> int:
    """The paper's Case 1-4 for challenger ``(u)`` vs incumbent ``(v)``.

    Uses Section 3's quantities: ``d = ||p, v|| - ||p', u||`` and ``a`` the
    (signed magnitude of the) distance between the projections of ``u`` and
    ``v`` onto ``q``.  Returns 1 when the challenger takes the whole segment,
    2 for two split points, 3 for one, 4 when the incumbent keeps everything.

    Only meaningful in the paper's canonical configuration (both control
    points strictly off the query line, challenger farther); the query engine
    never calls this — it is provided for analysis and to validate Theorem 1.
    """
    d = v_base - u_base
    duv = math.hypot(u_cp[0] - v_cp[0], u_cp[1] - v_cp[1])
    a = abs(qseg.param_of(u_cp[0], u_cp[1]) - qseg.param_of(v_cp[0], v_cp[1]))
    if d >= duv:
        return 1
    if a < d < duv:
        return 2
    if -a < d <= a:
        return 3
    return 4


def perpendicular_distance(qseg: Segment, px: float, py: float) -> float:
    """Distance from a point to the *line* through the query segment."""
    ln = qseg.length
    ux = (qseg.bx - qseg.ax) / ln
    uy = (qseg.by - qseg.ay) / ln
    wx = px - qseg.ax
    wy = py - qseg.ay
    return abs(ux * wy - uy * wx)
