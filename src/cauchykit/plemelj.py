"""Cauchy-type integrals over open arcs: one-sided limits, jump relations,
reconstruction from jumps, and the Poincare-Bertrand identity.

Unlike the closed-contour functionals, the arc integral

    f(z) = (1/2*pi*i) int_L g(t)/(t - z) dt

is a single analytic function off the arc, with a simple zero at infinity;
only across L does it jump, by g.  Principal values on the arc are computed
by parameter-space subtraction: the pole is removed against the exact
parameter logarithm, leaving a smooth remainder for Gauss-Legendre panels.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AccuracyWarning, DomainError, EndpointError
from .geometry import (JordanArc, QuadratureGrid, _leggauss, _row_blocks,
                       _sample, panels_from_breakpoints)

DEFAULT_ENDPOINT_MARGIN = 0.02


@dataclass(frozen=True)
class ArcDensity:
    """Complex density on a Jordan arc, finite at endpoints, smooth inside."""

    func: Callable

    def __call__(self, t):
        return self.func(np.asarray(t, dtype=complex))


@dataclass(frozen=True)
class SidedLimit:
    """One-sided boundary value of an arc integral."""

    value: complex
    side: str                   # "plus" (left of traversal) | "minus"
    location: complex


def _as_density(g) -> ArcDensity:
    if isinstance(g, ArcDensity):
        return g
    if callable(g):
        return ArcDensity(g)
    raise TypeError("expected an ArcDensity or callable")


def arc_cauchy_integral(g, arc: JordanArc, grid: QuadratureGrid, z: complex,
                        n: int = 0) -> complex:
    """f^(n)(z) = (n!/2*pi*i) int_L g(t)/(t - z)^(n+1) dt for z off the arc."""
    g = _as_density(g)
    smp = _sample(arc, grid)
    near = smp.near_zone
    # the nearest node overstates the distance to the arc by at most half a
    # node gap, far less than a near-zone width: solve Newton only below two
    dist = smp.distance(z, np.abs(smp.zs - z), 2.0 * near)[0]
    if dist < 1e-12:
        raise DomainError("z lies on the arc; use plemelj_limits")
    if dist < near:
        warnings.warn("target is in the near zone of the arc; result is "
                      "ill-conditioned", AccuracyWarning, stacklevel=2)
    vals = np.broadcast_to(np.asarray(g(smp.zs), dtype=complex), smp.zs.shape)
    return complex(math.factorial(n) / (2j * np.pi) * np.sum(
        vals * smp.dzs * grid.weights / (smp.zs - z) ** (n + 1)))


def _aligned_breaks(s0, n_panels):
    """Breakpoints on [0, 1] split at s0[r] for every row r of s0: those of
    np.linspace(0, s0, left + 1), then of np.linspace(s0, 1, right + 1),
    with left = max(2, ceil(n_panels*s0)) and right = max(2, ceil(n_panels*
    (1 - s0))); a row with fewer panels than the longest ends in zero-width
    panels at 1."""
    s0 = s0[:, None]
    left = np.maximum(2, np.ceil(n_panels * s0).astype(int))
    right = np.maximum(2, np.ceil(n_panels * (1.0 - s0)).astype(int))
    k = np.arange(int(np.max(left + right)) + 1)
    return np.where(k < left, k * (s0 / left),
                    np.where(k < left + right,
                             s0 + (k - left) * ((1.0 - s0) / right), 1.0))


def _aligned_panels(s0, n_panels, order, grade=0):
    """GL panels on [0, 1] split at s0 so no node hits the singular point,
    the first panel halved ``grade`` times toward 0 and the last toward 1;
    the panels next to s0 are not graded."""
    edges = _aligned_breaks(np.array([s0]), n_panels)[0]
    halves = 2.0 ** -np.arange(grade, 0, -1)
    grid = panels_from_breakpoints(np.concatenate(
        [[0.0], edges[1] * halves, edges[1:-1],
         1.0 - (1.0 - edges[-2]) * halves[::-1], [1.0]]), order)
    return grid.nodes, grid.weights


def _aligned_rows(s0, n_panels, order):
    """_aligned_panels(s0[r], n_panels, order) for every row r of s0 as one
    padded (rows x nodes) pair of nodes and weights.  A row's padding repeats
    its first node with weight 0, so no integrand is sampled anywhere new."""
    breaks = _aligned_breaks(s0, n_panels)
    x, w = _leggauss(order)
    lo = breaks[:, :-1, None]
    h = 0.5 * (breaks[:, 1:, None] - lo)
    nodes = (lo + h * (x + 1.0)).reshape(len(s0), -1)
    weights = (h * w).reshape(len(s0), -1)
    return np.where(weights > 0, nodes, nodes[:, :1]), weights


def _arc_pv_rows(densities, arc: JordanArc, s0, t0, n_panels: int,
                 order: int) -> list:
    """P.V. int_L g(t, r)/(t - t0[r]) dt for every row r of t0 at once and
    every (g, g0) of ``densities``, with t0 = z(s0) interior to the arc and
    g0 = g(t0, r); one array per density.

    Row r integrates on GL panels split at s0[r] (a scalar s0 is shared by
    all rows) and subtracts g0[r]/(s - s0[r]) in parameter space; the bare
    parameter pole integrates to log((1 - s0)/s0).  g(t, r) gets the nodes
    of the rows in the slice r and must broadcast against them.  The
    densities share each row's panels, arc samples, Cauchy kernel and pole.
    Rows go a block at a time (geometry._row_blocks), so memory stays
    bounded.
    """
    t0, *g0s = np.broadcast_arrays(*(
        np.atleast_1d(np.asarray(v, dtype=complex))
        for v in (t0, *(g0 for _, g0 in densities))))

    def rows(s0r):
        """Aligned nodes s, weights w, z(s) and z'(s) w of the rows s0r."""
        s, w = _aligned_rows(s0r, n_panels, order)
        return (s, w, arc.z(s.ravel()).reshape(s.shape),
                arc.dz(s.ravel()).reshape(s.shape) * w)

    shared = np.ndim(s0) == 0
    if shared:
        row = rows(np.array([s0], dtype=float))
    s0 = np.broadcast_to(np.asarray(s0, dtype=float), t0.shape)
    log = np.log((1.0 - s0) / s0)
    outs = [g0 * log for g0 in g0s]
    # a row has at most n_panels + 3 panels (two ceilings and max(2, ...))
    for r in _row_blocks(t0.size, (n_panels + 3) * order):
        s, w, ts, dzw = row if shared else rows(s0[r])
        # sum_j [g(t_j) z'(s_j)/(t_j - t0) - g0/(s_j - s0)] w_j per density,
        # as sum_j g(t_j) kernel_j - g0 sum_j pole_j.  The panels are dropped
        # here, so the next block's reuse their memory; a block freed all at
        # once is returned to the system and faulted back in
        kernel = ts - t0[r, None]
        np.divide(dzw, kernel, out=kernel)
        pole = (w / (s - s0[r, None])).sum(axis=1)
        del s, w, dzw
        for (g, _), g0, out in zip(densities, g0s, outs):
            out[r] += (np.asarray(g(ts, r), dtype=complex) * kernel).sum(
                axis=1) - g0[r] * pole
    return outs


def plemelj_limits(g, arc: JordanArc, grid: QuadratureGrid, z0: complex,
                   margin: float = DEFAULT_ENDPOINT_MARGIN):
    """One-sided limits f+(z0), f-(z0) of the arc integral at interior z0.

    f+-(z0) = +-g(z0)/2 + (1/2*pi*i) P.V. int_L g(t)/(t - z0) dt.  Their
    difference is g(z0) and their sum is the principal-value integral scaled
    by 1/(pi*i).  z0 is located by Newton from the nearest grid node, and
    the principal value integrates on max(8, grid.n // 12) order-12 panels
    split at z0.
    """
    g = _as_density(g)
    smp = _sample(arc, grid)
    s0, loc = smp.locate(z0, 1e-8 * max(smp.length, 1.0))
    if s0 < margin or s0 > 1.0 - margin:
        raise EndpointError(
            f"z0 at parameter {s0:.4f} is within the endpoint margin {margin}")
    loc = complex(loc)
    g0 = complex(np.ravel(g(np.array([loc])))[0])
    pv = complex(_arc_pv_rows(((lambda t, r: g(t), g0),), arc, s0, loc,
                              max(8, grid.n // 12), 12)[0][0])
    plus = 0.5 * g0 + pv / (2j * np.pi)
    minus = -0.5 * g0 + pv / (2j * np.pi)
    return SidedLimit(plus, "plus", loc), SidedLimit(minus, "minus", loc)


def reconstruct_from_jump(jump, arc: JordanArc, grid: QuadratureGrid,
                          z: complex) -> complex:
    """f(z) rebuilt from its jump across L: (1/2*pi*i) int jump(t)/(t-z) dt."""
    return arc_cauchy_integral(jump, arc, grid, z, n=0)


def poincare_bertrand_residual(f2, arc: JordanArc, grid: QuadratureGrid,
                               x0: complex, n_panels: Optional[int] = None,
                               order: int = 12, cross_check: bool = True) -> float:
    """|LHS - RHS| of the order-exchange identity for nested principal values.

        LHS = P.V. int dt'/(t'-x0) P.V. int f2(t,t')/(t-t') dt
        RHS = int dt P.V. int f2(t,t') dt' /((t'-x0)(t-t')) - pi^2 f2(x0,x0)

    The inner RHS kernel splits by partial fractions into two single-pole
    principal values whose sum vanishes at t = x0, so the outer RHS integral
    is an ordinary one with a removable point.  The inner principal values
    at all outer nodes are evaluated together, so ``f2`` is called on
    arrays of t and t' that broadcast against each other and must
    broadcast too.  x0 is located by Newton from the nearest node of
    ``grid``; without ``n_panels`` the inner and outer panels of order
    ``order`` number max(8, grid.n // order).  The outer panels, split at
    x0, are graded toward the arc ends only: every outer integrand is
    smooth at x0, so the residual does not move with the last bits of s0.
    When ``cross_check`` is set the residual is computed at two grid levels
    and a slow-convergence warning is emitted if they disagree badly.
    """
    smp = _sample(arc, grid)
    s0, x0c = smp.locate(x0, 1e-8 * max(smp.length, 1.0))
    if n_panels is None:
        n_panels = max(8, grid.n // order)

    res = _pb_residual_once(f2, arc, s0, x0c, n_panels, order)
    if cross_check:
        res2 = _pb_residual_once(f2, arc, s0, x0c, int(1.5 * n_panels) + 1,
                                 order)
        floor = 1e-13
        if max(res, res2) > 10.0 * max(min(res, res2), floor):
            warnings.warn("nested principal values disagree across grid "
                          "levels; convergence is slow", AccuracyWarning,
                          stacklevel=2)
        return res2
    return res


def _pb_residual_once(f2, arc, s0, x0c, n_panels, order):
    """|LHS - RHS| at one grid level, x0c = z(s0)."""
    # outer quadrature nodes, split at s0 and graded toward the arc ends
    # (the inner principal values behave logarithmically there)
    s, w = _aligned_panels(s0, n_panels, order, grade=14)
    ts = arc.z(s)
    dts = arc.dz(s)

    # the inner singular points: every outer node, then x0
    sp, tp = np.append(s, s0), np.append(ts, x0c)
    diag = np.broadcast_to(np.asarray(f2(tp, tp), dtype=complex), tp.shape)

    # I(t') = P.V. int f2(t, t')/(t - t') dt and -B(t') = P.V. int
    # f2(t', t)/(t - t') dt at every t' share their panels and kernel
    I, minus_B = _arc_pv_rows(((lambda t, r: f2(t, tp[r, None]), diag),
                               (lambda t, r: f2(tp[r, None], t), diag)),
                              arc, sp, tp, n_panels, order)

    # LHS: outer principal value of I(t')/(t' - x0)
    I_vals, I_at_x0 = I[:-1], I[-1]
    h = I_vals * dts / (ts - x0c) - I_at_x0 / (s - s0)
    lhs = complex(np.sum(h * w) + I_at_x0 * np.log((1.0 - s0) / s0))

    # RHS: ordinary outer integral of [A(t) + B(t)]/(t - x0), removable at
    # x0, with A(t) = P.V. int f2(t, t')/(t' - x0) dt' (every row on the
    # panels aligned at s0) and B(t) = -P.V. int f2(t, t')/(t' - t) dt'
    A, = _arc_pv_rows(((lambda tq, r: f2(ts[r, None], tq), f2(ts, x0c)),),
                      arc, s0, x0c, n_panels, order)
    rhs_integral = complex(np.sum((A - minus_B[:-1]) / (ts - x0c) * dts * w))
    rhs = rhs_integral - np.pi ** 2 * diag[-1]
    return abs(lhs - rhs)
