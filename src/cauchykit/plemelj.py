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

from .errors import DomainError, EndpointError
from .geometry import (JordanArc, QuadratureGrid, _locate_on,
                       gauss_panel_grid, near_zone_width)

DEFAULT_ENDPOINT_MARGIN = 0.02


@dataclass(frozen=True)
class ArcDensity:
    """Complex density on a Jordan arc, finite at endpoints, smooth inside."""

    func: Callable
    smoothness: Optional[int] = None
    antiderivative: Optional[Callable] = None   # for oracle use only

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
    _, dist = arc.locate(z)
    if dist < 1e-12:
        raise DomainError("z lies on the arc; use plemelj_limits")
    if dist < near_zone_width(arc, grid):
        warnings.warn("target is in the near zone of the arc; result is "
                      "ill-conditioned", RuntimeWarning, stacklevel=2)
    ts = arc.z(grid.nodes)
    dts = arc.dz(grid.nodes)
    vals = np.broadcast_to(np.asarray(g(ts), dtype=complex), ts.shape)
    return complex(math.factorial(n) / (2j * np.pi)
                   * np.sum(vals * dts * grid.weights / (ts - z) ** (n + 1)))


def _aligned_panels(s0, n_panels, order, grade=0):
    """GL panels on [0, 1] split at s0 so no node hits the singular point."""
    left_ct = max(2, int(np.ceil(n_panels * s0)))
    right_ct = max(2, int(np.ceil(n_panels * (1.0 - s0))))
    gl = gauss_panel_grid(left_ct, order, grade=grade, a=0.0, b=s0)
    gr = gauss_panel_grid(right_ct, order, grade=grade, a=s0, b=1.0)
    return (np.concatenate([gl.nodes, gr.nodes]),
            np.concatenate([gl.weights, gr.weights]))


def _arc_pv(gfunc, arc: JordanArc, s0: float, n_panels: int = 24,
            order: int = 12, grade: int = 0) -> complex:
    """P.V. int_L g(t)/(t - t0) dt with t0 = z(s0) interior to the arc.

    Subtracts g(t0)/(s - s0) in parameter space; the bare parameter pole
    integrates to log((1 - s0)/s0).
    """
    t0 = arc.z(np.array([s0]))[0]
    g0 = complex(np.ravel(np.asarray(gfunc(np.array([t0]))))[0])
    s, w = _aligned_panels(s0, n_panels, order, grade)
    ts = arc.z(s)
    dts = arc.dz(s)
    vals = np.broadcast_to(np.asarray(gfunc(ts), dtype=complex), ts.shape)
    h = vals * dts / (ts - t0) - g0 / (s - s0)
    return complex(np.sum(h * w) + g0 * np.log((1.0 - s0) / s0))


def _panel_hint(grid: QuadratureGrid):
    # recover a panel count / order resolution hint from a panel grid
    n = grid.n
    order = 12
    return max(8, n // order), order


def plemelj_limits(g, arc: JordanArc, grid: QuadratureGrid, z0: complex,
                   margin: float = DEFAULT_ENDPOINT_MARGIN):
    """One-sided limits f+(z0), f-(z0) of the arc integral at interior z0.

    f+-(z0) = +-g(z0)/2 + (1/2*pi*i) P.V. int_L g(t)/(t - z0) dt.  Their
    difference is g(z0) and their sum is the principal-value integral scaled
    by 1/(pi*i).
    """
    g = _as_density(g)
    s0 = _locate_on(arc, z0, 1e-8 * max(arc.length(), 1.0))
    if s0 < margin or s0 > 1.0 - margin:
        raise EndpointError(
            f"z0 at parameter {s0:.4f} is within the endpoint margin {margin}")
    n_panels, order = _panel_hint(grid)
    pv = _arc_pv(g.func, arc, s0, n_panels, order)
    g0 = complex(np.asarray(g(np.array([arc.z(np.array([s0]))[0]])))[0])
    plus = 0.5 * g0 + pv / (2j * np.pi)
    minus = -0.5 * g0 + pv / (2j * np.pi)
    loc = complex(arc.z(np.array([s0]))[0])
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
    is an ordinary one with a removable point.  When ``cross_check`` is set
    the residual is computed at two grid levels and a slow-convergence
    warning is emitted if they disagree badly.
    """
    s0 = _locate_on(arc, x0, 1e-8 * max(arc.length(), 1.0))
    if n_panels is None:
        n_panels, order = _panel_hint(grid)

    res = _pb_residual_once(f2, arc, s0, x0, n_panels, order)
    if cross_check:
        res2 = _pb_residual_once(f2, arc, s0, x0, int(1.5 * n_panels) + 1, order)
        floor = 1e-13
        if max(res, res2) > 10.0 * max(min(res, res2), floor):
            warnings.warn("nested principal values disagree across grid "
                          "levels; convergence is slow", RuntimeWarning,
                          stacklevel=2)
        return res2
    return res


def _pb_residual_once(f2, arc, s0, x0, n_panels, order):
    inner_panels = n_panels
    grade = 14

    def inner_pv_in_t(t_prime_param):
        # I(t') = P.V. int f2(t, t')/(t - t') dt, singular point at t'
        tp = complex(arc.z(np.array([t_prime_param]))[0])
        return _arc_pv(lambda t: f2(t, tp), arc, t_prime_param,
                       inner_panels, order)

    def inner_pv_in_tprime(t_param, pole_param):
        # P.V. int f2(t, t')/(t' - pole) dt' at fixed t
        t = complex(arc.z(np.array([t_param]))[0])
        return _arc_pv(lambda tp: f2(t, tp), arc, pole_param,
                       inner_panels, order)

    x0c = complex(arc.z(np.array([s0]))[0])

    # outer quadrature nodes, split at s0 and graded toward the endpoints
    # (the inner principal values behave logarithmically there)
    s, w = _aligned_panels(s0, n_panels, order, grade=grade)
    ts = arc.z(s)
    dts = arc.dz(s)

    # LHS: outer principal value of I(t')/(t' - x0)
    I_vals = np.array([inner_pv_in_t(si) for si in s])
    I_at_x0 = inner_pv_in_t(s0)
    h = I_vals * dts / (ts - x0c) - I_at_x0 / (s - s0)
    lhs = complex(np.sum(h * w) + I_at_x0 * np.log((1.0 - s0) / s0))

    # RHS: ordinary outer integral of [A(t) + B(t)]/(t - x0), removable at x0
    def n_of(si, ti):
        a = inner_pv_in_tprime(si, s0)                  # pole at t' = x0
        b = -inner_pv_in_tprime(si, si)                 # kernel 1/(t - t')
        return a + b

    N_vals = np.array([n_of(si, ti) for si, ti in zip(s, ts)])
    rhs_integral = complex(np.sum(N_vals / (ts - x0c) * dts * w))
    rhs = rhs_integral - np.pi ** 2 * complex(f2(x0c, x0c))
    return abs(lhs - rhs)
