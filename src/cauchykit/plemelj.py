"""Cauchy-type integrals over open arcs: one-sided limits, jump relations,
reconstruction from jumps, and the Poincare-Bertrand identity.

Unlike the closed-contour functionals, the arc integral

    f(z) = (1/2*pi*i) int_L g(t)/(t - z) dt

is a single analytic function off the arc, with a simple zero at infinity;
only across L does it jump, by g, so reconstruct_from_jump is another name
for arc_cauchy_integral (at n = 0).  Principal values on the arc are product
integrals on fixed Gauss-Legendre panels, by the evaluator that
pv_at_all_nodes takes on closed-contour panels (geometry._arc_pv_rows).
The panels' samples and their record (z at the breaks, half-lengths and
inverse Legendre-Vandermonde matrices, _Samples.panels) are kept for the
last two arcs (geometry._arc_panels), read-only, so a call on a recent
arc samples and factors nothing and computes only its own moments.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyWarning, DomainError, EndpointError, NonFiniteError
from .geometry import (_CAUCHY, JordanArc, QuadratureGrid, _arc_panels,
                       _arc_pv_rows, _arc_pv_weights, _equal_panels, _finite,
                       _kernel_sums, _one_point, _sample, _sided, _weighted,
                       panels_from_breakpoints)

DEFAULT_ENDPOINT_MARGIN = 0.02

# The order of Kress's map for the outer Poincare-Bertrand integral (from 5
# up, the end nodes of fine grids round onto the arc ends)
_KRESS_ORDER = 4


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


def _off_arc_sums(smp, parts, z, p=1):
    """sum_j c_j/(t_j - z)^p over the nodes t_j and weights c_j of all parts
    at each field point z (a complex for a scalar z).  A point in the on-arc
    band of the arc of ``smp`` raises DomainError, one in its near zone
    warns at the caller's caller; the nearest-node gap overstates the
    distance by under half a node gap, so Newton refines it below two
    widths only."""
    flat = np.asarray(z, dtype=complex).reshape(-1)
    dist, (s0, _) = smp.closest(flat, 2.0 * smp.near_zone)
    nearest = np.inf if s0 is None else dist.min()
    if nearest < smp.band:
        raise DomainError("field point on the arc; use plemelj_limits")
    if nearest < smp.near_zone:
        warnings.warn("field point is in the near zone of the arc; result "
                      "is ill-conditioned", AccuracyWarning, stacklevel=3)
    rows = [_kernel_sums(t, ((c, p),), flat)[0] for t, c in parts]
    out = sum(rows[1:], rows[0]) if rows else np.zeros(flat.size,
                                                        dtype=complex)
    return complex(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def _arc_parts(g, arc, grid, n=0):
    """(smp, parts) of f^(n) for _off_arc_sums: the arc's samples and its one
    part, the nodes and n! g z'w/2*pi*i."""
    smp = _sample(arc, grid)
    g = _finite(np.asarray(_as_density(g)(smp.zs), dtype=complex),
                "the density at a quadrature node")
    return smp, ((smp.zs, g * (smp.dzw * (_CAUCHY * math.factorial(n)))),)


def arc_cauchy_integral(g, arc: JordanArc, grid: QuadratureGrid, z: complex,
                        n: int = 0) -> complex:
    """f^(n)(z) = (n!/2*pi*i) int_L g(t)/(t - z)^(n+1) dt for z off the arc,
    one part (nodes, n! g z'w/2*pi*i) of _off_arc_sums, which takes an
    array of field points as well (_arc_parts); also reconstruct_from_jump,
    as f is rebuilt from its jump g by n = 0."""
    if np.ndim(z):
        raise TypeError("arc_cauchy_integral takes one field point z")
    return _off_arc_sums(*_arc_parts(g, arc, grid, n), z, n + 1)


# f(z) = (1/2*pi*i) int_L jump(t)/(t - z) dt: the arc integral at n = 0
reconstruct_from_jump = arc_cauchy_integral


def plemelj_limits(g, arc: JordanArc, grid: QuadratureGrid, z0: complex):
    """One-sided limits f+(z0), f-(z0) of the arc integral at interior z0.

    f+-(z0) = +-g(z0)/2 + (1/2*pi*i) P.V. int_L g(t)/(t - z0) dt.  Their
    difference is g(z0) and their sum is the principal-value integral scaled
    by 1/(pi*i).  z0 is located by Newton from the nearest panel node (and
    refused within DEFAULT_ENDPOINT_MARGIN of an end); the principal value
    is taken on _pv_panels (_arc_pv_rows), so the grid sets only their
    count.
    """
    at, pv, loc = _on_arc(g, arc, grid, _one_point(z0))
    loc = complex(loc[0])
    plus, minus = _sided(complex(pv[0]), complex(at[0]))
    return SidedLimit(plus, "plus", loc), SidedLimit(minus, "minus", loc)


def _on_arc(g, arc, grid, z0s):
    """(g(z0), P.V. int_L g(t)/(t - z0) dt, z0 = z(s0)), arrays, at each
    interior arc point of z0s, each located on its own: one density
    sampling at the nodes and the points, and one _arc_pv_rows over every
    point; the core of plemelj_limits, whose one point is a batch of one."""
    g, panels = _as_density(g), _pv_panels(arc, grid)
    s0, loc = panels.locate_all(z0s)
    ends = [s for s in s0.tolist() if not DEFAULT_ENDPOINT_MARGIN <= s
            <= 1.0 - DEFAULT_ENDPOINT_MARGIN]
    if ends:
        raise EndpointError(f"z0 at parameter {ends[0]:.4f} is within the "
                            f"endpoint margin {DEFAULT_ENDPOINT_MARGIN}")
    at = np.concatenate((panels.zs, loc))
    vals = _finite(np.asarray(g(at), dtype=complex) + np.zeros(at.shape),
                   "the density at a quadrature node")
    nodes = panels.zs.size
    return vals[nodes:], _arc_pv_rows(vals[:nodes], panels, s0, loc), loc


def _pv_panels(arc, grid):
    """The arc on the principal values' own max(8, grid.n // 12) equal
    panels of order 12, which three near panels need on a break, shared
    with their record for the last two arcs (geometry._arc_panels)."""
    return _arc_panels(arc, max(8, grid.n // 12))


def poincare_bertrand_residual(f2, arc: JordanArc, grid: QuadratureGrid,
                               x0: complex, cross_check: bool = True) -> float:
    """|LHS - RHS| of the order-exchange identity for nested principal values.

        LHS = P.V. int dt'/(t'-x0) P.V. int f2(t,t')/(t-t') dt
        RHS = int dt P.V. int f2(t,t') dt' /((t'-x0)(t-t')) - pi^2 f2(x0,x0)

    The inner RHS kernel splits by partial fractions into two single-pole
    principal values whose sum vanishes at t = x0, so the outer RHS integral
    is an ordinary one with a removable point.  Every inner principal value
    is taken on fixed panels (first level: _pv_panels), so ``f2`` gets
    arrays of t and t' that broadcast against each other and must broadcast
    too.  x0 is located by Newton from the nearest first-level panel node.
    The outer integral runs over sigma, s = sigma^4/(sigma^4 + (1 -
    sigma)^4) (Kress, Numer. Math. 58, 1990), on panels split at sigma(x0).
    With ``cross_check`` a second grid level warns if the two disagree
    badly; a non-finite level raises NonFiniteError."""
    inner = _pv_panels(arc, grid)
    s0, x0c = inner.locate(x0)
    res = _pb_residual_once(f2, arc, s0, x0c, inner)
    if cross_check:
        finer = _equal_panels(int(1.5 * (inner.grid.breaks.size - 1)) + 1)
        res2 = _pb_residual_once(f2, arc, s0, x0c, _sample(arc, finer))
        # below 1e-11 both levels sit at the rule's rounding and far-panel
        # error, where a tenfold ratio between them says nothing
        if max(res, res2) > 10.0 * max(min(res, res2), 1e-11):
            warnings.warn("nested principal values disagree across grid "
                          "levels; convergence is slow", AccuracyWarning,
                          stacklevel=2)
        return res2
    return res


def _pb_residual_once(f2, arc, s0, x0c, inner):
    """|LHS - RHS| at one grid level, x0c = z(s0), on the ``inner`` panel
    samples.  The outer nodes: max(2, ...) equal sigma panels of the inner
    order on either side of sigma0, mapped to s, and dt/dsigma there."""
    n_panels = inner.grid.breaks.size - 1
    order, p = inner.grid.n // n_panels, _KRESS_ORDER
    sig0 = 1.0 / (1.0 + ((1.0 - s0) / s0) ** (1.0 / p))
    left, right = (max(2, math.ceil(n_panels * f)) for f in (sig0, 1 - sig0))
    outer = panels_from_breakpoints(np.concatenate((np.linspace(
        0.0, sig0, left + 1), np.linspace(sig0, 1.0, right + 1)[1:])), order)
    sig, w = outer.nodes, outer.weights
    lo, hi = sig ** p, (1.0 - sig) ** p
    s = lo / (lo + hi)
    ts = arc.z(s)
    dts = arc.dz(s) * (p * (sig * (1.0 - sig)) ** (p - 1) / (lo + hi) ** 2)

    # I(t') = P.V. int f2(t, t')/(t - t') dt and -B(t') = P.V. int
    # f2(t', t)/(t - t') dt at every outer node t', then at x0; and A(t) =
    # P.V. int f2(t, t')/(t' - x0) dt' at every outer node t, from the
    # samples f2(t', t) of -B against x0's weights (its last row unused),
    # the last row of the same build, copied out of the buffer blocks share
    zs, sp, tp = inner.zs, np.append(s, s0), np.append(ts, x0c)
    weights, blocks = _arc_pv_weights(inner, sp, tp)
    at_x0 = weights(slice(-1, None))[0].copy()
    I, minus_B, A = np.empty((3, tp.size), dtype=complex)
    for r in blocks:
        wr = weights(r)
        I[r] = _weighted(f2(zs, tp[r, None]), wr)
        g = f2(tp[r, None], zs)
        minus_B[r], A[r] = _weighted(g, wr), _weighted(g, at_x0)

    # LHS: outer P.V. of I(t')/(t' - x0), with residue I(x0) at sigma0
    h = I[:-1] * dts / (ts - x0c) - I[-1] / (sig - sig0)
    lhs = complex(np.sum(h * w) + I[-1] * np.log((1.0 - sig0) / sig0))

    # RHS: outer integral of [A(t) + B(t)]/(t - x0), removable at x0, with
    # B(t) = -P.V. int f2(t, t')/(t' - t) dt' (minus_B above with t and t'
    # renamed)
    rhs = complex(np.sum((A[:-1] - minus_B[:-1]) / (ts - x0c) * dts * w)
                  - np.pi ** 2 * np.ravel(f2(tp[-1:], tp[-1:]))[0])
    if not np.isfinite(lhs - rhs):
        raise NonFiniteError(f"Poincare-Bertrand residual is not finite at "
                             f"{n_panels} panels of order {order}")
    return abs(lhs - rhs)
