"""Cauchy-type integrals over open arcs: one-sided limits, jump relations,
reconstruction from jumps, and the Poincare-Bertrand identity.

Unlike the closed-contour functionals, the arc integral

    f(z) = (1/2*pi*i) int_L g(t)/(t - z) dt

is a single analytic function off the arc, with a simple zero at infinity;
only across L does it jump, by g.  Principal values on the arc are product
integrals on fixed Gauss-Legendre panels sampled once (_arc_pv_rows).
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AccuracyWarning, DomainError, EndpointError, NonFiniteError
from .geometry import (_CAUCHY, JordanArc, QuadratureGrid, _kernel_sums,
                       _legendre_steps, _panel_samples, _row_blocks, _sample,
                       _sided, panels_from_breakpoints)

DEFAULT_ENDPOINT_MARGIN = 0.02

# Half-panels within which a target counts as on a panel break (far above
# the rounding of t0 - break, far below what a panel resolves), and on an
# arc end; the order of Kress's map for the outer Poincare-Bertrand integral
# (from 5 up, the end nodes of fine grids round onto the arc ends)
_BREAK_BAND, _EPS, _KRESS_ORDER = 1e-8, np.finfo(float).eps, 4


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


def _on_arc_band(smp) -> float:
    """On-arc band: plemelj_limits locates within it, _off_arc_sums refuses."""
    return 1e-8 * max(smp.length, 1.0)


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
    if nearest < _on_arc_band(smp):
        raise DomainError("field point on the arc; use plemelj_limits")
    if nearest < smp.near_zone:
        warnings.warn("field point is in the near zone of the arc; result "
                      "is ill-conditioned", AccuracyWarning, stacklevel=3)
    rows = [_kernel_sums(t, ((c, p),), flat)[0] for t, c in parts]
    out = sum(rows[1:], rows[0]) if rows else np.zeros(flat.size,
                                                        dtype=complex)
    return complex(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def _jump_part(g, arc, grid, z, n=0):
    """The arc's samples on the grid and the part (nodes, n! g z'w/2*pi*i)."""
    if np.ndim(z):
        raise TypeError("arc_cauchy_integral takes one field point z")
    smp = _sample(arc, grid)
    return smp, ((smp.zs, np.asarray(_as_density(g)(smp.zs), dtype=complex)
                  * (smp.dzw * (_CAUCHY * math.factorial(n)))),)


def arc_cauchy_integral(g, arc: JordanArc, grid: QuadratureGrid, z: complex,
                        n: int = 0) -> complex:
    """f^(n)(z) = (n!/2*pi*i) int_L g(t)/(t - z)^(n+1) dt for z off the arc."""
    smp, parts = _jump_part(g, arc, grid, z, n)
    return _off_arc_sums(smp, parts, z, n + 1)


def _arc_pv_rows(densities, smp, order, s0, t0, rows=None) -> list:
    """P.V. int_L g(r)/(t - t0[r]) dt for every row r and density g, t0 =
    z(s0) on the arc (scalars: one target for ``rows`` rows); g(r) gives the
    density at the nodes of ``smp`` (_panel_samples) for the rows in the
    slice r, a block at a time.  The plain rule serves every panel but t0's
    own and its two neighbours; there, with tau = (t - mid)/half mapping a
    panel onto [-1, 1], the density's Legendre interpolant is integrated
    against 1/(tau - tau0) exactly (Helsing & Ojala, J. Comput. Phys. 227,
    2008): moments by recurrence from m_0 = log(1 - tau0) - log(-1 - tau0),
    a P.V. on the own panel, then a Legendre-Vandermonde solve."""
    n, zs, dzw = smp.grid.n // order, smp.zs, smp.dzw
    ends = smp.contour.z(np.arange(n + 1) / n)
    half = 0.5 * (ends[1:] - ends[:-1])
    s0, t0 = np.asarray(s0, dtype=float), np.asarray(t0, dtype=complex)
    targets, sn = t0.reshape(-1, 1), s0.reshape(-1, 1) * n
    # each target's near panels (inside the arc) and their ends b.  m_0 is
    # the log of the ratio of a panel's end differences, +-(end - t0) along
    # the panel and shared with the next panel, so the logs of a break
    # cancel; one within the band of t0 (or behind it) is held at the band
    width = min(3, n)
    b = np.minimum(np.maximum(sn.astype(int) - 1, 0), n - width) \
        + np.arange(width + 1)
    near, diff = b[:, :-1], ends[b] - targets
    along = half[np.minimum(b, n - 1)]
    u = np.where(b > sn, diff, -diff) / along
    band = np.where(b % n, _BREAK_BAND, _EPS)      # inner breaks, arc ends
    d = np.where(u.real > band, u, band) * along
    m0 = np.log(d[:, 1:] / d[:, :-1]).ravel()
    # one recurrence (_legendre_steps) for the moments at every tau0 and the
    # matrices of the panels lo..hi-1, in P_i/c_i: the weights do not see c_i
    lo, hi, k = near.min(), near.max() + 1, m0.size
    x = np.concatenate(((-1.0 - diff[:, :-1] / along[:, :-1]).ravel(), (
        (zs.reshape(n, order)[lo:hi] - ends[lo:hi, None])
        / half[lo:hi, None] - 1.0).ravel()))
    steps = np.multiply.outer(_legendre_steps(order), x)
    v = np.empty((order, x.size), dtype=complex)
    v[0], v[1], v[0, :k] = 1.0, x, m0
    v[1, :k] = x[:k] * m0 + 2.0
    vr = list(v)                        # row views, indexed without numpy
    for i in range(1, order - 1):
        np.multiply(steps[i - 1], vr[i], out=vr[i + 1])
        np.subtract(vr[i + 1], vr[i - 1], out=vr[i + 1])
    vt = v[:, k:].reshape(order, hi - lo, order).transpose(1, 0, 2)
    if t0.size == 1:        # one target: its panels lo..hi-1 by one solve
        w, inv = zs - t0.reshape(-1)[0], None
        np.divide(dzw, w, out=w, where=w != 0)   # a node on t0 is near
        w[lo * order:hi * order] = np.linalg.solve(
            vt, v[:, :k].T[..., None]).ravel()
    else:                   # many: each panel's inverse serves its targets
        moments = v[:, :k].T.copy().reshape(near.shape + (1, order))
        inv = np.linalg.inv(np.swapaxes(vt, 1, 2))

        def weights(r):
            """Node weights of the targets in the slice r."""
            w = zs - targets[r]
            np.divide(dzw, w, out=w, where=w != 0)
            w.reshape(-1, n, order)[np.arange(len(w))[:, None], near[r]] = (
                moments[r] @ inv[near[r] - lo])[..., 0, :]
            return w
    del v, vr, vt, x, steps
    rows = t0.size if rows is None else rows
    outs = [np.empty(rows, dtype=complex) for _ in densities]
    # a block's weights and its gathered inverses each fill at most a block
    for r in _row_blocks(rows, max(zs.size, width * order * order)):
        wr = w if inv is None else weights(r)
        for g, out in zip(densities, outs):     # a scalar g(r) broadcasts
            out[r] = np.einsum("...j,...j->...", np.atleast_1d(g(r)), wr)
        del wr                          # the next block reuses its memory
    return outs


def plemelj_limits(g, arc: JordanArc, grid: QuadratureGrid, z0: complex,
                   margin: float = DEFAULT_ENDPOINT_MARGIN):
    """One-sided limits f+(z0), f-(z0) of the arc integral at interior z0.

    f+-(z0) = +-g(z0)/2 + (1/2*pi*i) P.V. int_L g(t)/(t - z0) dt.  Their
    difference is g(z0) and their sum is the principal-value integral scaled
    by 1/(pi*i).  z0 is located by Newton from the nearest grid node; the
    principal value is taken on max(8, grid.n // 12) fixed order-12 panels
    (_arc_pv_rows), the grid's own samples when it is those panels.
    """
    g = _as_density(g)
    smp = _sample(arc, grid)
    s0, loc = smp.locate(z0, _on_arc_band(smp))
    if s0 < margin or s0 > 1.0 - margin:
        raise EndpointError(
            f"z0 at parameter {s0:.4f} is within the endpoint margin {margin}")
    loc = complex(loc)
    panels = _panel_samples(arc, max(8, grid.n // 12), 12, smp)
    at = np.concatenate((panels.zs, (loc,)))
    vals = np.asarray(g(at), dtype=complex) + np.zeros(at.shape)
    plus, minus = _sided(complex(_arc_pv_rows(
        (lambda r: vals[:-1],), panels, 12, s0, loc)[0][0]), complex(vals[-1]))
    return SidedLimit(plus, "plus", loc), SidedLimit(minus, "minus", loc)


def reconstruct_from_jump(jump, arc: JordanArc, grid: QuadratureGrid,
                          z: complex) -> complex:
    """f(z) rebuilt from its jump across L: (1/2*pi*i) int jump(t)/(t-z) dt,
    arc_cauchy_integral at n = 0."""
    smp, parts = _jump_part(jump, arc, grid, z)
    return _off_arc_sums(smp, parts, z)


def poincare_bertrand_residual(f2, arc: JordanArc, grid: QuadratureGrid,
                               x0: complex, n_panels: Optional[int] = None,
                               order: int = 12, cross_check: bool = True) -> float:
    """|LHS - RHS| of the order-exchange identity for nested principal values.

        LHS = P.V. int dt'/(t'-x0) P.V. int f2(t,t')/(t-t') dt
        RHS = int dt P.V. int f2(t,t') dt' /((t'-x0)(t-t')) - pi^2 f2(x0,x0)

    The inner RHS kernel splits by partial fractions into two single-pole
    principal values whose sum vanishes at t = x0, so the outer RHS integral
    is an ordinary one with a removable point.  Every inner principal value
    is taken on n_panels fixed panels of order ``order`` (default max(8,
    grid.n // order)), so ``f2`` gets arrays of t and t' that broadcast
    against each other and must broadcast too.  x0 is located by Newton from
    the nearest node of ``grid``.  The outer integral runs over sigma, s =
    sigma^4/(sigma^4 + (1 - sigma)^4) (Kress, Numer. Math. 58, 1990), on
    panels split at sigma(x0).  With ``cross_check`` a second grid level
    warns if the two disagree badly; a non-finite level raises
    NonFiniteError."""
    smp = _sample(arc, grid)
    s0, x0c = smp.locate(x0, _on_arc_band(smp))
    if n_panels is None:
        n_panels = max(8, grid.n // order)
    res = _pb_residual_once(f2, arc, s0, x0c, n_panels, order, smp)
    if cross_check:
        res2 = _pb_residual_once(f2, arc, s0, x0c, int(1.5 * n_panels) + 1,
                                 order, smp)
        # below 1e-11 both levels sit at the rule's rounding and far-panel
        # error, where a tenfold ratio between them says nothing
        if max(res, res2) > 10.0 * max(min(res, res2), 1e-11):
            warnings.warn("nested principal values disagree across grid "
                          "levels; convergence is slow", AccuracyWarning,
                          stacklevel=2)
        return res2
    return res


def _pb_residual_once(f2, arc, s0, x0c, n_panels, order, smp=None):
    """|LHS - RHS| at one grid level, x0c = z(s0), reusing ``smp`` when its
    grid is the inner panels.  The outer nodes: max(2, ...) equal sigma
    panels on either side of sigma0, mapped to s, and dt/dsigma there."""
    p = _KRESS_ORDER
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
    # f2(t', t)/(t - t') dt at every outer node t', then at x0
    inner = _panel_samples(arc, n_panels, order, smp)
    zs, sp, tp = inner.zs, np.append(s, s0), np.append(ts, x0c)
    I, minus_B = _arc_pv_rows((lambda r: f2(zs, tp[r, None]),
                               lambda r: f2(tp[r, None], zs)),
                              inner, order, sp, tp)

    # LHS: outer P.V. of I(t')/(t' - x0), with residue I(x0) at sigma0
    h = I[:-1] * dts / (ts - x0c) - I[-1] / (sig - sig0)
    lhs = complex(np.sum(h * w) + I[-1] * np.log((1.0 - sig0) / sig0))

    # RHS: outer integral of [A(t) + B(t)]/(t - x0), removable at x0, with
    # A(t) = P.V. int f2(t, t')/(t' - x0) dt' and B(t) = -P.V. int f2(t,
    # t')/(t' - t) dt' (minus_B above with t and t' renamed)
    A, = _arc_pv_rows((lambda r: f2(ts[r, None], zs),), inner, order, s0,
                      x0c, ts.size)
    rhs = complex(np.sum((A - minus_B[:-1]) / (ts - x0c) * dts * w)
                  - np.pi ** 2 * np.ravel(f2(tp[-1:], tp[-1:]))[0])
    if not np.isfinite(lhs - rhs):
        raise NonFiniteError(f"Poincare-Bertrand residual is not finite at "
                             f"{n_panels} panels of order {order}")
    return abs(lhs - rhs)
