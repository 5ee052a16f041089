"""Cauchy functionals, boundary relations, and integral-theorem checks.

The central objects are the order-n functionals

    J_n[f](z)     = (n!/2*pi*i) contour-int f(t)/(t-z)^(n+1) dt
    J_(n,m)[f](z) = ((n-m)!/2*pi*i) contour-int f^(m)(t)/(t-z)^(n-m+1) dt
    K_n[f](t0)    = (1/pi*i) P.V. contour-int f^(n)(t)/(t-t0) dt

which reproduce f^(n) inside the contour, annihilate outside, and reproduce
f^(n) on the contour, together with the mirrored complement functionals for
densities regular outside the contour and decaying at infinity.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapabilityError, ContractError, OnContourError
from .geometry import (ClosedContour, PointClassification, QuadratureGrid,
                       _evaluate, _finite, _one_point, _pv, _pv_summands,
                       _require_periodic, _sample, _sided,
                       _warn_if_unresolved, circle, periodic_trapezoid_grid,
                       spectral_derivative, trig_interp)


@dataclass(frozen=True)
class BoundaryFunction:
    """Complex density on (a neighborhood of) a contour or arc.

    ``func`` must accept ndarray arguments.  ``derivs`` optionally supplies
    analytic derivative evaluators (derivs[0] is f', derivs[1] is f'', ...);
    when absent, derivative samples on a periodic grid are produced by
    differentiating the trigonometric interpolant of the boundary samples in
    the contour parameter and dividing by z'(s).  ``smoothness`` declares the
    continuous-differentiability order n (None means unlimited), ``decay``
    the exponent m in O(|z|^-m) at infinity for complement densities.
    """

    func: Callable
    derivs: tuple = ()
    smoothness: Optional[int] = None
    decay: Optional[float] = None

    def __call__(self, t):
        return self.func(np.asarray(t, dtype=complex))

    def derivative_callable(self, m: int):
        """Analytic m-th derivative evaluator, or None if not supplied."""
        if m == 0:
            return self.func
        if m <= len(self.derivs):
            return self.derivs[m - 1]
        return None

    def require_order(self, m: int):
        if self.smoothness is not None and m > self.smoothness:
            raise CapabilityError(
                f"density declares smoothness C^{self.smoothness}, "
                f"order {m} requested")

    def samples(self, contour: ClosedContour, grid: QuadratureGrid,
                m: int = 0) -> np.ndarray:
        """Samples of f^(m) at the grid nodes (spectral fallback)."""
        return self._at_nodes(_sample(contour, grid), m)

    def _at_nodes(self, smp, m):
        """samples() from the contour's node samples ``smp``;
        NonFiniteError where they are not finite."""
        self.require_order(m)
        dc = self.derivative_callable(m)
        if dc is not None:
            vals = np.asarray(dc(smp.zs), dtype=complex)
        else:
            _require_periodic(smp.grid, "a spectral density derivative")
            vals = np.asarray(self.func(smp.zs), dtype=complex)
            for _ in range(m):
                vals = spectral_derivative(vals) / smp.dzs
        return _finite(vals, f"f^({m}) at a quadrature node")

    def require_decay(self):
        """ContractError unless the declared decay at infinity is >= 2, as
        the complement functionals need."""
        if self.decay is None or not (self.decay >= 2):    # NaN fails too
            raise ContractError("complement density must declare decay >= 2")


def validate_derivatives(f: BoundaryFunction, contour: ClosedContour,
                         grid: QuadratureGrid) -> float:
    """Max relative mismatch, over every grid node, between supplied
    derivatives and spectral ones; ContractError above 1e-6."""
    smp, bare, worst = _sample(contour, grid), BoundaryFunction(f.func), 0.0
    for m, dm in enumerate(f.derivs, 1):
        supplied = np.asarray(dm(smp.zs))
        err = np.abs(supplied - bare._at_nodes(smp, m))
        worst = max(worst, float(err.max() / (np.abs(supplied).max() + 1e-300)))
    if worst > 1e-6:
        raise ContractError(
            f"supplied derivatives disagree with spectral estimates "
            f"({worst:.2e} relative)")
    return worst


@dataclass(frozen=True)
class FunctionalValue:
    """Value of a Cauchy-type functional with its evaluation context."""

    value: complex
    target: complex
    classification: PointClassification
    order: tuple = (0, 0)
    near_zone: bool = False


_ON_CONTOUR = "target lies on the contour; use boundary_value / one_sided_limit"


def _functional(smp, z, n, m, near_m):
    """J_(n,m)[f](z) from one sampling, taking m = near_m instead for a
    target in the near zone: a batch of one for _evaluate; OnContourError
    for a target on the contour."""
    z = np.asarray(z, dtype=complex)
    if z.ndim:
        raise TypeError("a functional takes one target z, not an array")
    ev = _evaluate(smp, z, ((n, m, near_m),))
    cl = ev.classification(0)
    if cl.on_contour:
        raise OnContourError(_ON_CONTOUR)
    return FunctionalValue(complex(ev.sums[1, 0]), complex(z), cl, (n, m),
                           bool(ev.near[0]))


def cauchy_functional(f: BoundaryFunction, contour: ClosedContour,
                      grid: QuadratureGrid, z: complex,
                      n: int = 0) -> FunctionalValue:
    """J_n[f](z): equals f^(n)(z) inside the contour and 0 outside.

    Targets in the near zone with n >= 1 are rerouted through the
    integrated-by-parts form with the first-order kernel, which stays well
    conditioned where the high-power kernel does not.
    """
    f.require_order(n)
    return _functional(_sample(contour, grid, f), z, n, 0, n)


def generalized_functional(f: BoundaryFunction, contour: ClosedContour,
                           grid: QuadratureGrid, z: complex, n: int,
                           m: int) -> FunctionalValue:
    """J_(n,m)[f](z), the m-times integrated-by-parts form of J_n.

    All m in 0..n are equivalent formulas for f^(n)(z) inside (and for 0
    outside); the first-order kernel at m = n is the best conditioned.
    """
    if not 0 <= m <= n:
        raise CapabilityError(f"need 0 <= m <= n, got (n, m) = ({n}, {m})")
    f.require_order(max(n, m))
    return _functional(_sample(contour, grid, f), z, n, m, m)


def _boundary_terms(smp, n, located):
    """(f^(n)(t0), P.V. of f^(n)(t)/(t - t0) dt), arrays, at the contour
    points located = (s0, t0), scalars or arrays."""
    s0, t0 = [np.array(a, ndmin=1) for a in located]
    samples = smp.f(n)
    # no callable for f^(n): smp.f(n) refused a non-periodic grid already
    dc = smp.density.derivative_callable(n)
    at = trig_interp(samples, s0) if dc is None \
        else np.asarray(dc(t0), dtype=complex)
    return at, _pv(samples, at, smp, s0, t0, n)


def _on_contour(f, contour, grid, t0s, n=0):
    """_boundary_terms at each contour point of the array t0s, located on
    one sampling: the core of the boundary routes, whose one point is a
    batch of one (_one_point).  Each point's terms are its own bit for bit
    where f^(n) has a callable; the trigonometric interpolant of several
    points (trig_interp) is one matrix product, which rounds otherwise."""
    smp = _sample(contour, grid, f)
    return _boundary_terms(smp, n, smp.locate_all(t0s))


def pv_contour_integral(f, contour: ClosedContour, grid: QuadratureGrid,
                        t0: complex) -> complex:
    """Principal value of f(t)/(t - t0) dt over the contour, t0 on it.

    Satisfies the boundary relation P.V. of f/(t - t0) = i*pi*f(t0) for f
    regular inside and on the contour; the location-independent constant for
    the reversed kernel is available as :func:`pv_singular_weight`.  Warns
    when a periodic grid does not resolve f.
    """
    smp = _sample(contour, grid, BoundaryFunction(f))
    located = smp.locate(t0)
    _warn_if_unresolved(smp.f(0), grid, "the density")
    return complex(_boundary_terms(smp, 0, located)[1][0])


def boundary_value(f: BoundaryFunction, contour: ClosedContour,
                   grid: QuadratureGrid, t0: complex, n: int = 0) -> complex:
    """K_n[f](t0) = (1/pi*i) P.V. of f^(n)(t)/(t - t0) dt; equals f^(n)(t0)."""
    _, pv = _on_contour(f, contour, grid, _one_point(t0), n)
    return complex(pv[0]) / (1j * np.pi)


def _boundary_values(f, contour, grid, t0s, n=0):
    """boundary_value at each contour point of the array t0s, each quotient
    by pi*i Python's complex division, as boundary_value's (numpy's rounds
    otherwise)."""
    _, pv = _on_contour(f, contour, grid, t0s, n)
    return np.array([p / (1j * np.pi) for p in pv.tolist()])


def _one_sided_limits(f, contour, grid, t0s, side):
    """one_sided_limit at each contour point of the array t0s."""
    at, pv = _on_contour(f, contour, grid, t0s)
    return _sided(pv, at)[side == "exterior"]


def one_sided_limit(f: BoundaryFunction, contour: ClosedContour,
                    grid: QuadratureGrid, t0: complex,
                    side: str = "interior") -> complex:
    """Limit of J[f](z) as z -> t0 from the chosen side of the contour.

    The interior limit reproduces f(t0) (relation I); the exterior limit
    is 0.
    """
    if side not in ("interior", "exterior"):
        raise ValueError("side must be 'interior' or 'exterior'")
    return complex(_one_sided_limits(f, contour, grid, _one_point(t0),
                                     side)[0])


def complement_functional(F: BoundaryFunction, contour: ClosedContour,
                          grid: QuadratureGrid, z: complex,
                          n: int = 0) -> FunctionalValue:
    """J-_n[F](z) = (-1/2*pi*i) int F^(n)(t)/(t-z) dt.

    Equals F^(n)(z) outside the contour, 0 inside, for F regular outside
    with declared decay O(|z|^-m), m >= 2.
    """
    F.require_decay()
    F.require_order(n)
    fv = _functional(_sample(contour, grid, F), z, n, n, n)
    return replace(fv, value=-fv.value)


def complement_boundary_value(F: BoundaryFunction, contour: ClosedContour,
                              grid: QuadratureGrid, t0: complex,
                              n: int = 0) -> complex:
    """K-_n[F](t0) = (-1/pi*i) P.V. of F^(n)(t)/(t-t0) dt; equals F^(n)(t0)
    for F regular outside with declared decay m >= 2."""
    F.require_decay()
    return -boundary_value(F, contour, grid, t0, n)


@dataclass(frozen=True)
class ResidualReport:
    """Uniform-convergence residuals over a family of target points."""

    max_inside: float           # max |J_n[f](z) - f^(n)(z)| over D+ and C
    max_outside: float          # max |J_n[f](z)| over D- and C
    residuals: np.ndarray
    verdicts: tuple = field(default=())


def uniform_convergence_residuals(f: BoundaryFunction, contour: ClosedContour,
                                  grid: QuadratureGrid,
                                  targets: Sequence[complex],
                                  n: int = 0) -> ResidualReport:
    """Residuals g_n = J_n[f] - f^(n) on the closed interior and G_n = J_n[f]
    on the closed exterior; on the contour both reduce to the principal-value
    combination -f^(n)/2 + K_n/2, which vanishes identically.  All targets
    are classified and evaluated in one array pass, to the bits of one
    cauchy_functional call each, and f^(n) is one call at the inside ones.
    """
    f.require_order(n)
    smp = _sample(contour, grid, f)
    z = np.asarray(targets, dtype=complex).reshape(-1)
    ev = _evaluate(smp, z, ((n, 0, n),))
    side, g = ev.side, ev.sums[1]
    inside = side == 1
    if inside.any():
        dc = f.derivative_callable(n)
        if dc is None:
            raise CapabilityError(
                "interior residuals at n > 0 need an analytic derivative")
        g[inside] -= np.asarray(dc(z[inside]), dtype=complex)
    on = side == 2
    if on.any():        # the exterior limit, f-
        at, pv = _boundary_terms(smp, n, [a[on] for a in ev.located])
        g[on] = _sided(pv, at)[1]
    res = np.hypot(g.real, g.imag)      # the bits of abs(complex)
    # fmax, as max() from 0.0, passes over a NaN residual
    return ResidualReport(
        float(np.fmax.reduce(res[side >= 1], initial=0.0)),
        float(np.fmax.reduce(res[~inside], initial=0.0)), res,
        tuple(np.take(("outside", "inside", "on-contour"), side).tolist()))


def vanishing_contour_integral(f: BoundaryFunction, contour: ClosedContour,
                               grid: QuadratureGrid, n: int = 0,
                               complement: bool = False) -> complex:
    """Contour integral of the on-contour functional K_n[f] (or K-_n[F]).

    Each integrand value is itself a principal-value integral; the result
    vanishes for admissible densities.  It is the trapezoid sum of K_n at
    the nodes, as pv_at_all_nodes gives it, against z'w; off the circle on
    the periodic grid it never forms K_n at a node.  By the antisymmetry of
    1/(t_j - t_i) the node pairs enter only through a_i = sum_(j != i)
    z'_j w_j/(t_j - t_i), which does not depend on the density, and a_i is
    the punctured trapezoid sum of P.V. int dt/(t - t_i) = i*pi: less its
    smooth remainder's node value, a_i = i*pi - w_i z''_i/(2 z'_i), with z''
    spectral (_pv_summands).  So the route costs O(n log n) and equals the
    discrete double sum to rounding, not bit for bit; it warns
    (AccuracyWarning) when the grid leaves z' unresolved.  The decay of a
    complement density is checked first.
    """
    if complement:
        f.require_decay()
    smp = _sample(contour, grid, f)
    k_vals = _pv_summands(smp.f(n), smp) / (1j * np.pi)
    if complement:
        k_vals = -k_vals
    return complex(np.sum(k_vals * smp.dzw))


def mean_value_check(f: BoundaryFunction, center: complex, radius: float,
                     grid: QuadratureGrid, n: int = 0):
    """Mean-value identity on a circle: f^(n)(center) vs the angular mean
    over circle(center, radius) sampled on the grid (_sample), so it refuses
    what circle() and _sample refuse.  Returns (lhs, rhs, gap).
    """
    ring = _sample(circle(center, radius), grid).zs
    dc = f.derivative_callable(n)
    if dc is None:
        raise CapabilityError("mean-value check needs f^(n) analytically")
    rhs = complex(np.sum(np.asarray(dc(ring)) * grid.weights) / (2.0 * np.pi))
    lhs = complex(np.asarray(dc(np.array([center])))[0])
    return lhs, rhs, abs(lhs - rhs)


def derivative_bound_check(f: BoundaryFunction, z: complex, R: float, n: int,
                           m: int = 0):
    """Cauchy-inequality bound (n-m)! R^-(n-m) max|f^(m)| over circle(z, R),
    sampled once on 512 nodes (_sample), so it refuses what circle()
    refuses, against |f^(n)(z)|, J_n[f](z) without a callable.  Returns
    (bound, actual, satisfied).
    """
    if not 0 <= m <= n:
        raise CapabilityError("need 0 <= m <= n")
    smp = _sample(circle(z, R), periodic_trapezoid_grid(512), f)
    bound = float(math.factorial(n - m)) * R ** (-(n - m)) * float(
        np.abs(smp.f(m)).max())
    dn = f.derivative_callable(n)
    if dn is not None:
        actual = abs(complex(np.asarray(dn(np.array([z])))[0]))
    else:
        f.require_order(n)
        actual = abs(_functional(smp, z, n, 0, n).value)
    return bound, actual, actual <= bound * (1.0 + 1e-12)
