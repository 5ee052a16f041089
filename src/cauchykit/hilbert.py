"""The four generalized Hilbert transforms and their consistency checks.

Real-line transforms

    H[v](xi)      = (1/pi)  P.V. int v(x)/(x - xi) dx
    H^-1[u](x)    = (-1/pi) P.V. int u(xi)/(xi - x) dxi

are computed by singularity subtraction on the declared truncation window
[-X, X] plus an analytic power-law tail correction built from the declared
decay exponent and the sampled edge values.  The circular transforms

    Hc[v](theta)  = (1/2*pi) P.V. int v(phi) cot((phi - theta)/2) dphi

are the conjugate-function Fourier multiplier: exp(i*k*theta) maps to
i*sign(k)*exp(i*k*theta), so sin(k.) maps to cos(k.) and cos(k.) to
-sin(k.).  On n equispaced samples this is one FFT, O(n log n) (Henrici,
"Fast Fourier methods in computational complex analysis", SIAM Rev. 21,
1979).  The constant mode and the unpaired Nyquist mode cos(n*theta/2) map
to zero, so round trips hold on zero-mean inputs and means are carried
separately as metadata.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, DomainError, InvalidGridError
from .geometry import (_pv_smooth_part, gauss_panel_grid,
                       panels_from_breakpoints, trig_interp)

TWO_PI = 2.0 * np.pi

DEFAULT_WINDOW = 50.0
DEFAULT_CIRCLE_SAMPLES = 512
DEFAULT_PANELS_PER_UNIT = 2
DEFAULT_PANEL_ORDER = 12


@dataclass(frozen=True)
class RealLineFunction:
    """Real function on the line with decay and truncation metadata.

    ``decay`` is the exponent p in |f(x)| = O(|x|^-p); ``window`` the
    half-width X beyond which the tail is modeled analytically.  A nonzero
    ``period`` flags an oscillatory non-decaying input that is handled by the
    circular machinery over one period instead of windowed truncation.
    """

    func: Callable
    decay: float
    window: float = DEFAULT_WINDOW
    period: Optional[float] = None

    def __call__(self, x):
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)

    @property
    def square_integrable(self) -> bool:
        return self.decay > 0.5

    def check_decay(self) -> bool:
        """Is the sampled far-field consistent with the declared exponent?

        Compares the drop of |f| between X and 4X against the declared
        power law, with a factor-10 allowance."""
        if self.period is not None:
            return True
        x = self.window
        near = float(np.sum(np.abs(self(np.array([x, -x])))))
        far = float(np.sum(np.abs(self(np.array([4.0 * x, -4.0 * x])))))
        if near < 1e-300:
            return True
        return far / near <= 10.0 * 4.0 ** (-self.decay)


@dataclass(frozen=True)
class PeriodicFunction:
    """Real samples on n equispaced angles theta_j in [-pi, pi)."""

    samples: np.ndarray
    carried_mean: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=float))
        n = self.samples.size
        if n < 8 or n % 2:
            raise InvalidGridError(f"periodic samples need even n >= 8, got {n}")

    @property
    def n(self):
        return self.samples.size

    @property
    def thetas(self):
        return -np.pi + TWO_PI * np.arange(self.n) / self.n

    def mean(self) -> float:
        return float(np.mean(self.samples))

    @classmethod
    def from_function(cls, func, n: int = DEFAULT_CIRCLE_SAMPLES):
        th = -np.pi + TWO_PI * np.arange(n) / n
        return cls(np.asarray(func(th), dtype=float))


@dataclass(frozen=True)
class TransformResult:
    """Transformed samples plus truncation-error metadata."""

    values: np.ndarray
    targets: np.ndarray
    truncation_error: np.ndarray
    grid_size: int
    window: float
    notes: tuple = field(default=())


# ---------------------------------------------------------------------------
# analytic tail model


def _tail_integral(xi, X, p, max_terms=4000, tol=1e-15):
    """int_X^inf x^-p / (x - xi) dx for |xi| < X, via the geometric series
    sum_k xi^k X^-(p+k) / (p+k), summed by Horner's rule.  The term count
    is fixed once from rho = max|xi|/X: term k is at most X^-p rho^k / p,
    and the sum is at least X^-p / (p (p + 1)) whatever the sign of xi, so
    rho^K < tol / (p + 1) brings every term below tol times the sum."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(np.abs(xi) >= X):
        raise DomainError("tail model needs |xi| < window")
    ratio = xi / X
    rho = float(np.max(np.abs(ratio), initial=0.0))
    count = 1 if rho == 0.0 else \
        min(max_terms, int(np.log(tol / (p + 1.0)) / np.log(rho)) + 1)
    coef = 1.0 / (p + np.arange(count))
    return X ** (-p) * np.polynomial.polynomial.polyval(ratio, coef)


def _fit_tail_coeffs(vfunc, X, p, side):
    """Three-term asymptotic fit v(side*x) ~ sum_k coef_k x^-(p+k), k=0..2.

    Fitting v(x) x^p against {1, 1/x, 1/x^2} at x in {X/2, 3X/4, X} captures
    the next two corrections beyond the declared leading power, which the
    single edge sample cannot."""
    xs = np.array([0.5 * X, 0.75 * X, X])
    vals = np.asarray(vfunc(side * xs), dtype=float) * xs ** p
    basis = np.vander(1.0 / xs, 3, increasing=True)
    return np.linalg.solve(basis, vals)


def _tail_correction(vfunc, X, p, xi):
    """Analytic tails of P.V. int v(x)/(x - xi) dx outside [-X, X].

    Right tail integrates the fitted power-law model term by term; the
    substituted left tail gives -int_X^inf v(-x)/(x + xi) dx.
    """
    xi = np.asarray(xi, dtype=float)
    coef_r = _fit_tail_coeffs(vfunc, X, p, +1.0)
    coef_l = _fit_tail_coeffs(vfunc, X, p, -1.0)
    right = sum(coef_r[k] * _tail_integral(xi, X, p + k) for k in range(3))
    left = -sum(coef_l[k] * _tail_integral(-xi, X, p + k) for k in range(3))
    scale = np.sum(np.abs(coef_r)) + np.sum(np.abs(coef_l))
    resid = scale * _tail_integral(np.abs(xi), X, p + 3)
    return right + left, resid


def _line_grid(X, panels_per_unit=DEFAULT_PANELS_PER_UNIT,
               order=DEFAULT_PANEL_ORDER):
    n_panels = max(8, int(np.ceil(2 * X * panels_per_unit)))
    return gauss_panel_grid(n_panels=n_panels, order=order, a=-X, b=X)


def _line_pv(vfunc, X, p, targets):
    """(values, tail_residuals) of P.V. int_(-inf)^inf v(x)/(x - xi) dx."""
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if np.any(np.abs(targets) > 0.95 * X):
        raise DomainError("targets must satisfy |xi| <= 0.95 * window")
    grid = _line_grid(X)
    vxi = np.asarray(vfunc(targets), dtype=float)
    smooth = _pv_smooth_part(vfunc, grid.nodes, grid.weights,
                             np.asarray(vfunc(grid.nodes), dtype=float),
                             targets, vxi)
    log_term = vxi * np.log((X - targets) / (X + targets))
    tail, resid = _tail_correction(vfunc, X, p, targets)
    return smooth + log_term + tail, resid


def _as_line_function(v) -> RealLineFunction:
    if isinstance(v, RealLineFunction):
        return v
    raise TypeError("expected a RealLineFunction")


def _line_transform(v, targets, sign) -> TransformResult:
    """sign/pi times P.V. int v(x)/(x - xi) dx: sign +1 is H, -1 is H^-1."""
    v = _as_line_function(v)
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if not np.all(np.isfinite(targets)):
        raise DomainError("targets must be finite")
    if v.period is not None:
        return _periodic_route(v, targets, sign)
    if v.decay < 1:
        raise ContractError(
            f"line Hilbert transform needs decay >= 1, declared {v.decay}")
    # only the forward transform samples the declared decay (see
    # hilbert_line_inverse)
    if sign > 0 and not v.check_decay():
        raise ContractError("sampled far-field violates the declared decay")
    pv, resid = _line_pv(v.func, v.window, v.decay, targets)
    notes = ()
    if np.any(np.abs(targets) > 0.5 * v.window):
        notes = ("targets beyond half the truncation window: "
                 "accuracy degrades",)
    return TransformResult(sign * pv / np.pi, targets, resid / np.pi,
                           _line_grid(v.window).n, v.window, notes)


def hilbert_line(v, targets) -> TransformResult:
    """u(xi) = H[v](xi) = (1/pi) P.V. int v(x)/(x - xi) dx.

    Oscillatory periodic inputs (declared via ``period``) route through the
    circular transform over one period; decaying inputs need decay >= 1,
    and their far field sampled at 4X must agree with the declared decay.
    """
    return _line_transform(v, targets, +1.0)


def hilbert_line_inverse(u, targets) -> TransformResult:
    """v(x) = H^-1[u](x) = (-1/pi) P.V. int u(xi)/(xi - x) dxi.

    Targets must be finite and the input needs decay >= 1, as for
    :func:`hilbert_line`.  The far field is not sampled at 4X: a round-trip
    input such as a computed transform interpolated on its window cannot be
    evaluated there.
    """
    return _line_transform(u, targets, -1.0)


def hilbert_complementary(V, targets) -> TransformResult:
    """U = Hbar[V] = -H[V]; the complementary transform equals H^-1."""
    base = hilbert_line(V, targets)
    return TransformResult(-base.values, base.targets, base.truncation_error,
                           base.grid_size, base.window, base.notes)


def hilbert_complementary_inverse(U, targets) -> TransformResult:
    """V = Hbar^-1[U] = H[U] = -H^-1[U]."""
    base = hilbert_line_inverse(U, targets)
    return TransformResult(-base.values, base.targets, base.truncation_error,
                           base.grid_size, base.window, base.notes)


def _periodic_route(v: RealLineFunction, targets, sign):
    """Line transform of a periodic input via the circular transform.

    With x = P*theta/(2*pi) the line principal value collapses onto one
    period: H[v](xi) = Hc[v~](2*pi*xi/P).  The transformed samples are
    evaluated off the grid by trigonometric interpolation.
    """
    period = float(v.period)
    n = DEFAULT_CIRCLE_SAMPLES
    th = -np.pi + TWO_PI * np.arange(n) / n
    samples = np.asarray(v.func(period * th / TWO_PI), dtype=float)
    s = (TWO_PI * targets / period + np.pi) % TWO_PI
    vals = sign * np.real(trig_interp(_conjugate(samples), s))
    return TransformResult(vals, targets, np.zeros_like(vals), n, np.inf,
                           ("periodic route",))


# ---------------------------------------------------------------------------
# circular transforms


def _conjugate(samples):
    """Hc on equispaced samples: the Fourier multiplier i*sign(k).

    The constant and Nyquist modes map to zero."""
    coef = np.fft.rfft(samples)
    coef[1:] *= 1j
    coef[0] = coef[-1] = 0.0
    return np.fft.irfft(coef, len(samples))


def hilbert_circular(v: PeriodicFunction) -> PeriodicFunction:
    """u = Hc[v] on the sample grid; maps sin(k.) to cos(k.) and
    cos(k.) to -sin(k.), annihilating the constant and Nyquist modes."""
    u = _conjugate(v.samples)
    return PeriodicFunction(u, carried_mean=v.mean())


def hilbert_circular_inverse(u: PeriodicFunction) -> PeriodicFunction:
    """v = Hc^-1[u]; reproduces a zero-mean input of the forward transform."""
    vv = -_conjugate(u.samples)
    return PeriodicFunction(vv, carried_mean=u.mean())


def hilbert_circular_complementary(V: PeriodicFunction) -> PeriodicFunction:
    """U = Hcheck[V] = -Hc[V]."""
    base = hilbert_circular(V)
    return PeriodicFunction(-base.samples, carried_mean=base.carried_mean)


def hilbert_circular_complementary_inverse(U: PeriodicFunction) -> PeriodicFunction:
    """V = Hcheck^-1[U] = -Hc^-1[U]."""
    base = hilbert_circular_inverse(U)
    return PeriodicFunction(-base.samples, carried_mean=base.carried_mean)


# ---------------------------------------------------------------------------
# normalization and Parseval checks


def normalization_check(samples) -> complex:
    """Integral over [-pi, pi) of boundary samples u + i*v of a function
    regular inside the unit circle.

    The vanishing of this integral is the intrinsic normalization condition;
    a nonzero result (e.g. for a nonzero-mean density) flags the input as not
    normalized rather than failing.
    """
    samples = np.asarray(samples, dtype=complex)
    n = samples.size
    if n < 8:
        raise InvalidGridError("need at least 8 samples")
    return complex(np.sum(samples) * TWO_PI / n)


def parseval_check(u, v, geometry: str = "circle"):
    """Parseval identity for a conjugate pair: returns (lhs, rhs, gap).

    ``circle``: u, v are PeriodicFunction; integrals over [-pi, pi).
    ``line``: u, v are RealLineFunction; window integrals plus analytic
    power-law tails of the squares.
    """
    if geometry == "circle":
        if not isinstance(u, PeriodicFunction) or not isinstance(v, PeriodicFunction):
            raise TypeError("circle geometry expects PeriodicFunction inputs")
        lhs = float(np.sum(u.samples ** 2) * TWO_PI / u.n)
        rhs = float(np.sum(v.samples ** 2) * TWO_PI / v.n)
        return lhs, rhs, abs(lhs - rhs)
    if geometry != "line":
        raise ValueError("geometry must be 'circle' or 'line'")
    u, v = _as_line_function(u), _as_line_function(v)
    if not (u.square_integrable and v.square_integrable):
        raise ContractError("Parseval needs square-integrable inputs")
    lhs = _square_integral(u)
    rhs = _square_integral(v)
    return lhs, rhs, abs(lhs - rhs)


def _square_integral(f: RealLineFunction, far_factor: float = 20.0) -> float:
    """Integral of f^2: window quadrature, log-spaced panels out to
    far_factor * X, and a power-law model for the remainder."""
    X, p = f.window, f.decay
    if 2 * p <= 1:
        raise ContractError("squared tail is not integrable")
    grid = _line_grid(X)
    body = float(np.sum(np.asarray(f.func(grid.nodes)) ** 2 * grid.weights))
    far = far_factor * X
    breaks = X * (far / X) ** (np.arange(33) / 32.0)
    tail_grid = panels_from_breakpoints(breaks)
    for sign in (+1.0, -1.0):
        body += float(np.sum(np.asarray(f.func(sign * tail_grid.nodes)) ** 2
                             * tail_grid.weights))
    c_plus = float(f(np.array([far]))[0]) * far ** p
    c_minus = float(f(np.array([-far]))[0]) * far ** p
    body += (c_plus ** 2 + c_minus ** 2) * far ** (1 - 2 * p) / (2 * p - 1)
    return body
