"""The four generalized Hilbert transforms and their consistency checks.

Real-line transforms

    H[v](xi)      = (1/pi)  P.V. int v(x)/(x - xi) dx
    H^-1[u](x)    = (-1/pi) P.V. int u(xi)/(xi - x) dxi

go through the Cayley map x = tan(theta/2), xi = tan(phi/2): with
V(theta) = v(x), H[v](xi) = Hc[V](phi) + (1/2*pi) int V tan(theta/2) dtheta,
the circular transform below plus one trapezoid sum (Weideman, "Computing
the Hilbert transform on the real line", Math. Comp. 64, 1995).  V is
sampled on N midpoint nodes, which never touch theta = +-pi, and N doubles
until V's top Fourier modes reach rounding or stop falling; their fall
extrapolates the error bar.  The circular transforms

    Hc[v](theta)  = (1/2*pi) P.V. int v(phi) cot((phi - theta)/2) dphi

are the conjugate-function Fourier multiplier: exp(i*k*theta) maps to
i*sign(k)*exp(i*k*theta), so sin(k.) maps to cos(k.) and cos(k.) to
-sin(k.).  On n equispaced samples this is one FFT, O(n log n) (Henrici,
"Fast Fourier methods in computational complex analysis", SIAM Rev. 21,
1979).  The constant mode and the unpaired Nyquist mode cos(n*theta/2) map
to zero, so round trips hold on zero-mean inputs and means are carried
separately as metadata.
"""

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import (ContractError, DomainError, InvalidGridError,
                     NonFiniteError)
from .geometry import (_ROUNDING, _resolution, gauss_panel_grid,
                       panels_from_breakpoints, trig_interp)

TWO_PI = 2.0 * np.pi

DEFAULT_WINDOW = 50.0
DEFAULT_CIRCLE_SAMPLES = 512

# the Cayley ladder: N doubles from _LADDER_START up to _LADDER_CAP and stops
# once the top eighth of V's Fourier modes, k > 7N/16, is below _ROUNDING of
# max|V|, or once a doubling cuts them less than _STALL-fold (more nodes
# will not resolve a kink or a jump)
_LADDER_START, _LADDER_CAP = 64, 2 ** 14
_STALL = 4.0


@dataclass(frozen=True)
class RealLineFunction:
    """Real function on the line with decay metadata.

    ``decay`` is the exponent p in |f(x)| = O(|x|^-p).  ``window`` is a
    half-width X: :meth:`check_decay` samples f at X and 4X, and Parseval's
    quadrature body ends there.  Line transforms sample f on the whole line,
    out to |x| ~ 10^4, so f must be defined everywhere.  A nonzero
    ``period`` flags an oscillatory non-decaying input that is handled by
    the circular machinery over one period.
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
    """Transformed values at the targets and how they were computed.

    ``grid_size`` is the node count N; ``truncation_error`` extrapolates the
    input's Fourier modes beyond N/2 from its top ones, plus rounding;
    ``window`` echoes the input's (inf on the periodic route); ``notes``
    names the periodic route or an unresolved input."""

    values: np.ndarray
    targets: np.ndarray
    truncation_error: np.ndarray
    grid_size: int
    window: float
    notes: tuple = field(default=())


# ---------------------------------------------------------------------------
# line transforms


def _as_line_function(v) -> RealLineFunction:
    if isinstance(v, RealLineFunction):
        return v
    raise TypeError("expected a RealLineFunction")


def _line_transform(v, targets, sign) -> TransformResult:
    """sign/pi times P.V. int v(x)/(x - xi) dx: sign +1 is H, -1 is H^-1.

    A periodic input collapses onto one period through x = P*theta/(2*pi),
    H[v](xi) = Hc[v~](2*pi*xi/P); a decaying one goes through the Cayley
    map (module docstring).  Both interpolate the conjugate samples."""
    v = _as_line_function(v)
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if not np.all(np.isfinite(targets)):
        raise DomainError("targets must be finite")
    if v.period is not None:
        n = DEFAULT_CIRCLE_SAMPLES
        samples = v(v.period * (np.arange(n) / n - 0.5))
        s = (TWO_PI * targets / v.period + np.pi) % TWO_PI
        vals = _conjugate_at(samples, s)
        window, notes = np.inf, ("periodic route",)
    else:
        if v.decay < 1:
            raise ContractError(
                f"line Hilbert transform needs decay >= 1, declared {v.decay}")
        if not v.check_decay():
            raise ContractError("sampled far-field violates the declared decay")
        x, samples, notes = _cayley_ladder(v)
        n, window = x.size, v.window
        # phi = 2 arctan(xi), measured from the first node -pi + pi/n
        s = 2.0 * np.arctan(targets) + np.pi * (1.0 - 1.0 / n)
        vals = _conjugate_at(samples, s) + np.dot(samples, x) / n
    bar = np.full(vals.shape, _resolution(samples)[1])
    return TransformResult(sign * vals, targets, bar, n, window, notes)


def _cayley_ladder(v: RealLineFunction):
    """(x, V, notes): V = v(x) at the Cayley nodes x = tan(theta/2) of the
    last N midpoints theta = -pi + 2*pi*(j + 1/2)/N of the ladder."""
    n, prev = _LADDER_START, np.inf
    while True:
        x = np.tan(np.pi * ((np.arange(n) + 0.5) / n - 0.5))
        V = v(x)
        if not np.all(np.isfinite(V)):
            raise NonFiniteError("line transform input is not finite at "
                                 f"x = {x[~np.isfinite(V)][0]:.6g}")
        level = _resolution(V, n // 2 + 1 - (n // 2 + 1) // 8)[0]
        if level <= _ROUNDING:
            return x, V, ()
        if level > prev / _STALL or n >= _LADDER_CAP:
            return x, V, (f"unresolved: at N = {n} the top Fourier modes of "
                          f"V are {level:.1e} of max|V|",)
        n, prev = 2 * n, level


def hilbert_line(v, targets) -> TransformResult:
    """u(xi) = H[v](xi) = (1/pi) P.V. int v(x)/(x - xi) dx.

    Oscillatory periodic inputs (declared via ``period``) route through the
    circular transform over one period; decaying inputs need decay >= 1,
    and their far field sampled at 4X must agree with the declared decay.
    """
    return _line_transform(v, targets, +1.0)


def hilbert_line_inverse(u, targets) -> TransformResult:
    """v(x) = H^-1[u](x) = (-1/pi) P.V. int u(xi)/(xi - x) dxi.

    Targets must be finite and the input needs decay >= 1, checked at X
    and 4X, as for :func:`hilbert_line`.  The input is sampled on the whole
    line, out to |x| ~ 10^4: a round-trip input such as a computed
    transform must be defined there, not only on its window.
    """
    return _line_transform(u, targets, -1.0)


def hilbert_complementary(V, targets) -> TransformResult:
    """U = Hbar[V] = -H[V]; the complementary transform equals H^-1."""
    base = hilbert_line(V, targets)
    return replace(base, values=-base.values)


def hilbert_complementary_inverse(U, targets) -> TransformResult:
    """V = Hbar^-1[U] = H[U] = -H^-1[U]."""
    base = hilbert_line_inverse(U, targets)
    return replace(base, values=-base.values)


# ---------------------------------------------------------------------------
# circular transforms


def _conjugate(samples):
    """Hc on equispaced samples: the Fourier multiplier i*sign(k).

    The constant and Nyquist modes map to zero."""
    coef = np.fft.rfft(samples)
    coef[1:] *= 1j
    coef[0] = coef[-1] = 0.0
    return np.fft.irfft(coef, len(samples))


def _conjugate_at(samples, s):
    """Hc of real equispaced samples, interpolated at s (from sample 0)."""
    return np.real(trig_interp(_conjugate(samples), s))


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
    grid = gauss_panel_grid(n_panels=max(8, int(np.ceil(4 * X))), order=12,
                            a=-X, b=X)
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
