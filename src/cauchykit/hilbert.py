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
extrapolates the error bar.  Parseval's line integral runs on the same
nodes: int v^2 dx = (pi/N) sum V_j^2 (1 + x_j^2).  A non-integer decay p
can leave V a branch point at theta = +-pi; where the ladder then reaches
its cap with V unresolved, both take a model of v's tails out of V and add
its share in closed form.  Both line routes, the Cayley map and one period
of a periodic input, evaluate the conjugate interpolant from one rfft of
the real samples: their half spectrum sums to the interpolant less i times
its conjugate (the multiplier i*sign(k) below), without the top modes whose
summed size is below sqrt(N)*eps*max|samples|, the interpolant's own
rounding level (Trefethen & Weideman, SIAM Rev. 56, 2014).  The error bar
includes that dropped sum, which bounds the change exactly.  The circular
transforms

    Hc[v](theta)  = (1/2*pi) P.V. int v(phi) cot((phi - theta)/2) dphi

are the conjugate-function Fourier multiplier: exp(i*k*theta) maps to
i*sign(k)*exp(i*k*theta), so sin(k.) maps to cos(k.) and cos(k.) to
-sin(k.).  On n equispaced samples this is one FFT, O(n log n) (Henrici,
"Fast Fourier methods in computational complex analysis", SIAM Rev. 21,
1979).  The constant mode and the unpaired Nyquist mode cos(n*theta/2) map
to zero, so round trips hold on zero-mean inputs and means are carried
separately as metadata.  As Hbar = -H = H^-1 and Hcheck = -Hc = Hc^-1,
each complementary transform is an alias of an inverse, and each
complementary inverse an alias of a forward transform.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (ContractError, DomainError, InvalidGridError,
                     NonFiniteError)
from .geometry import (_EPS, _ROUNDING, _UNRESOLVED, _cut, _finite, _level,
                       _real, _spectrum, _sum_levels, _warn_if_unresolved)

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
    half-width X where :meth:`check_decay` samples f, at X and 4X; it bounds
    no integral.  Line transforms and Parseval's line check sample f on the
    whole line, out to |x| ~ 10^4, so f must be defined everywhere, and
    real: a value with a nonzero imaginary part raises ContractError.  A
    ``period``, finite and > 0, flags an oscillatory non-decaying input that
    is handled by the circular machinery over one period.
    """

    func: Callable
    decay: float
    window: float = DEFAULT_WINDOW
    period: Optional[float] = None

    def __post_init__(self):
        if self.period is not None and not (math.isfinite(self.period)
                                            and self.period > 0):
            raise ContractError(f"period must be finite and > 0, got "
                                f"{self.period}")

    def __call__(self, x):
        return _real(self.func(np.asarray(x, dtype=float)), "a line input")

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
    """Real samples on n equispaced angles theta_j in [-pi, pi); one with
    a nonzero imaginary part raises ContractError."""

    samples: np.ndarray
    carried_mean: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples", _finite(_real(
            self.samples, "a periodic sample"), "a periodic sample"))
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
        return cls(func(-np.pi + TWO_PI * np.arange(n) / n))


@dataclass(frozen=True)
class TransformResult:
    """Transformed values at the targets and how they were computed.

    ``grid_size`` is the node count N; ``truncation_error`` extrapolates the
    input's Fourier modes beyond N/2 from its top ones (less the tail model
    of an unresolved non-integer decay), plus rounding (on the periodic
    route per target, growing with the mode number and |xi|/P), plus the
    summed size of the top modes the evaluation drops below its rounding
    level (sqrt(N)*eps of the largest sample); ``notes`` names the periodic
    route or an unresolved input."""

    values: np.ndarray
    targets: np.ndarray
    truncation_error: np.ndarray
    grid_size: int
    notes: tuple = field(default=())


# ---------------------------------------------------------------------------
# line transforms


def _line_transform(v, targets, sign) -> TransformResult:
    """sign/pi times P.V. int v(x)/(x - xi) dx: sign +1 is H, -1 is H^-1.

    A periodic input collapses onto one period through x = P*theta/(2*pi),
    H[v](xi) = Hc[v~](2*pi*xi/P); a decaying one goes through the Cayley
    map (module docstring).  Both interpolate the conjugate samples; a
    period whose samples leave their top modes above _UNRESOLVED is noted
    as unresolved, as the Cayley ladder notes its V."""
    if not isinstance(v, RealLineFunction):
        raise TypeError("expected a RealLineFunction")
    targets = np.atleast_1d(_real(targets, "a target", DomainError))
    if not np.all(np.isfinite(targets)):
        raise DomainError("targets must be finite")
    if v.period is not None:
        n = DEFAULT_CIRCLE_SAMPLES
        samples = _finite(v(v.period * (np.arange(n) / n - 0.5)),
                          "a periodic line input")
        # the phase of a mode k at the target, 2*pi*k*xi/P, rounds by about
        # 1.5 eps |phase| k; a sample's, at |x| <= P/2, by about k*pi*eps
        phase = TWO_PI * targets / v.period
        vals, level, bar = _conjugate_at(samples, (phase + np.pi) % TWO_PI,
                                         2.0 * _EPS * (np.abs(phase) + np.pi))
        notes = ("periodic route",)
        if level > _UNRESOLVED:
            notes += (f"unresolved: at N = {n} the top Fourier modes of one "
                      f"period are {level:.1e} of its maximum",)
    else:
        x, V, M, a, notes = _cayley_ladder(v)
        samples, n = V - M, x.size
        # phi = 2 arctan(xi), measured from the first node -pi + pi/n
        vals, _, bar = _conjugate_at(samples, 2.0 * np.arctan(targets)
                                     + np.pi * (1.0 - 1.0 / n))
        vals += np.dot(samples, x) / n
        if a:                   # H[m]
            vals += np.real(1j * a * (targets + 1j) ** -v.decay)
    return TransformResult(sign * vals, targets, bar + np.zeros(vals.shape),
                           n, notes)


def _cayley_ladder(v: RealLineFunction):
    """(x, V, M, a, notes): V = v(x) at the Cayley nodes x = tan(theta/2)
    of the last N midpoints theta = -pi + 2*pi*(j + 1/2)/N of the ladder,
    and _tail_model's M and a where V is left unresolved (a V resolved to
    rounding has no branch point to take out; M = a = 0).  The stop test
    reads V, not V - M, whose mean sum converges later."""
    if v.decay < 1:
        raise ContractError(f"line input needs decay >= 1, declared {v.decay}")
    if not v.check_decay():
        raise ContractError("sampled far-field violates the declared decay")
    n, prev = _LADDER_START, np.inf
    while True:
        x = np.tan(np.pi * ((np.arange(n) + 0.5) / n - 0.5))
        V = v(x)
        if not np.all(np.isfinite(V)):
            raise NonFiniteError("line input is not finite at "
                                 f"x = {x[~np.isfinite(V)][0]:.6g}")
        level = _level(V, n // 2 + 1 - (n // 2 + 1) // 8)
        if level <= _ROUNDING:
            return x, V, 0.0, 0j, ()
        if level > prev / _STALL or n >= _LADDER_CAP:
            notes = (f"unresolved: at N = {n} the top Fourier modes of V "
                     f"are {level:.1e} of max|V|",)
            return (x, V) + _tail_model(v.decay, x, V) + (notes,)
        n, prev = 2 * n, level


def _tail_model(p, x, V):
    """(M, a): the model m = Re[a*(x + i)^-p] of V's tails at the nodes x,
    or (0, 0) for an integer decay p, zero tails, or a ladder stalled below
    the cap (a kink, a jump: its outermost node cot(pi/2N) is too near for
    the tails to follow the declared power).  (x + i)^-p tends to
    R^-p at x = R and to R^-p exp(-i*pi*p) at -R, so at the outermost nodes
    Re a = V(R) R^p and Re(a exp(-i*pi*p)) = V(-R) R^p, solvable as p is not
    an integer.  (x + i)^-p is analytic in the upper half-plane, so H[m](xi)
    = Re[i*a*(xi + i)^-p]; and as int (x + i)^-2p dx = 0,
    int m^2 dx = (|a|^2/2) sqrt(pi) Gamma(p - 1/2)/Gamma(p)."""
    p = float(p)
    if p.is_integer() or V[0] == V[-1] == 0.0 or x.size < _LADDER_CAP:
        return 0.0, 0j
    c_plus, c_minus = V[-1] * x[-1] ** p, V[0] * x[-1] ** p
    a = complex(c_plus, (c_minus - c_plus * np.cos(np.pi * p))
                / np.sin(np.pi * p))
    return np.real(a * (x + 1j) ** -p), a


def hilbert_line(v, targets) -> TransformResult:
    """u(xi) = H[v](xi) = (1/pi) P.V. int v(x)/(x - xi) dx; also
    hilbert_complementary_inverse, as Hbar^-1 = H.

    Oscillatory periodic inputs (declared via ``period``) route through the
    circular transform over one period; decaying inputs need decay >= 1,
    and their far field sampled at 4X must agree with the declared decay.
    """
    return _line_transform(v, targets, +1.0)


def hilbert_line_inverse(u, targets) -> TransformResult:
    """v(x) = H^-1[u](x) = (-1/pi) P.V. int u(xi)/(xi - x) dxi; also
    hilbert_complementary, as Hbar = -H = H^-1.

    Targets must be finite and the input needs decay >= 1, checked at X
    and 4X, as for :func:`hilbert_line`.  The input is sampled on the whole
    line, out to |x| ~ 10^4: a round-trip input such as a computed
    transform must be defined there, not only on its window.
    """
    return _line_transform(u, targets, -1.0)


# Hbar = -H = H^-1 and Hbar^-1 = H
hilbert_complementary = hilbert_line_inverse
hilbert_complementary_inverse = hilbert_line


# ---------------------------------------------------------------------------
# circular transforms


def _conjugate(samples):
    """Hc on equispaced samples along the last axis, each row as if alone:
    the Fourier multiplier i*sign(k).

    The constant and Nyquist modes map to zero."""
    coef = np.fft.rfft(samples)
    coef[..., 1:] *= 1j
    coef[..., 0] = coef[..., -1] = 0.0
    return np.fft.irfft(coef, samples.shape[-1])


def _conjugate_at(samples, s, phase_error=0.0):
    """(values, level, bar) of Hc of real equispaced samples, interpolated
    at s (from sample 0), from one half spectrum (geometry._spectrum):
    - values: minus the imaginary part of its interpolant, cut at the
      interpolant's rounding level (geometry._cut);
    - level: its top modes over max|samples| (geometry._level);
    - bar: the tail beyond N/2 fitted to the bands from N/4 and 3N/8, or
      sum_(|k| >= N/4) |c_k| where they do not fall, either times 4, for
      +-k, aliased and truncated; plus the modes the cut drops; plus
      rounding, 1e-15*log2(m)*max|samples| over the m levels kept, and
      phase_error (per target) times sum_k |k c_k|, what an error of s
      costs."""
    n = samples.size
    pos, neg, c = _spectrum(samples)
    scale = max(float(np.abs(samples).max()), 1e-300)
    m, dropped = _cut(pos, neg, n, scale)
    lo, hi = c[n // 4:3 * n // 8].max(initial=0.0), c[3 * n // 8:].max()
    if hi <= _ROUNDING * scale:
        tail = 0.0
    elif hi < lo:   # hi/lo per N/8 modes
        tail = 4.0 * hi * (hi / lo) / (1.0 - (hi / lo) ** (8.0 / n))
    else:
        tail = 4.0 * c[n // 4:].sum()
    pos, neg = pos[:m], neg[:m]
    return (-np.imag(_sum_levels(pos, neg, s)), _level(samples, amp=c),
            float(tail + _ROUNDING * np.log2(m) * scale + dropped)
            + phase_error * (np.arange(m) @ (np.abs(pos) + np.abs(neg))))


def hilbert_circular(v: PeriodicFunction) -> PeriodicFunction:
    """u = Hc[v] on the sample grid; maps sin(k.) to cos(k.) and
    cos(k.) to -sin(k.), annihilating the constant and Nyquist modes.
    Also hilbert_circular_complementary_inverse, as Hcheck^-1 = Hc."""
    u = _conjugate(v.samples)
    return PeriodicFunction(u, carried_mean=v.mean())


def hilbert_circular_inverse(u: PeriodicFunction) -> PeriodicFunction:
    """v = Hc^-1[u]; reproduces a zero-mean input of the forward transform.
    Also hilbert_circular_complementary, as Hcheck = -Hc = Hc^-1."""
    vv = -_conjugate(u.samples)
    return PeriodicFunction(vv, carried_mean=u.mean())


# Hcheck = -Hc = Hc^-1 and Hcheck^-1 = Hc
hilbert_circular_complementary = hilbert_circular_inverse
hilbert_circular_complementary_inverse = hilbert_circular


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


def parseval_check(u, v):
    """Parseval identity for a conjugate pair: returns (lhs, rhs, gap).

    Two PeriodicFunction inputs integrate their squares over [-pi, pi); two
    RealLineFunction inputs over the line, on the line transforms' Cayley
    ladder and under their decay contract; samples the ladder leaves
    unresolved (a kink, a jump) warn with AccuracyWarning.
    """
    if isinstance(u, PeriodicFunction) and isinstance(v, PeriodicFunction):
        lhs = float(np.sum(u.samples ** 2) * TWO_PI / u.n)
        rhs = float(np.sum(v.samples ** 2) * TWO_PI / v.n)
    elif isinstance(u, RealLineFunction) and isinstance(v, RealLineFunction):
        lhs, rhs = _square_integral(u), _square_integral(v)
    else:
        raise TypeError("expected two PeriodicFunction or two "
                        "RealLineFunction inputs")
    return lhs, rhs, abs(lhs - rhs)


def _square_integral(f: RealLineFunction) -> float:
    """int f^2 dx = (pi/N) sum (V^2 - M^2)(1 + x^2) + int m^2 dx."""
    x, V, M, a, _ = _cayley_ladder(f)
    _warn_if_unresolved(V - M, None, "a line input's Cayley samples",
                        stacklevel=4)       # the caller of parseval_check
    return float(np.sum((V ** 2 - M ** 2) * (1.0 + x ** 2)) * np.pi / x.size) \
        + 0.5 * abs(a) ** 2 * math.sqrt(np.pi) \
        * math.exp(math.lgamma(f.decay - 0.5) - math.lgamma(f.decay))
