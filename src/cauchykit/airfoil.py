"""Flat-plate airfoil aerodynamics via the finite Hilbert transform.

The plate occupies the chord -1 <= x <= 1 in a free stream of speed U at
incidence alpha.  The downwash condition v = -U sin(alpha) on the plate is a
singular integral equation for the bound vortex-sheet density gamma,

    v(x) = (1/2*pi) P.V. int_-1^1 gamma(t)/(t - x) dt = G[gamma](x),

whose weighted inversion (with the trailing-edge Kutta condition built in) is

    gamma(x) = -(2/pi) sqrt((1-x)/(1+x))
               P.V. int sqrt((1+t)/(1-t)) v(t)/(t - x) dt.

Chord quadrature uses Gauss-Chebyshev rules matched to the sqrt((1-x)/(1+x))
and sqrt((1+x)/(1-x)) endpoint weights, so the leading-edge singularity is
integrated exactly.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, EndpointError
from .geometry import (JordanArc, QuadratureGrid, _chord_pv, _panel_samples,
                       _sample, segment)
from .plemelj import _arc_pv_rows, _off_arc_sums

DEFAULT_CHORD_NODES = 128
_CHORD = segment(-1.0, 1.0)

# P.V. int_-1^1 sqrt((1-t)/(1+t)) / (t - x) dt = -pi   for -1 < x < 1,
# P.V. int_-1^1 sqrt((1+t)/(1-t)) / (t - x) dt = +pi.
PV_WEIGHT4 = -np.pi
PV_WEIGHT3 = np.pi


@dataclass(frozen=True)
class FlowConfig:
    """Free-stream speed, incidence angle (radians), and fluid density."""

    speed: float
    alpha: float
    density: float = 1.0

    def __post_init__(self):
        if self.speed <= 0:
            raise DomainError("free-stream speed must be positive")
        if self.density <= 0:
            raise DomainError("fluid density must be positive")
        if abs(self.alpha) >= 0.5 * np.pi:
            raise DomainError("incidence angle must satisfy |alpha| < pi/2")


def leading_edge_weight(x):
    """sqrt((1-x)/(1+x)): the flat-plate singularity factor."""
    x = np.asarray(x, dtype=float)
    return np.sqrt((1.0 - x) / (1.0 + x))


@dataclass(frozen=True)
class SheetDensity:
    """Sheet strength gamma(x) = sqrt((1-x)/(1+x)) * weight_coef(x) + smooth(x).

    The weight-basis factor keeps the leading-edge singularity integrable
    and makes the Kutta condition gamma(1) = 0 automatic whenever
    weight_coef is finite at the trailing edge.
    """

    weight_coef: Optional[Callable] = None
    smooth: Optional[Callable] = None

    def __call__(self, x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x <= -1.0) or np.any(x > 1.0):
            raise DomainError("sheet density lives on the chord (-1, 1]")
        out = np.zeros_like(x)
        if self.weight_coef is not None:
            # the trailing-edge factor vanishes identically, so gamma(1) = 0
            # without evaluating the coefficient there (Kutta condition)
            inner = x < 1.0
            if np.any(inner):
                out[inner] += leading_edge_weight(x[inner]) \
                    * np.asarray(self.weight_coef(x[inner]))
        if self.smooth is not None:
            out = out + np.asarray(self.smooth(x))
        return float(out[0]) if scalar else out

    def total_strength(self, n: int = DEFAULT_CHORD_NODES) -> float:
        """Integral of gamma over the chord (the bound circulation)."""
        return float(sum(np.sum(c.real) for _, c in self._parts(
            _sheet_panels(_CHORD, n), n)))

    def _parts(self, smp, n):
        """(nodes, weights) of gamma dt: the weight-basis part on the n-node
        matched Gauss-Chebyshev rule, the smooth part on the nodes of smp."""
        on_chord, parts = smp.contour is _CHORD, []
        if self.weight_coef is not None:
            if not on_chord:
                raise DomainError("weight-basis densities live on the "
                                  "standard chord; pass arc=None")
            x, w = chebyshev4_rule(n)
            parts.append((x, w * np.asarray(self.weight_coef(x))))
        if self.smooth is not None:
            vals = self.smooth(smp.zs.real if on_chord else smp.zs)
            parts.append((smp.zs, np.asarray(vals, dtype=complex) * smp.dzw))
        return parts


def _sheet_panels(arc, n):
    """The arc on smooth sheet parts' default max(16, n // 4) panels."""
    return _panel_samples(arc, max(16, n // 4), 12)


def chebyshev4_rule(n: int):
    """Gauss rule for the weight sqrt((1-x)/(1+x)) on (-1, 1).

    Nodes x_k = cos(2*pi*k/(2n+1)), weights (2*pi/(2n+1)) (1 - x_k).
    """
    if n < 2:
        raise DomainError("need n >= 2 chord nodes")
    k = np.arange(1, n + 1)
    x = np.cos(2.0 * np.pi * k / (2 * n + 1))
    w = 2.0 * np.pi / (2 * n + 1) * (1.0 - x)
    return x, w


def chebyshev3_rule(n: int):
    """Gauss rule for the weight sqrt((1+x)/(1-x)) on (-1, 1).

    Nodes x_k = cos((2k-1)*pi/(2n+1)), weights (2*pi/(2n+1)) (1 + x_k):
    chebyshev4_rule(n) reflected by x -> -x (its k-th node is -x_(n+1-k)).
    """
    x, w = chebyshev4_rule(n)
    return -x[::-1], w[::-1]


def _check_chord_targets(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) >= 1.0):
        raise EndpointError("chord targets must lie strictly inside (-1, 1)")
    return x


def finite_hilbert_transform(gamma: SheetDensity, targets,
                             n: int = DEFAULT_CHORD_NODES) -> np.ndarray:
    """v(x) = (1/2*pi) P.V. int gamma(t)/(t - x) dt on the chord."""
    x = _check_chord_targets(targets)
    out = np.zeros_like(x)
    if gamma.weight_coef is not None:
        t, w = chebyshev4_rule(n)
        out += _chord_pv(gamma.weight_coef, t, w, np.asarray(
            gamma.weight_coef(t), dtype=float), x, PV_WEIGHT4)
    if gamma.smooth is not None:
        out += _smooth_chord_pv(gamma.smooth, x)
    return out / (2.0 * np.pi)


def _smooth_chord_pv(func, x, n_panels: int = 24, order: int = 12):
    """P.V. int psi(t)/(t - x) dt for smooth psi on [-1, 1]."""
    s0 = 0.5 * (x + 1.0)
    panels = _panel_samples(_CHORD, n_panels, order)
    vals = np.asarray(func(np.real(panels.zs)), dtype=complex)
    pv, = _arc_pv_rows((lambda r: vals,), panels, order, s0, _CHORD.z(s0))
    return np.real(pv)


def finite_hilbert_inverse(v, n: int = DEFAULT_CHORD_NODES) -> SheetDensity:
    """Invert v = G[gamma] for the sheet density, Kutta condition built in.

    Returns a SheetDensity whose weight_coef closure evaluates

        phi(x) = -(2/pi) P.V. int sqrt((1+t)/(1-t)) v(t)/(t - x) dt

    by Gauss-Chebyshev subtraction; gamma(x) = sqrt((1-x)/(1+x)) phi(x)
    vanishes at the trailing edge like sqrt(1 - x).
    """
    t, w = chebyshev3_rule(n)
    v_t = np.asarray(v(t), dtype=float)

    def phi(x):
        pv = _chord_pv(v, t, w, v_t, _check_chord_targets(x), PV_WEIGHT3)
        return -(2.0 / np.pi) * pv

    return SheetDensity(weight_coef=phi)


def _plate_branch(z):
    """sqrt((z-1)/(z+1)) with the cut on [-1, 1], -> 1 as |z| -> infinity."""
    z = np.asarray(z, dtype=complex)
    return np.sqrt((z - 1.0) / (z + 1.0))


def flat_plate_complex_velocity(cfg: FlowConfig, z):
    """w(z) = u - i v off the plate for the flat-plate downwash.

    Evaluates -(1/pi*i) sqrt((z-1)/(z+1)) int sqrt((1+t)/(1-t)) v(t)/(t-z) dt
    with v = -U sin(alpha).  The downwash is constant, so subtracting it
    under the integral leaves nothing and the kernel integral reduces to its
    closed form pi (1 - sqrt((z+1)/(z-1))); the evaluation therefore stays
    exact arbitrarily close to the plate.
    """
    z = np.asarray(z, dtype=complex)
    scalar = (z.ndim == 0)
    z = np.atleast_1d(z)
    on_slit = (np.abs(np.imag(z)) < 1e-14) & (np.abs(np.real(z)) <= 1.0)
    if np.any(on_slit):
        raise DomainError("z lies on the plate; use surface_velocities")
    v_down = -cfg.speed * np.sin(cfg.alpha)
    if v_down == 0.0:
        out = np.zeros_like(z)
        return complex(out[0]) if scalar else out
    base = np.pi * (1.0 - np.sqrt((z + 1.0) / (z - 1.0)))
    out = -_plate_branch(z) / (1j * np.pi) * v_down * base
    return complex(out[0]) if scalar else out


def _side_sign(side):
    if side in ("+", "plus", "upper", 1, +1.0):
        return 1.0
    if side in ("-", "minus", "lower", -1, -1.0):
        return -1.0
    raise ValueError(f"unknown side {side!r}")


def surface_velocities(cfg: FlowConfig, x, side):
    """Perturbation velocities on the plate: u = +-U sin(a) sqrt((1-x)/(1+x)),
    v = -U sin(a).  The trailing edge x = 1 is regular (Kutta condition);
    the leading edge x = -1 is excluded (square-root singularity)."""
    sign = _side_sign(side)
    x = np.asarray(x, dtype=float)
    if np.any(x <= -1.0) or np.any(x > 1.0):
        raise DomainError("chord coordinate must lie in (-1, 1]")
    amp = cfg.speed * np.sin(cfg.alpha)
    u = sign * amp * leading_edge_weight(x)
    v = np.full_like(np.atleast_1d(x), -amp)
    if x.ndim == 0:
        return float(u), float(v[0])
    return u, v


def circulation(cfg: FlowConfig, n: int = DEFAULT_CHORD_NODES) -> float:
    """Circulation around the plate, clockwise by convention: the chord
    integral of the tangential-velocity jump u+ - u-, taken with the
    weight-aware Gauss-Chebyshev rule.  Equals 2*pi*U*sin(alpha)."""
    x, w = chebyshev4_rule(n)
    u_plus, _ = surface_velocities(cfg, x, "+")
    u_minus, _ = surface_velocities(cfg, x, "-")
    jump_coef = (u_plus - u_minus) / leading_edge_weight(x)
    return float(np.sum(w * jump_coef))


def lift(cfg: FlowConfig, n: int = DEFAULT_CHORD_NODES):
    """Kutta-Joukowski lift vector rho * U x Gamma and its magnitude.

    With U = (U cos a, U sin a, 0) and Gamma = (0, 0, -circulation), the
    lift is perpendicular to the free stream and |L| = 2*pi*rho*U^2*sin(a).
    """
    gamma = circulation(cfg, n)
    u_vec = np.array([cfg.speed * np.cos(cfg.alpha),
                      cfg.speed * np.sin(cfg.alpha), 0.0])
    gamma_vec = np.array([0.0, 0.0, -gamma])
    l_vec = cfg.density * np.cross(u_vec, gamma_vec)
    return l_vec, float(np.linalg.norm(l_vec))


def pressure(cfg: FlowConfig, x, side) -> float:
    """Bernoulli surface pressure, gauged to zero at infinity:
    p = rho [U^2/2 - ((U cos a + u)^2 + (U sin a + v)^2)/2]."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= -1.0):
        raise DomainError("leading-edge suction is divergent at x = -1")
    u, v = surface_velocities(cfg, x, side)
    qx = cfg.speed * np.cos(cfg.alpha) + u
    qy = cfg.speed * np.sin(cfg.alpha) + v
    p = cfg.density * (0.5 * cfg.speed ** 2 - 0.5 * (qx ** 2 + qy ** 2))
    return float(p) if x.ndim == 0 else p


def pressure_jump(cfg: FlowConfig, x):
    """Load distribution dp(x) = p-(x) - p+(x) across the plate."""
    return pressure(cfg, x, "-") - pressure(cfg, x, "+")


def normal_force(cfg: FlowConfig, n: int = DEFAULT_CHORD_NODES) -> float:
    """Chord integral of the pressure jump (force normal to the plate)."""
    x, w = chebyshev4_rule(n)
    coef = pressure_jump(cfg, x) / leading_edge_weight(x)
    return float(np.sum(w * coef))


def leading_edge_suction(cfg: FlowConfig, n: int = DEFAULT_CHORD_NODES) -> float:
    """Suction force along the plate, reported as the residual between the
    normal-pressure integral and the total lift: sqrt(|L|^2 - N^2)."""
    _, l_mag = lift(cfg, n)
    n_force = normal_force(cfg, n)
    return math.sqrt(max(l_mag ** 2 - n_force ** 2, 0.0))


def far_field_circulation(cfg: FlowConfig, radius: float = 1e3,
                          n_angles: int = 8) -> float:
    """Circulation recovered from the far-field vortex coefficient of w(z).

    w ~ i*Gamma/(2*pi*z) far away; averaging z*w(z) over equispaced angles
    cancels the higher multipoles."""
    th = 2.0 * np.pi * (np.arange(n_angles) + 0.5) / n_angles
    zs = radius * np.exp(1j * th)
    zw = zs * flat_plate_complex_velocity(cfg, zs)
    return float(np.real(np.mean(zw) * 2.0 * np.pi / 1j))


def sheet_velocity_field(q: Optional[SheetDensity], gamma: Optional[SheetDensity],
                         z, arc: Optional[JordanArc] = None,
                         grid: Optional[QuadratureGrid] = None,
                         n: int = DEFAULT_CHORD_NODES):
    """Velocity w(z) = -(1/2*pi) int (q(t) + i gamma(t))/(t - z) dt induced
    by source and vortex sheets on an arc (default: the chord [-1, 1]).

    On the chord, weight-basis density parts are integrated with the matched
    Gauss-Chebyshev rule (the leading-edge singularity is exact) and smooth
    parts on ``grid`` (default _sheet_panels).  A point on the arc raises
    DomainError, a near one warns.  A narrow normalized bump recovers the
    point source / point vortex far fields Q/(2*pi*z) and i*Gamma/(2*pi*z).
    """
    arc = _CHORD if arc is None else arc
    smp = _sheet_panels(arc, n) if grid is None else _sample(arc, grid)
    parts = [(t, factor * c)
             for dens, factor in ((q, -0.5 / np.pi), (gamma, -0.5j / np.pi))
             if dens is not None for t, c in dens._parts(smp, n)]
    return _off_arc_sums(smp, parts, z)
