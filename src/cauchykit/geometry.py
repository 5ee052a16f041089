"""Contours, arcs, quadrature grids, point classification, and contour
integration primitives (plain and principal-value).

Closed contours are parameterized over [0, 2*pi) and integrated with the
periodic trapezoid rule, which is spectrally accurate for analytic
integrands.  Open arcs are parameterized over [0, 1] and integrated with
composite Gauss-Legendre panels.  Principal values are never computed by
grid-level indentation: the singularity is subtracted analytically and the
smooth remainder is integrated at full rule accuracy.
"""

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import (AccuracyWarning, DomainError, InvalidGridError,
                     NonFiniteError)

TWO_PI = 2.0 * np.pi

# On-contour tolerance delta, as a fraction of contour length.
DELTA_FRACTION = 1e-8

# Near-zone width, in multiples of (contour length / node count).  Targets
# closer to the contour than this are resolvable only with a conditioning
# caveat: the kernel peaks faster than the grid.
NEAR_ZONE_FACTOR = 10.0

# Analytic principal value of the bare Cauchy kernel integrated over any
# smooth closed contour against dz/(t0 - z), for t0 on the contour.
PV_SINGULAR_WEIGHT = -1j * np.pi

# Entries per row block of a matrix route (256 kB complex), so that memory
# stays bounded whatever the node and target counts; larger blocks are no
# faster, as the block then outgrows the cache.
_BLOCK_ENTRIES = 1 << 14


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights of a fixed quadrature rule on a parameter interval."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    @property
    def n(self):
        return self.nodes.size


def periodic_trapezoid_grid(n: int) -> QuadratureGrid:
    """Equispaced trapezoid rule on [0, 2*pi); n must be even and >= 8."""
    if n < 8 or n % 2:
        raise InvalidGridError(f"periodic trapezoid grid needs even n >= 8, got {n}")
    s = TWO_PI * np.arange(n) / n
    w = np.full(n, TWO_PI / n)
    return QuadratureGrid(s, w, "periodic-trapezoid")


@lru_cache(maxsize=64)
def _leggauss(order):
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=16)
def _legendre_steps(order):
    """alpha_i = (2i + 1) c_i^2, i = 1 .. order - 2, of the recurrence
    v_(i+1) = alpha_i x v_i - v_(i-1) that v_i = P_i/c_i obey, with c_1 = 1
    and c_(i+1) = 1/((i + 1) c_i): one product and one difference a step."""
    c, steps = 1.0, []
    for i in range(1, order - 1):
        steps.append((2 * i + 1) * c * c)
        c = 1.0 / ((i + 1) * c)
    return np.array(steps)


def panels_from_breakpoints(breaks, order: int = 12) -> QuadratureGrid:
    """Composite Gauss-Legendre rule over consecutive [breaks] intervals."""
    breaks = np.asarray(breaks, dtype=float)
    if breaks.size < 2 or np.any(np.diff(breaks) <= 0):
        raise InvalidGridError("breakpoints must be strictly increasing")
    x0, w0 = _leggauss(order)
    lo = breaks[:-1, None]
    h = 0.5 * (breaks[1:, None] - lo)
    return QuadratureGrid((lo + h * (x0 + 1.0)).ravel(), (h * w0).ravel(),
                          "gauss-legendre-panels")


def gauss_panel_grid(n_panels: int = 24, order: int = 12, grade: int = 0,
                     a: float = 0.0, b: float = 1.0) -> QuadratureGrid:
    """Composite Gauss-Legendre panels on [a, b].

    ``grade`` dyadically subdivides the first and last panel that many times,
    clustering nodes toward the endpoints (used for densities or induced
    integrands with integrable endpoint singularities).
    """
    if n_panels < 1 or order < 2:
        raise InvalidGridError("need at least one panel and order >= 2")
    edges = np.linspace(a, b, n_panels + 1)
    breaks = list(edges)
    if grade > 0:
        w0 = edges[1] - edges[0]
        left = [a + w0 * 2.0 ** (-j) for j in range(grade, 0, -1)]
        wn = edges[-1] - edges[-2]
        right = [b - wn * 2.0 ** (-j) for j in range(1, grade + 1)]
        breaks = [a] + left + list(edges[1:-1]) + right + [b]
    return panels_from_breakpoints(breaks, order)


# ---------------------------------------------------------------------------
# contours and arcs


@dataclass(frozen=True)
class ClosedContour:
    """Counterclockwise simple closed curve z(s), s in [0, 2*pi).

    ``z`` and ``dz`` must accept ndarray arguments.  ``kind`` of "circle"
    enables exact point location; generic smooth contours are located by
    Newton steps from the nearest grid node.
    """

    z: Callable
    dz: Callable
    d2z: Optional[Callable] = None
    kind: str = "generic"
    center: complex = 0.0 + 0.0j
    radius: float = 0.0

    def reversed(self):
        """Same curve traversed clockwise (the complement orientation)."""
        z, dz, d2z = self.z, self.dz, self.d2z
        return ClosedContour(
            z=lambda s: z(TWO_PI - np.asarray(s)),
            dz=lambda s: -dz(TWO_PI - np.asarray(s)),
            d2z=None if d2z is None else (lambda s: d2z(TWO_PI - np.asarray(s))),
            kind="generic", center=self.center, radius=self.radius)


def circle(center: complex = 0.0 + 0.0j, radius: float = 1.0) -> ClosedContour:
    if radius <= 0:
        raise DomainError("circle radius must be positive")
    c, r = complex(center), float(radius)
    return ClosedContour(
        z=lambda s: c + r * np.exp(1j * np.asarray(s, dtype=float)),
        dz=lambda s: 1j * r * np.exp(1j * np.asarray(s, dtype=float)),
        d2z=lambda s: -r * np.exp(1j * np.asarray(s, dtype=float)),
        kind="circle", center=c, radius=r)


def ellipse(a: float, b: float) -> ClosedContour:
    """Counterclockwise ellipse with semi-axes a (real) and b (imaginary)."""
    if a <= 0 or b <= 0:
        raise DomainError("ellipse semi-axes must be positive")
    return ClosedContour(
        z=lambda s: a * np.cos(np.asarray(s, dtype=float))
        + 1j * b * np.sin(np.asarray(s, dtype=float)),
        dz=lambda s: -a * np.sin(np.asarray(s, dtype=float))
        + 1j * b * np.cos(np.asarray(s, dtype=float)),
        d2z=lambda s: -a * np.cos(np.asarray(s, dtype=float))
        - 1j * b * np.sin(np.asarray(s, dtype=float)),
        kind="generic")


def build_unit_circle(n: int):
    """Unit circle z(s) = exp(i s) with an n-node periodic trapezoid grid."""
    return circle(0.0, 1.0), periodic_trapezoid_grid(n)


@dataclass(frozen=True, eq=False)
class _Samples:
    """The one sampling of a closed contour or an open arc, and of a density
    on it, that a call makes: z, z' and z'w at the grid nodes, the grid
    length sum |z'|w (spectrally accurate, so no separate sweep sets the
    on-contour band or the near-zone width), and f^(m) at the nodes by
    order m, each order sampled on first use."""

    contour: ClosedContour
    grid: QuadratureGrid
    zs: np.ndarray
    dzs: np.ndarray
    dzw: np.ndarray
    length: float
    density: Optional[object] = None
    by_order: dict = field(default_factory=dict)

    def f(self, m):
        """f^(m) at the nodes."""
        if m not in self.by_order:
            self.by_order[m] = self.density._at_nodes(self.zs, self.dzs, m)
        return self.by_order[m]

    @property
    def near_zone(self):
        """Near-zone width: NEAR_ZONE_FACTOR times the grid length over the
        node count."""
        return NEAR_ZONE_FACTOR * self.length / self.grid.n

    def closest(self, point, below=np.inf):
        """(distance from ``point`` to the curve, (s0, z(s0)) of the closest
        curve point or None): exact on a circle; otherwise the nearest
        node's gap, refined by Newton from that node when it is below
        ``below``."""
        curve = self.contour
        if getattr(curve, "kind", None) == "circle":
            rel = point - curve.center
            s0 = float(np.angle(rel)) % TWO_PI
            return (float(abs(abs(rel) - curve.radius)),
                    (s0, curve.center + curve.radius * np.exp(1j * s0)))
        gaps = np.abs(self.zs - point)
        j = int(np.argmin(gaps))
        dist = float(gaps[j])
        if not dist < below:
            return dist, None
        located = _newton_locate(curve, point, float(self.grid.nodes[j]))
        return min(dist, float(abs(located[1] - point))), located

    def locate(self, t0, delta=None):
        """(s0, z(s0)) of the curve point closest to t0, which lies on the
        contour or arc; DomainError when t0 lies farther than delta
        (default: the band of the grid length) from the curve."""
        if not np.isfinite(t0):
            raise DomainError("cannot locate a non-finite point")
        if delta is None:
            delta = DELTA_FRACTION * self.length
        dist, located = self.closest(t0)
        if dist > delta:
            raise DomainError(
                f"t0 is {dist:.3g} from the contour (delta={delta:.3g})")
        return located


def _sample(contour, grid, density=None):
    """_Samples of the contour or arc, and of ``density`` if given, on the
    grid."""
    zs, dzs = contour.z(grid.nodes), contour.dz(grid.nodes)
    return _Samples(contour, grid, zs, dzs, dzs * grid.weights,
                    float(np.sum(np.abs(dzs) * grid.weights)), density)


@lru_cache(maxsize=16)
def _equal_panels(n_panels, order):
    """gauss_panel_grid(n_panels, order), built once; its arrays are shared
    by every caller, so they are read-only."""
    grid = gauss_panel_grid(n_panels, order)
    grid.nodes.setflags(write=False)
    grid.weights.setflags(write=False)
    return grid


def _panel_samples(arc, n_panels, order, smp=None):
    """_Samples of the arc on n_panels equal order-``order`` Gauss-Legendre
    panels of [0, 1]: ``smp`` itself when its grid is exactly those panels."""
    grid = _equal_panels(n_panels, order)
    if (smp is not None and smp.grid.n == grid.n
            and (smp.grid.nodes == grid.nodes).all()):
        return smp
    return _sample(arc, grid)


def validate_contour(contour: ClosedContour, grid: QuadratureGrid):
    """Check simplicity, regularity and orientation at grid resolution."""
    smp = _sample(contour, grid)
    zs = smp.zs
    if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(smp.dzs))):
        raise DomainError("contour is non-finite at a node")
    if np.min(np.abs(smp.dzs)) <= 0:
        raise DomainError("contour derivative vanishes at a node")
    if _has_close_pair(zs, 0.1 * smp.length / grid.n):
        raise DomainError("contour self-intersects at sample resolution")
    # the tangent's turning number, sum_j arg(z'_{j+1} / z'_j) / 2 pi, is
    # +1 for a simple counterclockwise curve, -1 clockwise, 0 for a
    # figure-eight and 2 with an inner loop, wherever the nodes fall
    dzs = smp.dzs
    turn = np.sum(np.angle(np.roll(dzs, -1) * np.conj(dzs))) / (2.0 * np.pi)
    if abs(turn - 1.0) > 1e-6:
        raise DomainError("contour tangent turning number is not +1")


# forward neighbour cells (dx, dy) of a cell, two cells on each axis
_FORWARD_CELLS = [(0, 1), (0, 2)] + [(dx, dy) for dx in (1, 2)
                                     for dy in range(-2, 3)]


def _has_close_pair(zs, h):
    """Whether two of the finite points zs lie closer than h, by a cell
    list: in cells of side h/2 two points of one cell are at most h/sqrt(2)
    apart, and a closer pair of points in distinct cells is at most two
    cells apart on each axis, so each point is tested against the points of
    its 12 forward neighbour cells only (O(n log n), at most 12n pairs)."""
    x, y = zs.real - zs.real.min(), zs.imag - zs.imag.min()
    kx, ky = (np.floor(x / (0.5 * h)).astype(np.int64),
              np.floor(y / (0.5 * h)).astype(np.int64) + 2)
    width = int(ky.max()) + 3
    keys = kx * width + ky
    order = np.argsort(keys)
    keys = keys[order]
    if np.any(keys[1:] == keys[:-1]):
        return True
    wanted = keys[:, None] + np.array([dx * width + dy
                                       for dx, dy in _FORWARD_CELLS])
    pos = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    i, c = np.nonzero(keys[pos] == wanted)
    d = zs[order[i]] - zs[order[pos[i, c]]]
    return bool(np.any(d.real ** 2 + d.imag ** 2 < h * h))


@dataclass(frozen=True)
class JordanArc:
    """Open regular path z(s), s in [0, 1], endpoints a = z(0), b = z(1)."""

    z: Callable
    dz: Callable
    d2z: Optional[Callable] = None

    @property
    def a(self) -> complex:
        return complex(self.z(np.array([0.0]))[0])

    @property
    def b(self) -> complex:
        return complex(self.z(np.array([1.0]))[0])


def _newton_locate(curve, point, s0):
    """Parameter s0 and curve point z(s0) closest to ``point`` on a contour
    or arc: Newton steps on |z(s) - point|^2 from the seed s0, wrapped into
    [0, 2*pi) on a closed contour and clamped to [0, 1] on an arc.  z'' is a
    central difference of z' (step 1e-6 closed, 1e-7 open) when the curve
    has no ``d2z``.
    """
    if isinstance(curve, ClosedContour):
        fix, h = (lambda s: s % TWO_PI), 1e-6
    else:
        fix, h = (lambda s: min(max(s, 0.0), 1.0)), 1e-7
    for _ in range(8):
        zz = curve.z(np.array([s0]))[0] - point
        dz = curve.dz(np.array([s0]))[0]
        if curve.d2z is not None:
            ddz = curve.d2z(np.array([s0]))[0]
        else:
            ddz = (curve.dz(np.array([fix(s0 + h)]))[0]
                   - curve.dz(np.array([fix(s0 - h)]))[0]) / (2 * h)
        g = 2.0 * np.real(np.conj(zz) * dz)
        gg = 2.0 * (np.abs(dz) ** 2 + np.real(np.conj(zz) * ddz))
        if gg <= 0:
            break
        step = g / gg
        s0 = fix(s0 - step)
        if abs(step) < 1e-15:
            break
    return s0, curve.z(np.array([s0]))[0]


def segment(a: complex, b: complex) -> JordanArc:
    """Straight arc from a to b."""
    if a == b:
        raise DomainError("arc endpoints must differ")
    a, b = complex(a), complex(b)
    return JordanArc(
        z=lambda s: a + (b - a) * np.asarray(s, dtype=float),
        dz=lambda s: np.full(np.shape(np.asarray(s)), b - a, dtype=complex),
        d2z=lambda s: np.zeros(np.shape(np.asarray(s)), dtype=complex))


# ---------------------------------------------------------------------------
# point classification


@dataclass(frozen=True)
class PointClassification:
    """Inside / on-contour / outside verdict with its supporting numbers."""

    verdict: str                # "inside" | "on-contour" | "outside"
    winding: int
    winding_estimate: complex
    distance: float
    delta: float
    ill_conditioned: bool = False

    @property
    def inside(self):
        return self.verdict == "inside"

    @property
    def outside(self):
        return self.verdict == "outside"

    @property
    def on_contour(self):
        return self.verdict == "on-contour"


def classify_point(contour: ClosedContour, grid: QuadratureGrid, z: complex,
                   delta: Optional[float] = None) -> PointClassification:
    """Classify z against the contour by winding number and its distance to
    the curve (to the nearest node, unless z is in the near zone).  The
    default band delta is DELTA_FRACTION times the grid length."""
    smp = _sample(contour, grid)
    if delta is None:
        delta = DELTA_FRACTION * smp.length
    return _classify(smp, z, delta)[0]


def _classify(smp, z, delta):
    """(classify_point from the node samples ``smp``, 1/(z_j - z) at the
    nodes for the kernel sums of the same target, and the (s0, z(s0)) of
    the closest curve point when a Newton solve found it, else None)."""
    if not np.isfinite(z):
        raise DomainError("cannot classify a non-finite point")
    if delta <= 0:
        raise DomainError("tolerance band delta must be positive")
    # between nodes the nearest node overstates the distance to the curve:
    # closest() refines it in the near zone (exactly on a circle)
    dist, located = smp.closest(z, smp.near_zone)
    d = smp.zs - z
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        wind = complex(np.sum(smp.dzw * inv) / (2j * np.pi)) \
            if dist > 0 else complex(np.nan)
    rounded = int(np.round(np.real(wind))) if np.isfinite(wind) else 0
    converged = np.isfinite(wind) and abs(wind - rounded) < 0.25
    verdict = "on-contour" if dist < delta else \
        "inside" if rounded >= 1 else "outside"
    return PointClassification(verdict, rounded, wind, dist, delta,
                               ill_conditioned=not converged), inv, located


def near_zone_width(contour, grid: QuadratureGrid) -> float:
    """Distance below which a target of a contour or arc is in the near zone:
    NEAR_ZONE_FACTOR times the grid length over the node count."""
    return _sample(contour, grid).near_zone


# ---------------------------------------------------------------------------
# contour integration


def contour_integral(f, contour: ClosedContour, grid: QuadratureGrid) -> complex:
    """Plain contour integral: sum of f(z(s_j)) z'(s_j) w_j.

    Vanishes to rule accuracy for f regular inside and on the contour.
    """
    vals = np.asarray(f(contour.z(grid.nodes)), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteError("integrand is non-finite at a quadrature node")
    return complex(np.sum(vals * contour.dz(grid.nodes) * grid.weights))


def pv_singular_weight(contour: ClosedContour, t0: complex,
                       delta: Optional[float] = None) -> complex:
    """Principal value of the bare kernel, P.V. of dz/(t0 - z) over the contour.

    Equal to -i*pi for every smooth closed contour and every on-contour t0
    (equivalently +i*pi for the kernel dz/(z - t0)).  t0 is located on a
    1,024-node trapezoid sampling of the contour, whose grid length sets
    the default band delta.
    """
    _sample(contour, periodic_trapezoid_grid(1024)).locate(t0, delta)
    return PV_SINGULAR_WEIGHT


def spectral_derivative(samples: np.ndarray) -> np.ndarray:
    """Derivative of 2*pi-periodic samples via the trigonometric interpolant."""
    samples = np.asarray(samples, dtype=complex)
    n = samples.size
    k = np.fft.fftfreq(n, 1.0 / n)
    return np.fft.ifft(1j * k * np.fft.fft(samples))


def trig_interp(samples: np.ndarray, s) -> np.ndarray:
    """Evaluate the trigonometric interpolant of periodic samples at s."""
    samples = np.asarray(samples, dtype=complex)
    n = samples.size
    coef = np.fft.fft(samples) / n
    k = np.fft.fftfreq(n, 1.0 / n)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty(s.size, dtype=complex)
    for r in _row_blocks(s.size, n):
        out[r] = np.exp(1j * np.outer(s[r], k)) @ coef
    return out


def _wrapped_param_dist(s, s0):
    return np.abs((s - s0 + np.pi) % TWO_PI - np.pi)


def _pv(samples, value_at_t0, zs, dzs, t0, grid, s0):
    """P.V. of g(t)/(t - t0) dt, t0 = z(s0), from the samples of g, z and z'
    at the nodes: the trapezoid sum of the smooth (g(t) - g(t0))/(t - t0),
    whose value at a node s0 is the spectral derivative there, plus the
    subtracted pole's analytic +i*pi*g(t0)."""
    samples = np.asarray(samples, dtype=complex)
    d = _wrapped_param_dist(grid.nodes, s0)
    j0 = int(np.argmin(d))
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = (samples - value_at_t0) * dzs / (zs - t0)
    if d[j0] < 1e-9:
        quotient[j0] = spectral_derivative(samples)[j0]
    smooth = complex(np.sum(quotient * grid.weights))
    return smooth + value_at_t0 * (1j * np.pi)


def pv_contour_integral(f, contour: ClosedContour, grid: QuadratureGrid,
                        t0: complex, delta: Optional[float] = None) -> complex:
    """Principal value of f(t)/(t - t0) dt over the contour, t0 on it.

    Satisfies the boundary relation P.V. of f/(t - t0) = i*pi*f(t0) for f
    regular inside and on the contour; the location-independent constant for
    the reversed kernel is available as :func:`pv_singular_weight`.
    """
    smp = _sample(contour, grid)
    s0, t0 = smp.locate(t0, delta)
    samples = np.asarray(f(smp.zs), dtype=complex)
    if not np.all(np.isfinite(samples)):
        raise NonFiniteError("density is non-finite at a quadrature node")
    f_t0 = complex(np.asarray(f(np.array([t0])))[0])
    _warn_if_rough(samples, grid, s0)
    return _pv(samples, f_t0, smp.zs, smp.dzs, t0, grid, s0)


def _warn_if_rough(samples, grid, s0):
    # crude smoothness probe: spectral vs low-order difference of the samples
    d = _wrapped_param_dist(grid.nodes, s0)
    j0 = int(np.argmin(d))
    if d[j0] > 1e-9:
        return
    n = samples.size
    h = TWO_PI / n
    fd = (samples[(j0 + 1) % n] - samples[(j0 - 1) % n]) / (2 * h)
    sp = spectral_derivative(samples)[j0]
    scale = np.max(np.abs(samples)) / h + 1e-300
    if abs(fd - sp) > 0.2 * scale:
        warnings.warn("density looks non-smooth near t0; principal value "
                      "accuracy is degraded", AccuracyWarning, stacklevel=3)


def pv_at_all_nodes(samples: np.ndarray, contour: ClosedContour,
                    grid: QuadratureGrid) -> np.ndarray:
    """P.V. of g(t)/(t - t0) dt for t0 at every grid node simultaneously.

    On a circle with the periodic trapezoid rule this is the Cauchy
    projection pi*i*(P+ - P-): the Fourier multiplier +pi*i on the modes
    exp(i*k*s) with k >= 0 (regular inside) and -pi*i on k < 0 (regular
    outside, vanishing at infinity), the Nyquist mode counted with k < 0.
    It costs one FFT (Henrici, SIAM Rev. 21, 1979).  Other contours use the
    same discrete sum as the n x n matrix of subtracted difference quotients
    (whose diagonal is the spectral derivative of the samples) plus the
    analytic +i*pi*g(t0), arranged as
    sum_j R_ij z'_j w_j (g_j - g_i) with R_ij = 1/(z_j - z_i).  R is
    antisymmetric, so each pair j > i is formed once and applied to both
    of its rows, a block of rows at a time in one buffer, so memory stays
    bounded; g enters less its node mean, so a large mean costs no accuracy.
    """
    return _pv_at_all_nodes(samples, _sample(contour, grid))


def _pv_at_all_nodes(samples, smp):
    """pv_at_all_nodes from the contour's node samples ``smp``."""
    samples = np.asarray(samples, dtype=complex)
    grid = smp.grid
    if smp.contour.kind == "circle" and grid.kind == "periodic-trapezoid":
        k = np.fft.fftfreq(grid.n)
        return np.fft.ifft(np.where(k >= 0, 1j * np.pi, -1j * np.pi)
                           * np.fft.fft(samples))
    n = grid.n
    zs, dzw = smp.zs, smp.dzw
    # the sums see g minus its node mean, whose constant part adds nothing
    # to sum_j R_ij z'_j w_j (g_j - g_i): a large mean leaves no rounding
    g = samples - np.mean(samples)
    cols = np.stack([dzw * g, dzw], axis=1)
    acc = np.zeros((n, 2), dtype=complex)
    blocks = _row_blocks(n, n)
    buf = np.empty((blocks[0].stop - blocks[0].start) * n, dtype=complex)
    for r in blocks:
        # rows i of the block against columns j >= r.start: the leading
        # square holds both orders of the block's own pairs, and the rest,
        # the pairs j beyond the block, is applied to rows j as well
        m = r.stop - r.start
        recip = buf[:m * (n - r.start)].reshape(m, n - r.start)
        np.subtract(zs[r.start:], zs[r, None], out=recip)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.reciprocal(recip, out=recip)
        np.fill_diagonal(recip, 0.0)
        acc[r] += recip @ cols[r.start:]
        acc[r.stop:] -= recip[:, m:].T @ cols[r]
    return (samples * (1j * np.pi) + grid.weights * spectral_derivative(samples)
            + acc[:, 0] - g * acc[:, 1])


def _row_blocks(n_rows, n_cols):
    """Slices of consecutive rows, each covering at most _BLOCK_ENTRIES
    entries of an n_rows x n_cols matrix (one row at least)."""
    step = max(1, _BLOCK_ENTRIES // n_cols)
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _pv_smooth_part(func, nodes, weights, f_nodes, targets, f_targets):
    """sum_j (f(x_j) - f(xi))/(x_j - xi) w_j for every real target xi: the
    subtracted part of P.V. int f(x)/(x - xi) dx on a fixed rule, with
    f_nodes = f(x_j) and f_targets = f(xi).  Where a target hits a node
    (|x_j - xi| < 1e-8) the quotient takes its removable value f'(xi), a
    central difference of ``func``.  Rows go a block at a time, so memory
    stays bounded."""
    out = np.empty(targets.size)
    for r in _row_blocks(targets.size, nodes.size):
        diff = nodes - targets[r, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = (f_nodes - f_targets[r, None]) / diff
        rows, cols = np.nonzero(np.abs(diff) < 1e-8)
        if rows.size:
            xi, h = targets[r][rows], 1e-5
            quot[rows, cols] = (np.asarray(func(xi + h))
                                - np.asarray(func(xi - h))) / (2.0 * h)
        out[r] = quot @ weights
    return out
