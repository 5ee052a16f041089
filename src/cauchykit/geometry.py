"""Contours, arcs, quadrature grids, point classification, and contour
integration primitives (plain and principal-value).

Closed contours are parameterized over [0, 2*pi) and integrated with the
periodic trapezoid rule, which is spectrally accurate for analytic
integrands.  Open arcs are parameterized over [0, 1] and integrated with
composite Gauss-Legendre panels.  Principal values are never computed by
grid-level indentation: the singularity is subtracted analytically and the
smooth remainder is integrated at full rule accuracy, by one routine
(_subtracted_pv) for closed contours and the chord's Chebyshev rules alike.
"""

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (AccuracyWarning, CapabilityError, DomainError,
                     InvalidGridError, NonFiniteError)

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

# The Cauchy factor 1/(2*pi*i), to multiply by: a division costs more
_CAUCHY = -0.5j / np.pi

# Entries per row block of a matrix route (256 kB complex), so that memory
# stays bounded whatever the node and target counts; larger blocks are no
# faster, as the block then outgrows the cache.
_BLOCK_ENTRIES = 1 << 14

# Fourier modes at rounding, relative to the largest sample; and the top-mode
# level (|k| >= 3N/8) a periodic grid resolves: from it geometric decay
# aliases 1e-16 into a trapezoid sum; a jump reads ~1/N (1e-3 at N = 1,024).
# Node spacings within which _pv may take a node's quotient from the
# interpolants: beyond, its cancellation costs <= 2e-15 (1/(t - 2), n = 256).
_ROUNDING, _UNRESOLVED, _NODE_BAND = 1e-15, 1e-6, 1.0 / 64


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


def gauss_panel_grid(n_panels: int = 24, order: int = 12, *, a: float = 0.0,
                     b: float = 1.0) -> QuadratureGrid:
    """Composite Gauss-Legendre rule on n_panels equal panels of [a, b]; for
    graded panels, pass their breakpoints to panels_from_breakpoints."""
    if n_panels < 1 or order < 2:
        raise InvalidGridError("need at least one panel and order >= 2")
    return panels_from_breakpoints(np.linspace(a, b, n_panels + 1), order)


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


@dataclass(eq=False)
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
            self.by_order[m] = self.density._at_nodes(self, m)
        return self.by_order[m]

    @property
    def near_zone(self):
        """Near-zone width: NEAR_ZONE_FACTOR times the grid length over the
        node count."""
        return NEAR_ZONE_FACTOR * self.length / self.grid.n

    @property
    def band(self):
        """On-contour band: DELTA_FRACTION times the grid length."""
        return DELTA_FRACTION * self.length

    def closest(self, points, below=np.inf):
        """(distance from each point to the curve, (s0, z(s0)) of its closest
        curve point): exact on a circle; otherwise the gap to the nearest
        node, a row block at a time, refined by Newton from that node where
        below ``below`` (s0 and z(s0) are NaN elsewhere).  (None, None)
        while no distance is below ``below``.  DomainError for a non-finite
        point: the one check of every off-curve evaluation."""
        flat = np.asarray(points, dtype=complex).reshape(-1)
        if np.count_nonzero(np.isfinite(flat)) < flat.size:
            raise DomainError("cannot classify a non-finite point")
        curve, s0, on = self.contour, None, None
        if getattr(curve, "kind", None) == "circle":
            rel = flat - curve.center   # hypot: the bits of abs(complex)
            dist = np.abs(np.hypot(rel.real, rel.imag) - curve.radius)
            if flat.size and dist.min() < below:
                s0 = np.arctan2(rel.imag, rel.real) % TWO_PI  # np.angle(rel)
                if flat.size > 1:       # one point is below already
                    s0[dist >= below] = np.nan
                on = curve.center + curve.radius * np.exp(1j * s0)
            return dist, (s0, on)
        dist, step = np.empty(flat.size), max(1, _BLOCK_ENTRIES // self.zs.size)
        for lo in range(0, flat.size, step):
            gaps = np.abs(self.zs[None] - flat[lo:lo + step, None])
            dist[lo:lo + step] = block = gaps.min(axis=1)
            if not block.min() < below:
                continue
            if s0 is None:              # s0 in the real parts
                s0, on = np.full((2, flat.size), np.nan + 0j)
            for j in (block < below).nonzero()[0]:
                i = lo + j
                s0[i], on[i] = _newton_locate(curve, flat[i], float(
                    self.grid.nodes[gaps[j].argmin()]))
                dist[i] = min(dist[i], abs(on[i] - flat[i]))
        return dist, (None if s0 is None else s0.real, on)

    def locate(self, t0, delta=None):
        """(s0, z(s0)) of the curve point closest to t0, which lies on the
        contour or arc; DomainError when t0 is not finite or lies farther
        than delta (default: the band) from the curve."""
        delta = self.band if delta is None else delta
        dist, (s0, on) = self.closest(t0)
        if dist[0] > delta:
            raise DomainError(
                f"t0 is {dist[0]:.3g} from the contour (delta={delta:.3g})")
        return float(s0[0]), on[0]


def _sample(contour, grid, density=None):
    """_Samples of the contour or arc, and of ``density`` if given, on the
    grid."""
    zs, dzs = contour.z(grid.nodes), contour.dz(grid.nodes)
    return _Samples(contour, grid, zs, dzs, dzs * grid.weights,
                    float((np.abs(dzs) * grid.weights).sum()), density)


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
    """Check simplicity, regularity and orientation at grid resolution; warn
    when a periodic trapezoid grid does not resolve z' (at a corner)."""
    smp = _sample(contour, grid)
    zs, dzs = smp.zs, smp.dzs
    if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(dzs))):
        raise DomainError("contour is non-finite at a node")
    if np.min(np.abs(dzs)) <= 0:
        raise DomainError("contour derivative vanishes at a node")
    if _has_close_pair(zs, 0.1 * smp.length / grid.n):
        raise DomainError("contour self-intersects at sample resolution")
    # the tangent's turning number, sum_j arg(z'_{j+1} / z'_j) / 2 pi, is
    # +1 for a simple counterclockwise curve, -1 clockwise, 0 for a
    # figure-eight and 2 with an inner loop, wherever the nodes fall
    turn = np.sum(np.angle(np.roll(dzs, -1) * np.conj(dzs))) / (2.0 * np.pi)
    if abs(turn - 1.0) > 1e-6:
        raise DomainError("contour tangent turning number is not +1")
    _warn_if_unresolved(dzs, grid, "the contour's z'")


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
        s = np.array([s0])
        zz, dz = curve.z(s)[0] - point, curve.dz(s)[0]
        if curve.d2z is not None:
            ddz = curve.d2z(s)[0]
        else:
            ddz = (curve.dz(np.array([fix(s0 + h)]))[0]
                   - curve.dz(np.array([fix(s0 - h)]))[0]) / (2 * h)
        g = 2.0 * (zz.conjugate() * dz).real
        gg = 2.0 * (np.abs(dz) ** 2 + (zz.conjugate() * ddz).real)
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
    return _evaluate(_sample(contour, grid), z, delta=delta).classification(0)


class _Evaluation(NamedTuple):
    """Targets of a closed contour after one pass (_evaluate): distances,
    closest() points, near-zone flags, and the finished kernel sums: row 0
    the winding number, row 1 + j functional j = (n, k, k_near)."""

    delta: float
    dist: np.ndarray
    located: tuple
    near: np.ndarray
    sums: np.ndarray

    def classification(self, i):
        """PointClassification of target i."""
        dist = float(self.dist[i])
        wind = complex(self.sums[0, i]) if dist > 0 else complex(np.nan)
        rounded = round(wind.real) if cmath.isfinite(wind) else 0
        verdict = "on-contour" if dist < self.delta else \
            "inside" if rounded >= 1 else "outside"
        return PointClassification(verdict, rounded, wind, dist, self.delta,
                                   not abs(wind - rounded) < 0.25)

    @property
    def side(self):
        """Every target's verdict: 0 outside, 1 inside, 2 on the contour."""
        inside = np.isfinite(self.sums[0]) & (np.rint(self.sums[0].real) >= 1)
        return np.where(self.dist < self.delta, 2, inside)


def _evaluate(smp, z, functionals=(), delta=None):
    """_Evaluation of the targets z against the closed contour of ``smp``,
    with J_(n,k)[f](z) = ((n-k)!/2*pi*i) sum_j f^(k)_j z'_j w_j/(z_j -
    z)^(n-k+1) for each functional (n, k, k_near), k = k_near in the near
    zone: one _kernel_sums pass per zone serves the winding number and every
    functional, each column carrying its factor, so the sums are finished.
    ``delta`` is the on-contour band, smp.band by default."""
    delta = smp.band if delta is None else delta
    if delta <= 0:
        raise DomainError("tolerance band delta must be positive")
    z = np.asarray(z, dtype=complex).reshape(-1)
    # between nodes the nearest node overstates the distance to the curve:
    # closest() refines it in the near zone (exactly on a circle)
    dist, located = smp.closest(z, smp.near_zone)
    if located[0] is None:      # no target in the near zone
        near, zones = np.zeros(z.size, dtype=bool), [(None, 1)]
    else:
        near = dist < smp.near_zone
        zones = [(None, 2)] if np.count_nonzero(near) == z.size else [
            (np.flatnonzero(~near), 1), (np.flatnonzero(near), 2)]
    dzw = smp.dzw * _CAUCHY
    sums = np.empty((1 + len(functionals), z.size), dtype=complex)
    for rows, pick in zones:
        columns = [(dzw, 1)]
        for spec in functionals:
            p = spec[0] - spec[pick]
            columns.append((smp.f(spec[pick]) * (
                dzw if p < 2 else dzw * math.factorial(p)), p + 1))
        with np.errstate(divide="ignore", invalid="ignore"):   # on a node
            part = _kernel_sums(smp.zs, columns, z if rows is None else
                                z[rows])
        if rows is None:
            sums = part
        else:
            sums[:, rows] = part
    return _Evaluation(delta, dist, located, near, sums)


def _kernel_sums(t, columns, z):
    """sum_j c_j/(t_j - z)^p over the nodes t at every point of the array z
    for each column (c, p), a row each, a block of z at a time: a block's
    reciprocals serve every column, and its row sums are, bit for bit, the
    1-D np.sum of one target."""
    out = np.empty((len(columns), z.size), dtype=complex)
    # t as a row: operands of one ndim broadcast faster
    step, t = max(1, _BLOCK_ENTRIES // t.size), t[None]
    for lo in range(0, z.size, step):
        # in place: a fresh block-sized temporary costs more than its sums
        inv = t - z[lo:lo + step, None]
        np.divide(1.0, inv, out=inv)
        terms = np.empty_like(inv)
        for i, (c, p) in enumerate(columns):
            # numpy's inv ** 1 is a general complex power: slow
            np.multiply(c, inv if p == 1 else inv ** p, out=terms)
            out[i, lo:lo + step] = terms.sum(axis=1)
    return out


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


def _require_periodic(grid, step):
    """CapabilityError unless ``step`` runs on the periodic trapezoid rule."""
    if grid.kind != "periodic-trapezoid":
        raise CapabilityError(
            f"{step} needs a periodic trapezoid grid, not {grid.kind}")


def _resolution(samples, lowest=None):
    """(level, bar) of periodic samples from their Fourier coefficients c_k,
    |k| <= N/2 (Trefethen & Weideman, SIAM Rev. 56, 2014): level, max |c_k|
    over lowest <= |k| (default 3N/8) over max|samples|; bar, the error of
    their interpolant: the tail beyond N/2 fitted to the bands from N/4 and
    3N/8, or 2 sum_(|k| >= N/4) |c_k| where they do not fall."""
    n = samples.size
    if np.iscomplexobj(samples):        # max(|c_k|, |c_-k|) by |k|
        c = np.abs(np.fft.fft(samples)) / n
        c = np.maximum(c[:n // 2 + 1], c[-np.arange(n // 2 + 1)])
    else:
        c = np.abs(np.fft.rfft(samples)) / n
    scale = max(float(np.abs(samples).max()), 1e-300)
    level = float(c[lowest or 3 * n // 8:].max()) / scale
    lo, hi = c[n // 4:3 * n // 8].max(initial=0.0), c[3 * n // 8:].max()
    if hi <= _ROUNDING * scale:
        tail = 0.0
    elif hi < lo:   # hi/lo per N/8 modes; x4 for +-k, aliased and truncated
        tail = 4.0 * hi * (hi / lo) / (1.0 - (hi / lo) ** (8.0 / n))
    else:
        tail = 2.0 * c[n // 4:].sum()
    return level, float(tail + _ROUNDING * np.log2(n) * scale)


def _warn_if_unresolved(samples, grid, what, stacklevel=3):
    """AccuracyWarning, and True, when a periodic grid (None: any equispaced
    periodic samples) leaves the samples unresolved; ``stacklevel`` counts
    frames as warnings.warn does from here, so 3 names the caller's caller."""
    periodic = grid is None or grid.kind == "periodic-trapezoid"
    level = _resolution(samples)[0] if periodic else 0
    if level > _UNRESOLVED:
        warnings.warn(f"{what} is not resolved by the grid: its top Fourier "
                      f"modes are {level:.1e} of its maximum", AccuracyWarning,
                      stacklevel=stacklevel)
    return level > _UNRESOLVED


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


def _pv(samples, g0, smp, s0, t0, quiet=False):
    """P.V. of g(t)/(t - t0) dt at the points t0 = z(s0) of the contour of
    ``smp``, g0 = g(t0): a _subtracted_pv sum.  At t0's nearest node, s0 +
    delta, the quotient is the divided difference of the trigonometric
    interpolants of g and z, the ratio of their sum_k c_k e^(i k (s0 +
    delta/2)) sin(k delta/2) (c_k k at delta = 0), which does not cancel
    (one FFT serves every row): within 1e-9, warning (unless ``quiet``)
    where their top-mode level is above _UNRESOLVED, and within _NODE_BAND
    where their error, n |delta| times that level, is below rounding.  Off
    the periodic grid a node within 1e-9 raises CapabilityError."""
    grid, n = smp.grid, smp.grid.n
    # j0: the first node from s0 - h/2 on (off the periodic grid, s0 - 1e-9)
    lead, band = (np.pi / n, _NODE_BAND * TWO_PI / n) \
        if grid.kind == "periodic-trapezoid" else (1e-9, 1e-9)
    j0 = np.searchsorted(grid.nodes, s0 - lead) % n
    delta = (grid.nodes[j0] - s0 + np.pi) % TWO_PI - np.pi
    hit, fix = np.nonzero(np.abs(delta) < band)[0], None
    if hit.size:
        _require_periodic(grid, "a principal value at a node")
        rows = np.stack((samples, smp.zs))
        coef = np.fft.fft(rows)         # the top-mode level, as _resolution
        level = (np.abs(coef[:, 3 * n // 8:5 * n // 8 + 1]).max(axis=1)
                 / np.maximum(np.abs(rows).max(axis=1), 1e-300)).max() / n
        gap = np.abs(delta[hit])
        if not quiet and gap.min() < 1e-9 and level > _UNRESOLVED:
            warnings.warn("a principal value on a node reads the interpolants' "
                          f"error: their top modes reach {level:.1e} of their "
                          "maximum", AccuracyWarning, stacklevel=4)
        hit = hit[(gap < 1e-9) | (n * level * gap <= _ROUNDING)]
        half, k = 0.5 * delta[hit, None], np.fft.fftfreq(n, 1.0 / n)
        e = np.where(half == 0, k, np.sin(half * k)) * np.exp(
            1j * (s0[hit, None] + half) * k)
        num, den = (e[:, None] * coef).sum(axis=2).T
        fix = hit, j0[hit], num / den * smp.dzw[j0[hit]]
    return _subtracted_pv(samples, smp.zs, smp.dzw, g0, t0, 1j * np.pi, fix)


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
    _require_periodic(grid, "pv_at_all_nodes off the circle")
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


def _subtracted_pv(g, t, cw, g0, t0, weight, fix=None):
    """P.V. of g(t)/(t - t0) dt on the rule (t, cw) at every target t0, g0 =
    g(t0): sum_j (g_j - g0) cw_j/(t_j - t0) + weight g0, the subtracted
    pole's P.V.; row rows[i] of ``fix`` = (rows, cols, values), rows rising,
    takes values[i] for its term at node cols[i], which cancels there.  A
    block's rows each sum, bit for bit, as their target alone would."""
    out = weight * g0
    for r in _row_blocks(t0.size, t.size):
        with np.errstate(divide="ignore", invalid="ignore"):   # on a node
            terms = (g - g0[r, None]) * cw / (t - t0[r, None])
        if fix is not None:
            rows, cols, values = fix
            lo, hi = rows.searchsorted(r.start), rows.searchsorted(r.stop)
            terms[rows[lo:hi] - r.start, cols[lo:hi]] = values[lo:hi]
        out[r] += terms.sum(axis=1)
    return out


def _chord_pv(func, nodes, weights, f_nodes, targets, weight):
    """P.V. int f(x)/(x - xi) w(x) dx for every real target xi, f = ``func``,
    on a fixed rule for the weight function w, with nodes decreasing (both
    Chebyshev rules) and f_nodes = f(x_j): a _subtracted_pv sum, ``weight``
    the P.V. of w.  A target within 1e-8 of a node takes the removable value
    f'(xi) there, a central difference of ``func``."""
    up = nodes[::-1]    # the first node from xi - 1e-8 on, counted upwards
    j = np.searchsorted(up, targets - 1e-8) % nodes.size
    hit, fix = np.nonzero(np.abs(up[j] - targets) < 1e-8)[0], None
    if hit.size:
        xi, h, col = targets[hit], 1e-5, nodes.size - 1 - j[hit]
        fix = hit, col, (np.asarray(func(xi + h)) - np.asarray(
            func(xi - h))) / (2.0 * h) * weights[col]
    return _subtracted_pv(f_nodes, nodes, weights, np.asarray(
        func(targets), dtype=float), targets, weight, fix)


def _sided(pv, g0):
    """(f+, f-) = pv/(2*pi*i) +- g0/2: the limits at t0 of the Cauchy integral
    of g over a curve through t0, f+ from its left, pv its P.V. (Plemelj)."""
    mean, half = pv * _CAUCHY, 0.5 * g0
    return mean + half, mean - half
