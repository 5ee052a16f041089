"""Contours, arcs, quadrature grids, point classification, and contour
integration primitives (plain and principal-value).

Closed contours are parameterized over [0, 2*pi) and integrated with the
periodic trapezoid rule, which is spectrally accurate for analytic
integrands.  Every route takes its nodes from one _sample, which samples
a circle from its grid's phases exp(i s_j) (QuadratureGrid._phase) and
calls neither z nor z'.  Outside it, validate_contour (the contract
check), _panel_record (at the panel breaks), _newton_locate and plemelj's
Kress-mapped outer nodes call z or z'; the Pade probe builds its held-out
odd nodes.  Open arcs are parameterized over [0, 1] and integrated with
composite Gauss-Legendre panels, of order 12 on the arcs' own
(_equal_panels), which may also cover a closed contour.
Principal values are never computed by grid-level indentation, and each
is as exact next to a node as between nodes.  On any closed-contour grid
and on the chord's Chebyshev rules the singularity is subtracted
analytically (_subtracted_pv); next to a node, whose quotient cancels, a
target takes the same rule moved off its nodes (_near_split): the
trapezoid rule shifted by half a spacing, panels of one order more on the
same breaks (QuadratureGrid._shifted), or the chord's rule shifted by a
quarter in theta.  An arc, and pv_at_all_nodes on panels, take the product
integral, which integrates the density's Legendre interpolant against the
kernel exactly on the three panels nearest the target (_arc_pv_weights),
with each panel's inverse Legendre-Vandermonde matrix from the samples'
record (_Samples.panels), built once and warning when it is off; the arcs'
own panels, with their records, are kept for the last two arcs
(_arc_panels).
"""

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (AccuracyWarning, CapabilityError, ContractError,
                     DomainError, InvalidGridError, NonFiniteError)

TWO_PI = 2.0 * np.pi

# On-curve band delta of a contour or an arc, as a fraction of its length.
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
# Node gaps (weights in _pv) within which _pv and _chord_pv take shifted
# rules: beyond, a node's cancelling quotient costs <= 2e-15 (n = 256).
# Half-panels within which _arc_pv_weights counts a target as on a panel
# break (far above the rounding of t0 - break, far below what a panel
# resolves).
_ROUNDING, _UNRESOLVED, _NODE_BAND, _BREAK_BAND = 1e-15, 1e-6, 1.0 / 64, 1e-8
# max |inv V - I| of a panel's Legendre-Vandermonde inverse (_Panels) above
# which its product integrals warn: order 24 reads 3e-13 on the ellipse (1,
# 0.6), order 32 from 9e-10 on the unit circle, and errs from 5e-9
_INVERSE_RESIDUAL = 1e-11
_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Nodes and weights of a quadrature rule on a parameter interval, and a
    panel rule's breakpoints (else None); grids compare by identity."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    breaks: Optional[np.ndarray] = None

    @property
    def n(self):
        return self.nodes.size

    @cached_property
    def _span(self):
        """(sum of the weights, lowest node, highest node), read once."""
        return (float(self.weights.sum()), float(self.nodes.min()),
                float(self.nodes.max()))

    @cached_property
    def _ring(self):
        """Nodes and weights between copies of their last and first entries,
        the copied nodes moved by -2*pi and 2*pi; built once."""
        return [np.concatenate((a[-1:] - p, a, a[:1] + p))
                for a, p in ((self.nodes, TWO_PI), (self.weights, 0.0))]

    @cached_property
    def _phase(self):
        """exp(i s) at the nodes, built once and read-only: a circle's
        samples (_sample) are its center and radius times these."""
        phase = np.exp(1j * self.nodes)
        phase.setflags(write=False)
        return phase

    @cached_property
    def _shifted(self):
        """The rule moved off its nodes, built once: the trapezoid rule
        shifted half a spacing; panels of order m + 1 on the same breaks,
        whose nodes interlace with the grid's (CapabilityError otherwise)."""
        if self.breaks is not None:
            return panels_from_breakpoints(
                self.breaks, self.n // (self.breaks.size - 1) + 1)
        _require_periodic(self, "a principal value next to a node")
        return QuadratureGrid(self.nodes + np.pi / self.n, self.weights,
                              self.kind)


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
    """Composite Gauss-Legendre rule over the [breaks] intervals it records."""
    breaks = np.array(breaks, dtype=float)
    if not (breaks.size > 1 and np.isfinite(breaks).all()
            and np.all(np.diff(breaks) > 0)):
        raise InvalidGridError("breaks must be finite and strictly increasing")
    x0, w0 = _leggauss(order)
    lo = breaks[:-1, None]
    h = 0.5 * (breaks[1:, None] - lo)
    return QuadratureGrid((lo + h * (x0 + 1.0)).ravel(), (h * w0).ravel(),
                          "gauss-legendre-panels", breaks)


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

    ``z`` and ``dz`` must accept ndarray arguments; every route samples
    them through _sample (module docstring).  ``kind`` of "circle" declares
    z(s) = center + radius*exp(i s): such a contour is sampled from its
    grid's phases exp(i s_j) (QuadratureGrid._phase), without calling ``z``
    or ``dz``, located exactly, and transformed by one FFT; validate_contour
    checks the declaration.  Generic smooth contours are sampled by their
    callables and located by Newton steps from the nearest grid node.
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
    """Counterclockwise circle z(s) = center + radius*exp(i s), of kind
    "circle": on a grid it is sampled as center + radius*phase and z' as
    1j*radius*phase from the grid's phases, the same expressions as its
    callables, so the samples are theirs bit for bit."""
    c, r = complex(center), float(radius)
    if not (cmath.isfinite(c) and math.isfinite(r) and r > 0):
        raise DomainError("circle needs a finite center and radius > 0")
    return ClosedContour(
        z=lambda s: c + r * np.exp(1j * np.asarray(s, dtype=float)),
        dz=lambda s: 1j * r * np.exp(1j * np.asarray(s, dtype=float)),
        d2z=lambda s: -r * np.exp(1j * np.asarray(s, dtype=float)),
        kind="circle", center=c, radius=r)


def ellipse(a: float, b: float) -> ClosedContour:
    """Counterclockwise ellipse with semi-axes a (real) and b (imaginary)."""
    if not (0 < a < np.inf and 0 < b < np.inf):
        raise DomainError("ellipse semi-axes must be finite and positive")
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

    @cached_property
    def panels(self):
        """The _Panels record of a panel grid, built on first use."""
        return _panel_record(self)

    @property
    def near_zone(self):
        """Near-zone width: NEAR_ZONE_FACTOR times the grid length over the
        node count."""
        return NEAR_ZONE_FACTOR * self.length / self.grid.n

    @property
    def band(self):
        """On-curve band, contour or arc: DELTA_FRACTION times the length."""
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

    def locate(self, t0):
        """(s0, z(s0)) of the curve point closest to t0, which lies on the
        contour or arc: locate_all of one point."""
        s0, on = self.locate_all(_one_point(t0))
        return float(s0[0]), on[0]

    def locate_all(self, points):
        """(s0, z(s0)), flat arrays, of the curve point closest to each
        point, which lies on the contour or arc, as closest() finds it (by
        Newton from its nearest node, one point at a time, off a circle);
        DomainError when a point is not finite or lies farther than the band
        from the curve."""
        dist, (s0, on) = self.closest(points)
        band = self.band
        far = [d for d in dist.tolist() if d > band]    # cheap for a few
        if far:
            raise DomainError(f"t0 is {far[0]:.3g} from the curve (band "
                              f"{band:.3g})")
        return s0, on


def _one_point(t0):
    """t0, which a scalar route takes alone; TypeError for an array."""
    if np.asarray(t0).ndim:
        raise TypeError("expected one point, not an array")
    return t0


def _finite(values, what):
    """values, or NonFiniteError if one of them is not finite: the one
    check of every sampled density."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:      # cheaper than all()
        raise NonFiniteError(f"{what} is not finite")
    return values


def _real(values, what, error=ContractError):
    """values as floats, or ``error`` if one has a nonzero imaginary part;
    a real dtype is never scanned."""
    values = np.asarray(values)
    if np.iscomplexobj(values) and np.any(values.imag):
        raise error(f"{what} has a nonzero imaginary part")
    return np.real(values).astype(float, copy=False)


def _sample(contour, grid, density=None):
    """_Samples of the contour or arc, and of ``density`` if given, on the
    grid.  InvalidGridError unless its weights sum to the curve's parameter
    length, 2*pi on a closed contour and 1 on an arc, whose nodes must lie
    in [0, 1]: a grid on another interval reads part of the curve.  A
    circle is sampled from the grid's phases, by circle()'s own
    expressions, and calls neither z nor dz."""
    closed = isinstance(contour, ClosedContour)
    total, lo, hi = grid._span
    length = TWO_PI if closed else 1.0
    if not (abs(total - length) <= 1e-10 * length
            and (closed or 0.0 <= lo and hi <= 1.0)):
        raise InvalidGridError(f"grid weights sum to {total:.6g} on [{lo:.6g}"
                               f", {hi:.6g}], not the curve's {length:.6g}")
    if closed and contour.kind == "circle":
        phase = grid._phase
        zs = contour.center + contour.radius * phase
        dzs = 1j * contour.radius * phase
    else:
        zs, dzs = contour.z(grid.nodes), contour.dz(grid.nodes)
    return _Samples(contour, grid, zs, dzs, dzs * grid.weights,
                    float((np.abs(dzs) * grid.weights).sum()), density)


@lru_cache(maxsize=16)
def _equal_panels(n_panels):
    """gauss_panel_grid(n_panels), order 12, built once; its arrays are
    shared by every caller, so they are read-only."""
    grid = gauss_panel_grid(n_panels)
    for values in (grid.nodes, grid.weights, grid.breaks):
        values.setflags(write=False)
    return grid


@lru_cache(maxsize=2)
def _shared_arc_panels(arc, n_panels):
    """_arc_panels of a hashable arc, read-only, as every caller shares it."""
    smp = _sample(arc, _equal_panels(n_panels))
    for values in (smp.zs, smp.dzs, smp.dzw):
        values.setflags(write=False)
    return smp


def _arc_panels(arc, n_panels):
    """The arc sampled on n_panels equal panels of order 12, with its panel
    record (_Samples.panels) once built, kept for the last two (arc,
    n_panels) keys: a caller alternating between two arcs samples and
    factors each once, while a round over two or more other keys leaves no
    entry behind, so repeating that round samples the same again (the
    bench's traced passes compare their counts).  An unhashable arc is
    sampled per call."""
    try:
        hash(arc)
    except TypeError:
        return _sample(arc, _equal_panels(n_panels))
    return _shared_arc_panels(arc, n_panels)


def validate_contour(contour: ClosedContour, grid: QuadratureGrid):
    """Check simplicity, regularity and orientation at grid resolution; warn
    when a periodic trapezoid grid does not resolve z' (at a corner).  Two
    nodes closer than a tenth of the larger of their arc-length weights
    |z'_j w_j| are a self-intersection, each pair held to its own spacing,
    so a thin ellipse or high-order panels pass.  A contour of kind
    "circle", which is sampled from the grid's phases, must have z and z' at
    the nodes (one call each) within 1e-12*(|center| + radius) of center +
    radius*exp(i s) and 1j*radius*exp(i s); its shape is then checked on
    those samples as any contour's."""
    smp = _sample(contour, grid)
    zs, dzs = smp.zs, smp.dzs
    if contour.kind == "circle":
        bound = 1e-12 * (abs(contour.center) + contour.radius)
        gap = np.abs(np.concatenate((contour.z(grid.nodes) - zs,
                                     contour.dz(grid.nodes) - dzs))).max()
        if not gap <= bound:        # NaN too
            raise DomainError(f"a contour of kind 'circle' is {gap:.3g} off "
                              f"center + radius*exp(i s) at a node (bound "
                              f"{bound:.3g})")
    if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(dzs))):
        raise DomainError("contour is non-finite at a node")
    if np.min(np.abs(dzs)) <= 0:
        raise DomainError("contour derivative vanishes at a node")
    if _has_close_pair(zs, 0.1 * np.abs(smp.dzw)):
        raise DomainError("contour self-intersects at sample resolution")
    # the tangent's turning number, sum_j arg(z'_{j+1} / z'_j) / 2 pi, is
    # +1 for a simple counterclockwise curve, -1 clockwise, 0 for a
    # figure-eight and 2 with an inner loop, wherever the nodes fall
    prev = np.concatenate((dzs[-1:], dzs[:-1]))
    turn = np.angle(dzs * prev.conj()).sum() / TWO_PI
    if abs(turn - 1.0) > 1e-6:
        raise DomainError("contour tangent turning number is not +1")
    _warn_if_unresolved(dzs, grid, "the contour's z'")


def _has_close_pair(zs, h):
    """Whether two of the finite points zs lie closer than h, a scalar or
    one threshold per point, each >= 0 (a pair takes the larger of its two),
    by one sorted search per point (Bentley, Stanat & Williams, Inf.
    Process. Lett. 6, 1977): in cells of side H = max h, sorted by key kx W
    + ky, a point's forward neighbours are the points after it up to the
    cell above its own, and the run over the next column's three cells,
    scanned in vectorized rounds.  A cell holds at most c = ceil(sqrt(2)
    H/min h)^2 points with no closer pair (4 for a scalar h), so a range
    longer than 3c implies one; the rounds end there, or, for thresholds
    far apart, at the longest range.  At H = 0 no pair is closer, and no
    cell is built."""
    h = np.zeros(zs.shape) + h
    side, lo, n = float(h.max()), float(h.min()), zs.size
    if side == 0.0:
        return False
    ky = ((zs.imag - zs.imag.min()) / side).astype(np.int64) + 1
    width = int(ky.max()) + 2
    keys = ((zs.real - zs.real.min()) / side).astype(np.int64) * width + ky
    order = np.argsort(keys, kind="stable")     # merges a contour's runs
    keys, zs, h = keys[order], zs[order], h[order]
    # j scans from i + 1 while keys[j] <= keys[i] + 1, and from the first
    # key >= keys[i] + W - 1 while keys[j] <= keys[i] + W + 1
    i = np.arange(2 * n) % n
    j = np.concatenate((i[:n] + 1, np.searchsorted(keys, keys + width - 1)))
    last = np.concatenate((keys, keys + width)) + 1
    keys = np.append(keys, np.iinfo(np.int64).max)     # past the end
    ratio = math.sqrt(2.0) * side / lo if lo > 0 else math.inf
    for _ in range(3 * math.ceil(ratio) ** 2 if ratio < n else n):
        live = keys[j] <= last
        i, j, last = i[live], j[live], last[live]
        if not i.size:
            return False
        d = zs[j] - zs[i]
        if np.any(d.real ** 2 + d.imag ** 2 < np.maximum(h[i], h[j]) ** 2):
            return True
        j += 1
    return bool(np.any(keys[j] <= last))


@dataclass(frozen=True)
class JordanArc:
    """Open regular path z(s), s in [0, 1], endpoints a = z(0), b = z(1).

    ``z`` and ``dz`` must accept ndarray arguments and be pure functions of
    s: the arc's panel samples are kept for reuse (_arc_panels), so a z
    that changes between calls is read as it was.
    """

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
        # half the first and second derivatives of |z(s) - point|^2: the
        # halves leave the step g/gg as it is
        zc = zz.conjugate()
        g, gg = (zc * dz).real, np.abs(dz) ** 2 + (zc * ddz).real
        if gg <= 0:
            break
        step = g / gg
        s0 = fix(s0 - step)
        if abs(step) < 1e-15:
            break
    return s0, curve.z(np.array([s0]))[0]


def segment(a: complex, b: complex) -> JordanArc:
    """Straight arc from a to b."""
    a, b = complex(a), complex(b)
    if not (cmath.isfinite(a) and cmath.isfinite(b)) or a == b:
        raise DomainError("arc endpoints must be finite and differ")
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


def classify_point(contour: ClosedContour, grid: QuadratureGrid,
                   z: complex) -> PointClassification:
    """Classify z against the contour by winding number and its distance to
    the curve (to the nearest node, unless z is in the near zone).  The
    on-contour band delta is DELTA_FRACTION times the grid length."""
    z = np.asarray(z, dtype=complex)
    if z.ndim:
        raise TypeError("classify_point takes one point z, not an array")
    return _evaluate(_sample(contour, grid), z).classification(0)


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


def _evaluate(smp, z, functionals=()):
    """_Evaluation of the targets z against the closed contour of ``smp``,
    with J_(n,k)[f](z) = ((n-k)!/2*pi*i) sum_j f^(k)_j z'_j w_j/(z_j -
    z)^(n-k+1) for each functional (n, k, k_near), k = k_near in the near
    zone: one _kernel_sums pass per zone serves the winding number and every
    functional, each column carrying its factor, so the sums are finished."""
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
    return _Evaluation(smp.band, dist, located, near, sums)


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

    Vanishes to rule accuracy for f regular inside and on the contour.  The
    nodes are _sample's, so a circle calls neither z nor z'.
    """
    smp = _sample(contour, grid)
    vals = _finite(np.asarray(f(smp.zs), dtype=complex),
                   "the integrand at a quadrature node")
    return complex(np.sum(vals * smp.dzs * grid.weights))


def pv_singular_weight(contour: ClosedContour, t0: complex) -> complex:
    """Principal value of the bare kernel, P.V. of dz/(t0 - z) over the contour.

    Equal to -i*pi for every smooth closed contour and every on-contour t0
    (equivalently +i*pi for the kernel dz/(z - t0)).  t0 is located on a
    1,024-node trapezoid sampling of the contour, whose grid length sets
    the on-contour band.
    """
    _sample(contour, periodic_trapezoid_grid(1024)).locate(t0)
    return PV_SINGULAR_WEIGHT


def _require_periodic(grid, step):
    """CapabilityError unless ``step`` runs on the periodic trapezoid rule."""
    if grid.kind != "periodic-trapezoid":
        raise CapabilityError(
            f"{step} needs a periodic trapezoid grid, not {grid.kind}")


def _spectrum(samples):
    """(pos, neg, amp): the trigonometric interpolant of periodic samples as
    sum_m pos_m z^m + neg_m conj(z)^m over the levels m = 0, ..., N/2, with
    z = exp(i*s), and amp[m] = max(|c_m|, |c_-m|) of their Fourier
    coefficients c_k.  Complex samples take pos_m = c_m and neg_m = c_-m,
    the Nyquist mode in neg.  Real samples take one rfft, their half
    spectrum: pos_m = 2*c_m for 0 < m < N/2, the Nyquist mode split evenly
    between pos and neg, and neg zero below it; so the sum's real part is
    their interpolant, and its imaginary part minus the conjugate
    interpolant (the multiplier i*sign(k), module hilbert)."""
    n = samples.size
    if np.iscomplexobj(samples):
        c = np.fft.fft(samples) / n
        pos, neg = c[:n // 2 + 1].copy(), np.zeros(n // 2 + 1, dtype=complex)
        neg[1:] = c[:(n - 1) // 2:-1]
        if n % 2 == 0:
            pos[-1] = 0.0
        return pos, neg, np.maximum(np.abs(pos), np.abs(neg))
    pos = np.fft.rfft(samples) / n
    amp = np.abs(pos)
    pos[1:(n + 1) // 2] *= 2.0
    neg = np.zeros_like(pos)
    if n % 2 == 0:
        pos[-1] *= 0.5
        neg[-1] = pos[-1]
    return pos, neg, amp


def _cut(pos, neg, n, scale):
    """(m, dropped): of the _spectrum levels pos, neg of n samples whose
    largest is ``scale``, the levels below m, above the interpolant's
    rounding level, and the summed |pos| + |neg| of the rest, the top levels
    whose sum is below sqrt(N)*eps*scale; that sum bounds what dropping them
    changes."""
    top = np.cumsum((np.abs(pos) + np.abs(neg))[::-1])
    d = min(int(np.count_nonzero(top < math.sqrt(n) * _EPS * scale)),
            top.size - 1)
    return top.size - d, float(top[d - 1]) if d else 0.0


def _level(samples, lowest=None, amp=None):
    """max |c_k| of the Fourier coefficients c_k of periodic samples over
    lowest <= |k| <= N/2 (default 3N/8), over max|samples|, read from amp[m]
    = max(|c_m|, |c_-m|), the _spectrum's, or, when not given, from the
    FFT's entries lowest..N - lowest (Trefethen & Weideman, SIAM Rev. 56,
    2014)."""
    n = samples.size
    lowest = lowest or 3 * n // 8
    top = (amp[lowest:] if amp is not None
           else np.abs(np.fft.fft(samples)[lowest:n + 1 - lowest] / n))
    return float(top.max()) / max(float(np.abs(samples).max()), 1e-300)


def _warn_if_unresolved(samples, grid, what, stacklevel=3):
    """AccuracyWarning, and True, when a periodic grid (None: any equispaced
    periodic samples) leaves the samples unresolved; ``stacklevel`` counts
    frames as warnings.warn does from here, so 3 names the caller's caller."""
    periodic = grid is None or grid.kind == "periodic-trapezoid"
    level = _level(samples) if periodic else 0
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
    """Evaluate the trigonometric interpolant of periodic samples at s; the
    values take the shape of s, at least 1-D.  It sums the _spectrum's
    levels above their rounding level (_cut); for real samples the values
    are complex, their imaginary part minus the conjugate interpolant."""
    samples = np.asarray(samples)
    pos, neg, _ = _spectrum(samples)
    m = _cut(pos, neg, samples.size, np.abs(samples).max())[0]
    return _sum_levels(pos[:m], neg[:m], s)


def _sum_levels(pos, neg, s):
    """sum_m pos_m z^m + neg_m conj(z)^m at z = exp(i*s), in the shape of s
    (at least 1-D), a block of rows at a time, on the powers of z."""
    m, neg = pos.size, np.conj(neg)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    z, out = np.exp(1j * s.reshape(-1)), np.empty(s.size, dtype=complex)
    for r in _row_blocks(s.size, m):
        powers = np.vander(z[r], m, increasing=True)
        out[r] = powers @ pos + np.conj(powers @ neg)
    return out.reshape(s.shape)


def _node_gap(grid, s0):
    """Each s0's gap to the nearer of the grid's nodes either side of it, in
    that node's weight, read in the grid's period (QuadratureGrid._ring)."""
    ring, w = grid._ring
    s = ring[1] + (s0 - ring[1]) % TWO_PI
    j = np.searchsorted(ring, s)
    return np.minimum((s - ring[j - 1]) / w[j - 1], (ring[j] - s) / w[j])


def _pv(samples, g0, smp, s0, t0, n):
    """P.V. of g(t)/(t - t0) dt at the points t0 = z(s0) of the contour of
    ``smp``, g = f^(n) of its density, samples = smp.f(n) and g0 = g(t0): a
    _subtracted_pv sum; but a target within _NODE_BAND of a node's weight
    (its local gap, on graded panels too) of that node, whose quotient
    cancels, takes the sum on the rule moved off its nodes (grid._shifted),
    sampled once per call and only for such a target (_near_split).  On
    panels of order 48 and more a moved node can lie within the band of a
    grid node; a target near both stays on the rule it is farther from."""
    gap = _node_gap(smp.grid, s0)
    near = gap < _NODE_BAND
    if np.count_nonzero(near):
        near[near] = _node_gap(smp.grid._shifted, s0[near]) > gap[near]

    def moved(rows):
        off = _sample(smp.contour, smp.grid._shifted, smp.density)
        return _subtracted_pv(off.f(n), off.zs, off.dzw, g0[rows], t0[rows],
                              1j * np.pi)
    return _near_split(near, g0, t0, 1j * np.pi, (samples, smp.zs, smp.dzw),
                       moved)


class _Panels(NamedTuple):
    """The record of a panel grid on its curve (_Samples.panels): z at the
    breaks, each panel's half-length (half its end difference), and the
    inverse of each panel's Legendre-Vandermonde matrix V, V[j, i] = P_i/c_i
    at the panel's node j in its tau (_legendre_steps), with residual =
    max |inv V - I| over the panels."""

    ends: np.ndarray
    half: np.ndarray
    inv: np.ndarray
    residual: float


def _panel_record(smp):
    """_Panels of the panel samples ``smp``: one recurrence over every node,
    one batched inverse; read-only, as a memo may share it (_arc_panels)."""
    breaks, zs = smp.grid.breaks, smp.zs
    n = breaks.size - 1
    order = zs.size // n
    ends = np.array(smp.contour.z(breaks), dtype=complex)
    half = 0.5 * (ends[1:] - ends[:-1])
    x = ((zs.reshape(n, order) - ends[:-1, None]) / half[:, None]
         - 1.0).ravel()
    v = np.empty((order, x.size), dtype=complex)
    v[0], v[1] = 1.0, x
    vand = _recur(v, x).reshape(order, n, order).transpose(1, 2, 0)
    inv = np.linalg.inv(vand)
    residual = float(np.abs(inv @ vand - np.eye(order)).max())
    for values in (ends, half, inv):
        values.setflags(write=False)
    return _Panels(ends, half, inv, residual)


def _recur(v, x):
    """v, its rows 2.. filled in place from rows 0 and 1 by the recurrence
    of _legendre_steps at the points x: from 1 and x the values P_i/c_i,
    from m_0 and x m_0 + 2 their moments against 1/(tau - x)."""
    steps = np.multiply.outer(_legendre_steps(v.shape[0]), x)
    vr = list(v)                        # row views, indexed without numpy
    for i in range(1, v.shape[0] - 1):
        np.multiply(steps[i - 1], vr[i], out=vr[i + 1])
        np.subtract(vr[i + 1], vr[i - 1], out=vr[i + 1])
    return v


def _arc_pv_weights(smp, s0, t0):
    """(weights, blocks): weights(r), the node weights w of P.V. int
    g(t)/(t - t0[r]) dt = sum_j w_j g_j over the arc or closed contour of
    ``smp``, a row for each target t0 = z(s0) on the curve in the slice r,
    written into one buffer that every call reuses; and blocks, the slices
    of the targets (_row_blocks) whose weights fit that buffer.  The grid
    is a panel rule.  The plain rule serves every panel but t0's own and
    its two neighbours, whose ends are the grid's breaks; on a closed
    contour they wrap across s = 0.  There, with tau = (t - mid)/half
    mapping a panel onto [-1, 1], the density's Legendre interpolant is
    integrated against 1/(tau - tau0) exactly (Helsing & Ojala, J. Comput.
    Phys. 227, 2008): moments by recurrence from m_0 = log(1 - tau0) -
    log(-1 - tau0), a P.V. on the own panel, times the panel's inverse
    Legendre-Vandermonde matrix from the record smp.panels, which warns
    (AccuracyWarning) when its residual exceeds _INVERSE_RESIDUAL.  No node
    quotient enters the near panels, so next to a node the value is as
    exact as between nodes."""
    breaks, zs, dzw = smp.grid.breaks, smp.zs, smp.dzw
    n, closed = breaks.size - 1, isinstance(smp.contour, ClosedContour)
    if closed and n < 3:
        raise CapabilityError("a principal value next to a node of a closed "
                              "contour needs three panels or more")
    record, order = smp.panels, zs.size // n
    if record.residual > _INVERSE_RESIDUAL:
        warnings.warn(f"the panels' Legendre-Vandermonde inverses are off by "
                      f"{record.residual:.1e}: principal values on them lose "
                      f"digits", AccuracyWarning, stacklevel=4)
    ends, half = record.ends, record.half
    s0, t0 = np.asarray(s0, dtype=float), np.asarray(t0, dtype=complex)
    targets, s0 = t0.reshape(-1, 1), s0.reshape(-1, 1)
    # each target's own panel p, its near panels and their ends b, counted
    # on from p - 1: clamped into an arc, and on a closed contour read mod n
    # (at), which needs three distinct near panels.  m_0 is the log of the
    # ratio of a panel's end differences, +-(end - t0) (- behind t0), shared
    # with the next panel, so the logs of a break cancel.  An end within the
    # band of t0 (or behind it), measured along a panel (lean), is held at
    # the band: on an arc, along the panel that starts there, and eps on the
    # arc's ends; on a closed contour only t0's own panel's ends, along it,
    # as an end two panels off can lie behind t0's tangent on a coarse grid
    if closed:      # s0 in [0, 2*pi); the grid's period may start elsewhere
        s0 = breaks[0] + (s0 - breaks[0]) % TWO_PI
    width, p = min(3, n), np.searchsorted(breaks, s0, "right") - 1
    if closed:
        b = p - 1 + np.arange(width + 1)
        at = b % n
        band = np.array([-np.inf, _BREAK_BAND, _BREAK_BAND, -np.inf])
    else:
        at = b = np.minimum(np.maximum(p - 1, 0), n - width) + np.arange(
            width + 1)
        band = np.where(b % n, _BREAK_BAND, _EPS)
    diff, along = ends[at] - targets, half[np.minimum(at, n - 1)]
    lean = half[at[:, 1:2]] if closed else along
    u = np.where(b > p, diff, -diff) / lean
    d = np.where(u.real > band, u, band) * lean
    # the moments at every tau0, in P_i/c_i as the record's inverses: the
    # weights do not see c_i
    near = at[:, :-1]
    v = np.empty((order, near.size), dtype=complex)
    x = (-1.0 - diff[:, :-1] / along[:, :-1]).ravel()
    v[0] = np.log(d[:, 1:] / d[:, :-1]).ravel()
    v[1] = x * v[0] + 2.0
    moments = _recur(v, x).T.reshape(near.shape + (1, order))

    # a block's weights and its gathered inverses each fill at most a
    # block, in one buffer each, which every block reuses
    blocks = _row_blocks(t0.size, max(zs.size, width * order * order))
    size = blocks[0].stop
    w_buf = np.empty((size, zs.size), dtype=complex)
    inv_buf = np.empty((size, width, order, order), dtype=complex)

    def weights(r):
        """Node weights of the targets in the slice r."""
        t, pick = targets[r], near[r]
        w = np.subtract(zs, t, out=w_buf[:len(t)])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(dzw, w, out=w)    # a node on t0 is in its own panel
        inv = np.take(record.inv, pick, axis=0, out=inv_buf[:len(t)],
                      mode="clip")          # "raise" copies once more
        w.reshape(-1, n, order)[np.arange(len(t))[:, None], pick] = (
            moments[r] @ inv)[..., 0, :]
        return w
    return weights, blocks


def _weighted(g, w):
    """sum_j g_j w_j along the last axis; a scalar g broadcasts."""
    return np.einsum("...j,...j->...", np.atleast_1d(g), w)


def _arc_pv_rows(samples, smp, s0, t0) -> np.ndarray:
    """P.V. int g(t)/(t - t0) dt over the arc or closed contour of ``smp``
    for every target t0 = z(s0) on the curve, from the density's samples g
    at the nodes of ``smp``, on the weights of _arc_pv_weights, a block of
    targets at a time."""
    weights, blocks = _arc_pv_weights(smp, s0, t0)
    out = np.empty(blocks[-1].stop, dtype=complex)
    for r in blocks:
        out[r] = _weighted(samples, weights(r))
    return out


def pv_at_all_nodes(samples: np.ndarray, contour: ClosedContour,
                    grid: QuadratureGrid) -> np.ndarray:
    """P.V. of g(t)/(t - t0) dt for t0 at every grid node simultaneously.

    On a circle with the periodic trapezoid rule this is the Cauchy
    projection pi*i*(P+ - P-): the Fourier multiplier +pi*i on the modes
    exp(i*k*s) with k >= 0 (regular inside) and -pi*i on k < 0 (regular
    outside, vanishing at infinity), the Nyquist mode counted with k < 0.
    It costs one FFT (Henrici, SIAM Rev. 21, 1979).  On a panel grid each
    node takes _arc_pv_rows (samples give no density for _pv's shifted
    rule).  Other contours on the periodic grid take its discrete sum as the
    n x n matrix of subtracted difference quotients (whose diagonal is the
    spectral derivative of the samples) plus the analytic +i*pi*g(t0), as
    sum_j R_ij z'_j w_j (g_j - g_i) with R_ij = 1/(z_j - z_i): the pair sums
    R @ [z'w g, z'w] of _pair_sums, which forms each pair once in bounded
    memory; g enters less its node mean, so a large mean costs no accuracy.
    """
    return _pv_at_all_nodes(samples, _sample(contour, grid))


def _pv_at_all_nodes(samples, smp):
    """pv_at_all_nodes from the contour's node samples ``smp``."""
    samples = np.asarray(samples, dtype=complex)
    grid = smp.grid
    if grid.breaks is not None:
        return _arc_pv_rows(samples, smp, grid.nodes, smp.zs)
    _require_periodic(grid, "pv_at_all_nodes")
    if smp.contour.kind == "circle":
        k = np.fft.fftfreq(grid.n)
        return np.fft.ifft(np.where(k >= 0, 1j * np.pi, -1j * np.pi)
                           * np.fft.fft(samples))
    # the sums see g minus its node mean, whose constant part adds nothing
    # to sum_j R_ij z'_j w_j (g_j - g_i): a large mean leaves no rounding
    g = samples - np.mean(samples)
    acc = _pair_sums(smp.zs, np.stack([smp.dzw * g, smp.dzw], axis=1))
    return (samples * (1j * np.pi) + grid.weights * spectral_derivative(samples)
            + acc[:, 0] - g * acc[:, 1])


def _pv_summands(samples, smp):
    """Values v at the nodes whose sum against u = z'w is that of the
    principal values PV of _pv_at_all_nodes, sum_i u_i v_i = sum_i u_i PV_i:
    PV itself on a circle or on panels.  Other contours on the periodic
    grid take no pair sum of the density: R_ij = 1/(z_j - z_i) is
    antisymmetric, so sum_i u_i sum_j R_ij u_j (g_j - g_i) = -2 sum_i u_i g_i
    a_i, a = R u, with g the samples less their node mean.

    Nor is a a pair sum: a_i is the punctured trapezoid sum, step h = 2 pi/n,
    of z'(s)/(z(s) - z_i) = r(s) + cot((s - s_i)/2)/2, where r is smooth and
    periodic with r(s_i) = z''_i/(2 z'_i).  The cotangents cancel in pairs
    over the nodes j != i, and r integrates to the i*pi of PV of dt/(t -
    t_i), so a_i = i*pi - h z''_i/(2 z'_i), z'' the spectral derivative of
    z', up to the trapezoid error of r, which falls exponentially in n
    (Kress, Linear Integral Equations, 12.3).  The sum so equals the
    discrete double sum to rounding, not bit for bit, on a contour whose z'
    the grid resolves; AccuracyWarning when it does not."""
    grid = smp.grid
    if grid.breaks is not None or smp.contour.kind == "circle":
        return _pv_at_all_nodes(samples, smp)
    _require_periodic(grid, "pv_at_all_nodes")
    dz = smp.dzs
    _warn_if_unresolved(dz, grid, "the contour's z'", stacklevel=4)
    a = 1j * np.pi - grid.weights * spectral_derivative(dz) / (2.0 * dz)
    return (samples * (1j * np.pi) + grid.weights * spectral_derivative(samples)
            - 2.0 * (samples - np.mean(samples)) * a)


def _pair_sums(zs, cols):
    """R @ cols for the n nodes zs and an n x k array cols, R_ij = 1/(z_j -
    z_i) off the diagonal and 0 on it.  R is antisymmetric, so each pair j >
    i is formed once and applied to both of its rows, a block of rows at a
    time (_row_blocks) in one buffer that every block reuses, so memory
    stays bounded; the pair loop of pv_at_all_nodes off the circle."""
    n = zs.size
    acc = np.zeros(cols.shape, dtype=complex)
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
    return acc


def _row_blocks(n_rows, n_cols):
    """Slices of consecutive rows, each covering at most _BLOCK_ENTRIES
    entries of an n_rows x n_cols matrix (one row at least)."""
    step = max(1, _BLOCK_ENTRIES // n_cols)
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _subtracted_pv(g, t, cw, g0, t0, weight):
    """P.V. of g(t)/(t - t0) dt on the rule (t, cw) at every target t0, g0 =
    g(t0): sum_j (g_j - g0) cw_j/(t_j - t0) + weight g0, the subtracted
    pole's P.V.  A block's rows each sum, bit for bit, as their target alone
    would."""
    out = weight * g0
    for r in _row_blocks(t0.size, t.size):
        out[r] += ((g - g0[r, None]) * cw / (t - t0[r, None])).sum(axis=1)
    return out


def _near_split(near, g0, t0, weight, rule, near_pv):
    """_subtracted_pv at every target t0 of the samples g on the nodes t
    with weights cw, (g, t, cw) = ``rule``; but the targets t0[rows], rows =
    ``near`` a node, whose quotient cancels there, take near_pv(rows), by a
    rule of the same degree that forms no quotient near them, called only
    when some target is near.  So next to a node the error is that between
    nodes (Trefethen & Weideman, SIAM Rev. 56, 2014)."""
    if not np.count_nonzero(near):
        return _subtracted_pv(*rule, g0, t0, weight)
    out = np.empty(t0.size, dtype=np.result_type(g0, weight))
    out[~near] = _subtracted_pv(*rule, g0[~near], t0[~near], weight)
    out[near] = near_pv(near)
    return out


def _chord_pv(func, nodes, weights, f_nodes, targets, weight):
    """P.V. int f(x)/(x - xi) w(x) dx for every real target xi, f = ``func``,
    on the n-point Gauss-Chebyshev rule for w(x) = sqrt((1 - c x)/(1 + c
    x)), c = +-1, whose P.V. is ``weight`` = -c*pi: nodes x_j = c cos(h j),
    j = 1..n, h = 2*pi/(2n + 1), decreasing, with f_nodes = f(x_j).  It is
    the (2n + 1)-point trapezoid rule in theta = arccos(c x) with its pairs
    +-theta_j merged, so a target within _NODE_BAND spacings of some h j in
    theta takes the same rule shifted a quarter spacing: nodes c cos(h(j +
    1/4)), j = 0..2n, weights (h/2)(1 - c x_j), exact to the same degree, on
    no end and h/4 from every x_j (_near_split)."""
    c, h = -weight / np.pi, TWO_PI / (2 * nodes.size + 1)
    q = np.arccos(c * targets) / h
    f0 = _finite(_real(func(targets), "f at a target"), "f at a target")

    def quarter(rows):
        x = c * np.cos(h * (np.arange(2 * nodes.size + 1) + 0.25))
        return _subtracted_pv(_finite(_real(func(x), "f at a node"),
                                      "f at a node"), x,
                              0.5 * h * (1.0 - c * x), f0[rows],
                              targets[rows], weight)
    return _near_split(np.abs(q - np.rint(q)) < _NODE_BAND, f0, targets,
                       weight, (f_nodes, nodes, weights), quarter)


def _sided(pv, g0):
    """(f+, f-) = pv/(2*pi*i) +- g0/2: the limits at t0 of the Cauchy integral
    of g over a curve through t0, f+ from its left, pv its P.V. (Plemelj)."""
    mean, half = pv * _CAUCHY, 0.5 * g0
    return mean + half, mean - half
