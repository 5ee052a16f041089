"""Direct-problem singularity catalog and the experimental inverse probe.

The direct problem prescribes singularities of a boundary density strictly
outside the unit circle (poles, algebraic and logarithmic branch points) and
verifies that every Cauchy functional annihilates on the exterior while
reproducing the density on the interior.

The inverse probe is the reverse, heuristic direction: given only boundary
samples of a function regular inside the circle, estimate exterior pole
locations and strengths from a rational (Pade) fit of its Taylor
coefficients.  Pole recovery is classical for rational data; for branch-type
data the probe reports root clusters along the cut as diagnostics and
explicitly does not assert pole locations.
"""

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .cauchy import _ON_CONTOUR, BoundaryFunction
from .errors import (AccuracyWarning, ContractError, NonFiniteError,
                     OnContourError, PrescriptionError)
from .geometry import (_UNRESOLVED, ClosedContour, QuadratureGrid, _evaluate,
                       _finite, _level, _sample, _spectrum)

EXTERIOR_MARGIN = 0.05
MAX_DERIV_ORDER = 6

# Pade guard rails: relative singular-value cutoff for the denominator solve
# and the residue floor below which a root is discarded as Froissart noise;
# the pole drift and the fit residual above which poles are not asserted.
SV_CUTOFF = 1e-12
RESIDUE_FLOOR = 1e-10
STABILITY_TOL = 1e-3
ASSERT_RESIDUAL = 1e-6


@dataclass(frozen=True)
class SingularityPrescription:
    """A singularity placed strictly outside the unit circle.

    kinds: "pole" (with an integer ``order`` >= 1), "algebraic-branch"
    (exponent -1/2, cut along the ray from the location away from the
    origin), "log-branch" (same cut), and "constant" (no finite singularity;
    the degenerate catalog entry f = strength).
    """

    kind: str
    location: complex = complex("nan")
    strength: complex = 1.0 + 0.0j
    order: int = 1

    def __post_init__(self):
        if self.kind not in ("pole", "algebraic-branch", "log-branch",
                             "constant"):
            raise PrescriptionError(f"unknown singularity kind {self.kind!r}")
        if self.kind == "constant":
            return
        if not np.isfinite(self.location):
            raise PrescriptionError("singularity needs a finite location")
        if abs(self.location) <= 1.0 + EXTERIOR_MARGIN:
            raise PrescriptionError(
                f"singularity at {self.location} is not strictly exterior "
                f"(need |location| > {1.0 + EXTERIOR_MARGIN})")
        if self.kind == "pole" and not (
                isinstance(self.order, (int, np.integer)) and self.order >= 1):
            raise PrescriptionError("pole order must be an integer >= 1")


def _cut_sqrt(zeta, beta):
    """Square root of zeta with the branch cut along the ray arg = beta."""
    rot = np.exp(-1j * (beta + np.pi))
    return np.sqrt(np.asarray(zeta, dtype=complex) * rot) * np.exp(
        0.5j * (beta + np.pi))


def _cut_log(zeta, beta):
    """Logarithm of zeta with the branch cut along the ray arg = beta."""
    rot = np.exp(-1j * (beta + np.pi))
    return np.log(np.asarray(zeta, dtype=complex) * rot) + 1j * (beta + np.pi)


def _power(coef, a, alpha, beta):
    """t -> coef (t - a)^alpha for an integer or half-integer alpha, the half
    power on the sheet of _cut_sqrt(., beta)."""
    if alpha == int(alpha):
        return lambda t: coef / (np.asarray(t, dtype=complex) - a) ** -alpha
    half = int(alpha + 0.5)     # (t - a)^half / sqrt(t - a)

    def power(t):
        d = np.asarray(t, dtype=complex) - a
        return (coef * d ** half if half else coef) / _cut_sqrt(d, beta)
    return power


def catalog_function(p: SingularityPrescription) -> BoundaryFunction:
    """Closed-form density s (t - a)^alpha for a prescription, and its
    derivatives f^(m) = s (-1)^m prod_{j<m}(j - alpha) (t - a)^(alpha - m):
    alpha = -k for a pole of order k and -1/2 for the algebraic branch; the
    log's derivatives are the pole s/(t - a)'s, one order down.  Branch cuts
    run along the outward ray through the singularity, off the circle."""
    s = complex(p.strength)
    if p.kind == "constant":
        def const(c):
            return lambda t: np.full(np.shape(np.asarray(t)), c, dtype=complex)
        return BoundaryFunction(const(s), (const(0.0),) * MAX_DERIV_ORDER)
    a = complex(p.location)
    beta = float(np.angle(a))
    down = p.kind == "log-branch"
    alpha = -p.order if p.kind == "pole" else -1 if down else -0.5

    def deriv(m):
        rising = math.prod(j - alpha for j in range(m))
        return _power(s * (-1.0) ** m * rising if m else s, a, alpha - m, beta)

    return BoundaryFunction(
        (lambda t: s * _cut_log(np.asarray(t, dtype=complex) - a, beta))
        if down else deriv(0),
        tuple(deriv(m - down) for m in range(1, MAX_DERIV_ORDER + 1)))


def exterior_annihilation_check(p, contour: ClosedContour,
                                grid: QuadratureGrid, targets,
                                orders: Sequence[int] = (0,)) -> float:
    """Max |J_n[f](z)| over exterior targets and the given orders n, all
    classified and evaluated in one array pass, to the bits of
    cauchy_functional."""
    f = catalog_function(p) if isinstance(p, SingularityPrescription) else p
    for n in orders:
        f.require_order(n)
    smp = _sample(contour, grid, f)
    z = np.asarray(targets, dtype=complex).reshape(-1)
    # J_n with cauchy_functional's near-zone reroute m = n
    ev = _evaluate(smp, z, [(n, 0, n) for n in orders])
    side = ev.side
    if side.any():
        i = side.nonzero()[0][0]
        raise OnContourError(_ON_CONTOUR) if side[i] == 2 else \
            ContractError(f"target {z[i]} is not exterior")
    v = ev.sums[1:]         # fmax, as max() from 0.0, passes over a NaN
    return float(np.fmax.reduce(np.hypot(v.real, v.imag), None, initial=0.0))


def taylor_coefficients(samples, n_max: int) -> np.ndarray:
    """Coefficients c_0..c_n_max of the interior Taylor expansion from unit-
    circle boundary samples (exactly the leading discrete Fourier modes).

    Modes k = -8..-1 above _UNRESOLVED and the top modes warn of an interior
    singularity; aliasing of data regular inside grows toward k = -N/2.
    """
    samples = np.asarray(samples, dtype=complex)
    n = samples.size
    if not 0 <= n_max < n // 2:
        raise ContractError(f"need 0 <= n_max < n/2 = {n // 2}, got {n_max}")
    if not np.all(np.isfinite(samples)):
        raise NonFiniteError("boundary samples contain NaN or infinity")
    pos, neg, amp = _spectrum(samples)     # c_k and c_-k, one FFT
    head = np.max(np.abs(neg[1:min(8, n // 2 - 1) + 1]), initial=0.0) \
        / max(np.max(np.abs(samples)), 1e-300)
    if head > _UNRESOLVED and head > _level(samples, amp=amp):
        warnings.warn("boundary data is not regular inside the circle "
                      "(interior singularity detected)", AccuracyWarning,
                      stacklevel=2)
    return pos[:n_max + 1].copy()


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the experimental inverse probe (heuristic, non-unique)."""

    locations: tuple
    strengths: tuple
    degrees: tuple
    coefficients_used: int
    residual: float
    residual_kind: str
    confident: bool
    poles_asserted: bool
    unfiltered_roots: tuple = ()
    notes: tuple = ()

    def to_dict(self):
        """Every field for JSON: a complex as [re, im], a tuple as a list."""
        def plain(v):
            if isinstance(v, complex):
                return [v.real, v.imag]
            return [plain(x) for x in v] if isinstance(v, tuple) else v
        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}


def _fits(c, pairs):
    """(m, k, a, b, cond_ok) of each pair's (m/k) Pade approximant a/b of c:
    b (b_0 = 1) solves sum_j b_j c_{m+i-j} = -c_{m+i}, i = 1..k, by least
    squares (gelsd, cutoff SV_CUTOFF), all systems from one index table."""
    ms, ks = map(np.array, zip(*pairs))
    i = np.arange(1, ks.max() + 1)
    idx = ms[:, None, None] + (i[:, None] - i)
    hankels = c[np.maximum(idx, 0)]
    if (ms < ks - 1).any():     # some system reaches before c_0
        hankels = np.where(idx >= 0, hankels, 0.0)
    dens, fits = np.ones((len(pairs), i.size + 1), dtype=complex), []
    for (m, k), h, r, b in zip(pairs, hankels, -c[ms[:, None] + i], dens):
        b = b[:k + 1]
        b[1:], _, rank, sv = np.linalg.lstsq(h[:k, :k], r[:k], rcond=SV_CUTOFF)
        fits.append((m, k, np.convolve(b, c[:m + 1])[:m + 1], b, bool(
            sv.size == 0 or (sv[-1] > SV_CUTOFF * sv[0] and rank == k))))
    return fits


def _horner(polys, x):
    """np.polyval(p, x) of each p in polys as rows, to its bits, in one sweep:
    rows stack longest first and join as their leading coefficient comes up.
    A spare slot spares every product numpy's one-element (non-FMA) path."""
    order = sorted(range(len(polys)), key=lambda r: -len(polys[r]))
    asc = [len(polys[r]) for r in order[::-1]]
    coef = np.zeros((asc[-1], len(polys), 1), dtype=complex)
    for row, r in enumerate(order):
        coef[asc[-1] - len(polys[r]):, row, 0] = polys[r]
    flat = np.zeros(1 + len(polys) * x.size, dtype=complex)
    tiled, y = np.ones_like(flat), flat[1:].reshape(len(polys), x.size)
    tiled[1:].reshape(y.shape)[:] = x
    for j in range(asc[-1]):
        n = len(asc) - bisect_left(asc, asc[-1] - j)
        flat[:1 + n * x.size] *= tiled[:1 + n * x.size]
        y[:n] += coef[j, :n]
    return y[np.argsort(order)]


def _residuals(c, fits, held):
    """Each fit's relative mismatch on the held-out nodes or coefficients."""
    if held is not None:
        t, f, scale = held
        y = _horner([p[::-1] for fit in fits for p in fit[2:4]], t)
        return (np.abs(y[::2] / y[1::2] - f).max(axis=1) / scale).tolist()
    out, scale = [], np.max(np.abs(c)) + 1e-300
    for m, k, a, b, _ in fits:  # expand a/b: cc_i = a_i - sum b_j cc_{i-j}
        cc, bl = a.tolist() + [0.0] * (len(c) - m - 1), b.tolist()
        for i in range(1, len(c)):
            cc[i] -= sum(bl[j] * cc[i - j] for j in range(1, min(i, k) + 1))
        out.append(float(np.max(np.abs(np.array(cc[m + k + 1:])
                                       - c[m + k + 1:])) / scale))
    return out


def _poles(fits):
    """(roots, poles, residues) of each fit: b's roots, as np.roots finds
    them; the exterior ones past the Froissart floor, nearest first."""
    roots, rows = [], []
    for _, _, a, b, _ in fits:
        mag = np.abs(b)
        q = b[(mag >= 1e-13 * mag.max()).nonzero()[0][-1]::-1]
        comp = np.eye(q.size - 1, k=-1, dtype=complex)
        comp[:1] = -q[1:] / q[0]
        roots.append(np.linalg.eigvals(comp))
        rows += [a[::-1], q[:-1] * np.arange(q.size - 1, 0, -1)]
    y, at, out = _horner(rows, np.concatenate(roots)), 0, []
    for j, r in enumerate(roots):
        res = y[2 * j, at:at + r.size] / y[2 * j + 1, at:at + r.size]
        mag, rad, at = np.abs(res), np.abs(r), at + r.size
        keep = (mag > RESIDUE_FLOOR * max(mag.max(initial=0.0), 1e-300)) \
            & (rad > 1.0)
        order = np.argsort(rad[keep])
        out.append((r, r[keep][order], res[keep][order]))
    return out


def pade_pole_probe(coefficients, degrees: Optional[tuple] = None,
                    boundary_samples=None) -> ProbeReport:
    """Estimate exterior poles from Taylor coefficients via a Pade fit.

    With ``degrees = (m, k)`` fixed, fits that approximant to m + k + 1
    coefficients (m + k + 2 without ``boundary_samples``, a finite row of
    even length: the residual holds one out); otherwise fits k = 1..8 with
    m = k - 1 in one pass and keeps the smallest k whose held-out residual
    is within 10x of the best.  Only that fit and its (m+1, k+1) cross-check
    are rooted; poles (roots whose residue clears the Froissart floor) are
    asserted where both fits agree, never as unique."""
    c = _finite(np.asarray(coefficients, dtype=complex), "a coefficient")
    held = None
    if boundary_samples is not None:
        s = _finite(np.asarray(boundary_samples, dtype=complex), "a sample")
        if s.ndim != 1 or s.size % 2 or not s.size:
            raise ContractError("boundary samples must be one row of an "
                                f"even, nonzero length, got shape {s.shape}")
        # odd-index nodes of the unit-circle grid
        held = (np.exp(1j * (2.0 * np.pi * np.arange(1, s.size, 2) / s.size)),
                s[1::2], np.max(np.abs(s)) + 1e-300)
    if degrees is None:
        pairs = [(k - 1, k) for k in range(1, 9) if len(c) >= 2 * k + 1]
        if not pairs:
            raise ContractError("too few coefficients to scan degrees")
    else:
        (m, k), extra = degrees, 1 + (held is None)
        if m < 0 or k < 1:
            raise ContractError("need m >= 0 and k >= 1")
        if len(c) < m + k + extra:
            raise ContractError(f"need at least m + k + {extra} = "
                                f"{m + k + extra} coefficients, got {len(c)}")
        pairs = [(m, k)]
    fits, notes = _fits(c, pairs), []
    res, i = _residuals(c, fits, held), 0
    if degrees is None:
        top = 10.0 * max(min(res), 1e-15)
        i = next(j for j, r in enumerate(res) if r <= top)
        notes.append(f"degree scan over k = 1..{pairs[-1][1]} chose "
                     f"k = {pairs[i][1]} (residual {res[i]:.3e})")
    m, k, _, _, cond_ok = fits[i]
    cross = len(c) >= m + k + 3     # against (m+1, k+1): the scan's next fit
    later = (fits[i + 1:i + 2] or _fits(c, [(m + 1, k + 1)])) if cross else []
    (roots, poles, strengths), *later = _poles(fits[i:i + 1] + later)
    # drift: the pole sets' worst nearest-neighbour gap (inf if sizes differ)
    asserted = True
    if cross:
        poles2, drift = later[0][1], np.inf
        if len(poles) == len(poles2):
            near = np.abs(poles[:, None] - poles2).min(axis=1, initial=np.inf)
            drift = np.max(near / (1.0 + np.abs(poles)), initial=0.0)
        if drift > STABILITY_TOL:
            asserted = False
            notes.append(f"pole locations drift between degree pairs ({m},"
                         f"{k}) and ({m + 1},{k + 1}): root clusters suggest "
                         "a branch cut; locations are reported as diagnostics"
                         " only, not asserted")
    if res[i] > ASSERT_RESIDUAL:
        asserted = False
        notes.append("rational fit residual is large; input may not be "
                     "meromorphic")
    if not cond_ok:
        notes.append("Hankel system is rank-deficient below the singular-"
                     "value cutoff")
    return ProbeReport(
        locations=tuple(poles.tolist()),
        strengths=tuple(strengths.tolist()), degrees=(m, k),
        coefficients_used=len(c), residual=res[i], residual_kind="held-out "
        + ("coefficients" if held is None else "boundary nodes"),
        confident=cond_ok and asserted, poles_asserted=asserted,
        unfiltered_roots=tuple(roots.tolist()), notes=tuple(notes))
