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
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .cauchy import _ON_CONTOUR, BoundaryFunction
from .errors import (AccuracyWarning, ContractError, NonFiniteError,
                     OnContourError, PrescriptionError)
from .geometry import (_UNRESOLVED, ClosedContour, QuadratureGrid, _evaluate,
                       _level, _sample, _spectrum)

EXTERIOR_MARGIN = 0.05
MAX_DERIV_ORDER = 6

# Pade guard rails: relative singular-value cutoff for the denominator solve
# and the residue floor below which a root is discarded as Froissart noise.
SV_CUTOFF = 1e-12
RESIDUE_FLOOR = 1e-10


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


class _PadeFit:
    """The (m/k) Pade approximant a/b of the coefficients c (b_0 = 1).

    The denominator solves the Hankel system sum_j b_j c_{m+i-j} = -c_{m+i},
    i = 1..k, by least squares with a rank-revealing cutoff.  ``held`` is
    (held-out nodes, samples there, sample scale), or None to measure the
    residual on the coefficients beyond the solve.  The residual, the roots
    and the filtered poles are computed when first asked for.
    """

    def __init__(self, c, m, k, held):
        i = np.arange(1, k + 1)
        idx = m + i[:, None] - i
        hankel = np.where(idx >= 0, c[np.maximum(idx, 0)], 0.0)
        sol, _, rank, sv = np.linalg.lstsq(hankel, -c[m + i], rcond=SV_CUTOFF)
        self.cond_ok = bool(sv.size == 0
                            or (sv.min() > SV_CUTOFF * sv.max() and rank == k))
        self.b = np.concatenate([[1.0 + 0.0j], sol])
        self.a = np.convolve(self.b, c[:m + 1])[:m + 1]
        self.c, self.m, self.k, self.held = c, m, k, held

    @cached_property
    def residual(self):
        """Relative mismatch on the held-out boundary nodes or coefficients."""
        a, b, c, m, k = self.a, self.b, self.c, self.m, self.k
        if self.held is not None:
            t, f, scale = self.held
            fit = np.polyval(a[::-1], t) / np.polyval(b[::-1], t)
            return float(np.max(np.abs(fit - f)) / scale)
        used = m + k + 1
        # expand a/b: cc_i = a_i - sum_j b_j cc_{i-j}
        cc, bl = a.tolist() + [0.0] * (len(c) - m - 1), b.tolist()
        for i in range(1, len(c)):
            cc[i] -= sum(bl[j] * cc[i - j] for j in range(1, min(i, k) + 1))
        cc = np.array(cc)
        scale = np.max(np.abs(c)) + 1e-300
        return float(np.max(np.abs(cc[used:] - c[used:])) / scale)

    @cached_property
    def roots(self):
        """Roots of the denominator (pole candidates) and their residues."""
        big = np.abs(self.b) >= 1e-13 * np.max(np.abs(self.b))
        q = self.b[:np.flatnonzero(big)[-1] + 1][::-1]
        if q.size <= 1:
            return np.array([], dtype=complex), np.array([], dtype=complex)
        roots = np.roots(q)
        return roots, np.polyval(self.a[::-1], roots) / np.polyval(
            np.polyder(q), roots)

    @cached_property
    def poles(self):
        """Exterior roots whose residue clears the Froissart floor, and their
        residues, nearest first."""
        roots, residues = self.roots
        keep = np.abs(residues) > RESIDUE_FLOOR * max(
            np.max(np.abs(residues), initial=0.0), 1e-300)
        keep &= np.abs(roots) > 1.0
        order = np.argsort(np.abs(roots[keep]))
        return roots[keep][order], residues[keep][order]


STABILITY_TOL = 1e-3
ASSERT_RESIDUAL = 1e-6


def pade_pole_probe(coefficients, degrees: Optional[tuple] = None,
                    boundary_samples=None) -> ProbeReport:
    """Estimate exterior poles from Taylor coefficients via a Pade fit.

    With ``degrees = (m, k)`` fixed, fits that approximant to m + k + 1
    coefficients (m + k + 2 without ``boundary_samples``: the residual
    holds one out); otherwise scans k = 1..8 with m = k - 1 and keeps the
    smallest k whose held-out residual has plateaued (within 10x of the
    best).  Roots are filtered against Froissart noise by residue
    magnitude; a stability cross-check against the (m+1, k+1) fit decides
    whether pole locations are asserted.  Branch-type inputs fail the
    cross-check and are reported as root clusters without assertion — the
    underlying inverse problem is an open conjecture and this probe never
    claims uniqueness.
    """
    c = np.asarray(coefficients, dtype=complex)
    if not np.all(np.isfinite(c)):
        raise NonFiniteError("Taylor coefficients contain NaN or infinity")
    held = None
    if boundary_samples is not None:
        s = np.asarray(boundary_samples, dtype=complex)
        # odd-index nodes of the unit-circle grid
        held = (np.exp(1j * (2.0 * np.pi * np.arange(1, s.size, 2) / s.size)),
                s[1::2], np.max(np.abs(s)) + 1e-300)
    fit = lru_cache(maxsize=None)(lambda m, k: _PadeFit(c, m, k, held))
    notes = []
    if degrees is None:
        scan = [fit(k - 1, k) for k in range(1, 9) if len(c) >= 2 * k + 1]
        if not scan:
            raise ContractError("too few coefficients to scan degrees")
        best = min(f.residual for f in scan)
        final = next(f for f in scan
                     if f.residual <= 10.0 * max(best, 1e-15))
        m, k = final.m, final.k
        notes.append(f"degree scan over k = 1..{scan[-1].k} chose k = {k} "
                     f"(residual {final.residual:.3e})")
    else:
        m, k = degrees
        if m < 0 or k < 1:
            raise ContractError("need m >= 0 and k >= 1")
        extra = 1 + (held is None)
        if len(c) < m + k + extra:
            raise ContractError(
                f"need at least m + k + {extra} = {m + k + extra} "
                f"coefficients, got {len(c)}")
        final = fit(m, k)
    roots, _ = final.roots
    poles, strengths = final.poles

    # stability cross-check against the next degree pair: worst nearest-
    # neighbour distance between the two pole sets (inf if sizes differ)
    asserted = True
    if len(c) >= m + k + 3:
        poles2, _ = fit(m + 1, k + 1).poles
        drift = np.inf
        if len(poles) == len(poles2):
            near = np.abs(poles[:, None] - poles2).min(axis=1, initial=np.inf)
            drift = np.max(near / (1.0 + np.abs(poles)), initial=0.0)
        if drift > STABILITY_TOL:
            asserted = False
            notes.append(
                "pole locations drift between degree pairs "
                f"({m},{k}) and ({m + 1},{k + 1}): root clusters suggest a "
                "branch cut; locations are reported as diagnostics only, "
                "not asserted")
    if final.residual > ASSERT_RESIDUAL:
        asserted = False
        notes.append("rational fit residual is large; input may not be "
                     "meromorphic")
    if not final.cond_ok:
        notes.append("Hankel system is rank-deficient below the singular-"
                     "value cutoff")

    return ProbeReport(
        locations=tuple(complex(z) for z in poles),
        strengths=tuple(complex(z) for z in strengths),
        degrees=(m, k),
        coefficients_used=len(c),
        residual=final.residual,
        residual_kind=("held-out coefficients" if held is None
                       else "held-out boundary nodes"),
        confident=final.cond_ok and asserted,
        poles_asserted=asserted,
        unfiltered_roots=tuple(complex(z) for z in roots),
        notes=tuple(notes))
