"""Independent oracles used by the tests.

These deliberately avoid the library's principal-value machinery: principal
values are computed by explicit epsilon-indentation (remove a symmetric ball
around the singular point, integrate what is left with raw composite
Gauss-Legendre panels, extrapolate in epsilon), matching the limit definition
rather than the singularity-subtraction path under test.
"""

from functools import lru_cache

import numpy as np


def graded_breaks(a, b, n_panels, grade=0):
    """Breakpoints of n_panels equal panels on [a, b], the first and the
    last subdivided dyadically ``grade`` times toward a and b."""
    edges = list(np.linspace(a, b, n_panels + 1))
    if grade:
        w0 = edges[1] - edges[0]
        left = [a + w0 * 2.0 ** (-j) for j in range(grade, 0, -1)]
        wn = edges[-1] - edges[-2]
        right = [b - wn * 2.0 ** (-j) for j in range(1, grade + 1)]
        edges = [a] + left + edges[1:-1] + right + [b]
    return edges


def gl_panels(a, b, n_panels=16, order=16, grade=0):
    """Raw composite Gauss-Legendre nodes/weights on [a, b] with optional
    dyadic grading toward both ends (graded_breaks)."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    edges = graded_breaks(a, b, n_panels, grade)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        h = 0.5 * (hi - lo)
        nodes.append(lo + h * (xs + 1.0))
        weights.append(h * ws)
    return np.concatenate(nodes), np.concatenate(weights)


def _exclusion_halfwidth(zfunc, s0, t0, eps, side):
    """Parameter offset d with |z(s0 + side*d) - t0| = eps (bisection)."""
    hi = eps
    def gap(d):
        return abs(zfunc(np.array([s0 + side * d]))[0] - t0) - eps
    while gap(hi) < 0:
        hi *= 2.0
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pv_closed_by_indentation(f, contour, s0, eps, n_panels=24, order=16,
                             grade=22):
    """P.V. of f(t)/(t - t0) dt over a closed contour by eps-indentation."""
    t0 = contour.z(np.array([s0]))[0]
    dp = _exclusion_halfwidth(contour.z, s0, t0, eps, +1.0)
    dm = _exclusion_halfwidth(contour.z, s0, t0, eps, -1.0)
    s, w = gl_panels(s0 + dp, s0 + 2.0 * np.pi - dm, n_panels, order, grade)
    zs = contour.z(s)
    vals = np.asarray(f(zs), dtype=complex)
    return complex(np.sum(vals * contour.dz(s) * w / (zs - t0)))


def pv_closed_extrapolated(f, contour, s0, eps_pair=(1e-3, 1e-4)):
    """Richardson extrapolation of the indentation value in epsilon."""
    v1 = pv_closed_by_indentation(f, contour, s0, eps_pair[0])
    v2 = pv_closed_by_indentation(f, contour, s0, eps_pair[1])
    r = eps_pair[0] / eps_pair[1]
    return (r * v2 - v1) / (r - 1.0)


def pv_arc_by_indentation(g, arc, s0, eps, n_panels=20, order=16, grade=22):
    """P.V. of g(t)/(t - t0) dt along an open arc by eps-indentation."""
    t0 = arc.z(np.array([s0]))[0]
    dp = _exclusion_halfwidth(arc.z, s0, t0, eps, +1.0)
    dm = _exclusion_halfwidth(arc.z, s0, t0, eps, -1.0)
    total = 0.0 + 0.0j
    for lo, hi in ((0.0, s0 - dm), (s0 + dp, 1.0)):
        s, w = gl_panels(lo, hi, n_panels, order, grade)
        zs = arc.z(s)
        vals = np.asarray(g(zs), dtype=complex)
        total += np.sum(vals * arc.dz(s) * w / (zs - t0))
    return complex(total)


def pv_arc_extrapolated(g, arc, s0, eps_pair=(1e-3, 1e-4)):
    v1 = pv_arc_by_indentation(g, arc, s0, eps_pair[0])
    v2 = pv_arc_by_indentation(g, arc, s0, eps_pair[1])
    r = eps_pair[0] / eps_pair[1]
    return (r * v2 - v1) / (r - 1.0)


def arc_integral_refined(g, arc, z, n_panels=160, order=16, grade=24):
    """(1/2*pi*i) int_L g(t)/(t - z) dt by brute-force refined panels."""
    s, w = gl_panels(0.0, 1.0, n_panels, order, grade)
    zs = arc.z(s)
    vals = np.asarray(g(zs), dtype=complex)
    return complex(np.sum(vals * arc.dz(s) * w / (zs - z)) / (2j * np.pi))


def random_trig_poly(rng, degree=6, scale=1.0):
    """Random trigonometric polynomial on the unit circle, analytic in an
    annulus (coefficients for modes -degree..degree)."""
    pos = scale * (rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
    neg = scale * (rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
    c0 = scale * (rng.standard_normal() + 1j * rng.standard_normal())

    def f(t):
        t = np.asarray(t, dtype=complex)
        out = np.full(t.shape, c0, dtype=complex)
        for k in range(1, degree + 1):
            out += pos[k - 1] * 0.5 ** k * t ** k
            out += neg[k - 1] * 0.5 ** k * t ** (-k)
        return out

    return f


# ---------------------------------------------------------------------------
# a per-target principal value by parameter-space subtraction on panels
# aligned at the singular point: a different rule from the library's fixed
# panels with product weights, one principal value at a time.


def aligned_panels(s0, n_panels=24, order=12):
    """GL panels on [0, 1] split at s0: max(2, ceil(n*s0)) panels on the
    left, max(2, ceil(n*(1 - s0))) on the right."""
    left = max(2, int(np.ceil(n_panels * s0)))
    right = max(2, int(np.ceil(n_panels * (1.0 - s0))))
    edges = np.array(list(np.linspace(0.0, s0, left + 1))
                     + list(np.linspace(s0, 1.0, right + 1)[1:]))
    xs, ws = _leggauss(order)
    lo = edges[:-1, None]
    h = 0.5 * (edges[1:, None] - lo)
    return (lo + h * (xs + 1.0)).ravel(), (h * ws).ravel()


@lru_cache(maxsize=8)
def _leggauss(order):
    return np.polynomial.legendre.leggauss(order)


def arc_pv_per_target(g, arc, s0, n_panels=24, order=12):
    """P.V. of g(t)/(t - t0) dt, t0 = z(s0), by subtracting g(t0)/(s - s0)
    in parameter space on panels aligned at s0."""
    t0 = arc.z(np.array([s0]))[0]
    g0 = complex(np.ravel(np.asarray(g(np.array([t0]))))[0])
    s, w = aligned_panels(s0, n_panels, order)
    ts = arc.z(s)
    vals = np.broadcast_to(np.asarray(g(ts), dtype=complex), ts.shape)
    h = vals * arc.dz(s) / (ts - t0) - g0 / (s - s0)
    return complex(np.sum(h * w) + g0 * np.log((1.0 - s0) / s0))


def piecewise_linear_hilbert(xs, ys, xi):
    """(1/pi) P.V. int v(x)/(x - xi) dx in closed form for v the
    piecewise-linear interpolant of (xs, ys), zero outside [xs[0], xs[-1]]:
    on each segment the integrand is slope + v_seg(xi)/(x - xi), v_seg the
    segment's line.  At an interior node xi the log terms of its two
    segments cancel and are dropped; xi must not be an end node."""
    xi = np.asarray(xi, dtype=float)[:, None]
    a, b = xs[:-1], xs[1:]
    slope = np.diff(ys) / np.diff(xs)
    with np.errstate(divide="ignore"):
        la = np.where(a == xi, 0.0, np.log(np.abs(a - xi)))
        lb = np.where(b == xi, 0.0, np.log(np.abs(b - xi)))
    line = ys[:-1] + slope * (xi - a)
    return np.sum(slope * (b - a) + line * (lb - la), axis=1) / np.pi
