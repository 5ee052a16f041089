"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are fixed discretization budgets at the stated grid sizes; the
underlying identities are exact.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion report lines.
"""

import numpy as np
import pytest

from cauchykit import (BoundaryFunction, FlowConfig, RealLineFunction,
                       SingularityPrescription, build_unit_circle,
                       catalog_function, circulation, far_field_circulation,
                       finite_hilbert_inverse, finite_hilbert_transform,
                       generalized_functional, hilbert_line,
                       hilbert_line_inverse, lift, pade_pole_probe,
                       surface_velocities, taylor_coefficients)
from cauchykit.cli import CHECKS


def report(num, name, worst, tol):
    status = "PASS" if worst < tol else "FAIL"
    print(f"criterion {num:02d} [{name}] {status}: "
          f"max residual {worst:.3e} < {tol:.0e}")
    assert worst < tol, f"criterion {num} ({name}): {worst:.3e} >= {tol:.0e}"


def report_checks(num, tols, n=256, seed=None):
    """Report every registry check of criterion ``num`` at grid size n, each
    with a fresh generator seeded by ``seed``.  ``tols`` is the criterion's
    tolerance, or a mapping from each check id to one; the registry
    tolerance may be tighter, never looser."""
    checks = [c for c in CHECKS if c.criterion == num]
    assert checks and (isinstance(tols, float)
                       or {c.id for c in checks} == set(tols))
    for c in checks:
        assert c.tolerance <= (tols if isinstance(tols, float) else tols[c.id])
        report(num, c.id, c.residual(n, np.random.default_rng(seed)),
               c.tolerance)


@pytest.fixture(scope="module")
def circle256():
    return build_unit_circle(256)


def test_criterion_01_boundary_relations():
    report_checks(1, 1e-8)


def test_criterion_02_exterior_annihilation():
    report_checks(2, 1e-9, seed=1234)


def test_criterion_03_equivalent_formulas(circle256):
    c, g = circle256
    f = BoundaryFunction(np.exp, derivs=(np.exp, np.exp, np.exp))
    z = 0.3 + 0.2j
    vals = [generalized_functional(f, c, g, z, 3, m).value for m in range(4)]
    worst = max(abs(a - b) for a in vals for b in vals)
    report(3, "equivalent integrated-by-parts formulas", worst, 1e-9)


def test_criterion_04_vanishing_contour_integrals():
    report_checks(4, 1e-8)


def test_criterion_05_hilbert_line_pair():
    report_checks(5, 5e-6)
    v = RealLineFunction(lambda x: -1.0 / (x ** 2 + 1.0), decay=2,
                         window=50.0)
    xi = np.linspace(-5.0, 5.0, 81)
    u_num = RealLineFunction(lambda x: hilbert_line(v, x).values, decay=1,
                             window=40.0)
    rt = hilbert_line_inverse(u_num, xi)
    worst_rt = float(np.max(np.abs(rt.values - v(xi))))
    report(5, "Hilbert line round trip", worst_rt, 5e-6)


def test_criterion_06_circular_transform():
    report_checks(6, {"circular-sin-to-cos": 1e-10,
                      "circular-complementary-negation": 1e-15,
                      "circular-fourier-modes-k16": 1e-9}, n=512)


def test_criterion_07_parseval():
    report_checks(7, {"parseval-circle": 1e-8, "parseval-line": 1e-5}, n=512)


def test_criterion_08_plemelj():
    report_checks(8, 1e-8, seed=77)


def test_criterion_09_poincare_bertrand():
    report_checks(9, 1e-5)


def test_criterion_10_airfoil():
    cfg = FlowConfig(1.0, np.pi / 6.0, 1.0)
    gamma = circulation(cfg, n=128)
    worst_gamma = abs(gamma - np.pi) / np.pi
    l_vec, l_mag = lift(cfg, n=128)
    worst_lift = abs(l_mag - np.pi) / np.pi
    report(10, "circulation and lift magnitudes", max(worst_gamma, worst_lift),
           1e-8)
    u_plus, _ = surface_velocities(cfg, 0.0, "+")
    u_minus, _ = surface_velocities(cfg, 0.0, "-")
    worst_surface = max(abs(u_plus - 0.5), abs(u_minus + 0.5))
    report(10, "surface velocity closed form at midchord", worst_surface,
           1e-10)
    dens = finite_hilbert_inverse(
        lambda x: -0.5 * np.ones_like(np.asarray(x, dtype=float)), n=128)
    routes = np.array([gamma, dens.total_strength(n=128),
                       far_field_circulation(cfg)])
    worst_routes = float(np.max(np.abs(routes - routes[0])))
    report(10, "three circulation routes", worst_routes, 1e-8)
    u_vec = np.array([np.cos(cfg.alpha), np.sin(cfg.alpha), 0.0])
    ortho = abs(np.dot(l_vec, u_vec)) / (l_mag * cfg.speed)
    report(10, "lift orthogonal to the stream", ortho, 1e-12)


def test_criterion_11_finite_hilbert_inversion():
    vfun = lambda x: -1.0 + 0.3 * np.asarray(x, dtype=float)
    dens = finite_hilbert_inverse(vfun, n=128)
    x = np.linspace(-0.95, 0.95, 33)
    back = finite_hilbert_transform(dens, x, n=128)
    worst_rt = float(np.max(np.abs(back - vfun(x))))
    report(11, "G o G^-1 identity", worst_rt, 1e-8)
    eps = 10.0 ** (-np.arange(2, 6, dtype=float))
    slope = np.polyfit(np.log(eps), np.log(np.abs(dens(-1.0 + eps))), 1)[0]
    report(11, "leading-edge exponent fit", abs(-slope - 0.5), 0.02)
    report(11, "Kutta condition gamma(1) = 0", abs(dens(1.0)), 1e-15)


def test_criterion_12_inverse_probe(circle256):
    report_checks(12, 1e-4)
    c, g = circle256
    f2 = BoundaryFunction(lambda t: 1.0 / (t - 2.0) + 1.0 / (t + 3j))
    s2 = f2(c.z(g.nodes))
    rep2 = pade_pole_probe(taylor_coefficients(s2, 63), degrees=(1, 2),
                           boundary_samples=s2)
    locs = sorted(rep2.locations, key=abs)
    err2 = max(abs(locs[0] - 2.0) / 2.0, abs(locs[1] + 3j) / 3.0) \
        if len(locs) == 2 else 1.0
    report(12, "two-pole recovery", err2, 1e-3)
    fb = catalog_function(
        SingularityPrescription("algebraic-branch", 2.0 + 0.0j))
    sb = fb(c.z(g.nodes))
    repb = pade_pole_probe(taylor_coefficients(sb, 63), boundary_samples=sb)
    report(12, "branch input reported without assertion",
           1.0 if repb.poles_asserted else 0.0, 0.5)


def test_criterion_13_mean_value_and_inequality():
    report_checks(13, {"mean-value-exp-n0": 1e-10, "mean-value-exp-n1": 1e-10,
                       "cauchy-inequality-monomial": 1e-9,
                       "cauchy-inequality-satisfied": 0.5})
