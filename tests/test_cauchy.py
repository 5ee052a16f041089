import dataclasses
import inspect
import math
import os
import subprocess
import sys
import types
from collections import Counter

import numpy as np
import pytest

import cauchykit
from cauchykit import cauchy as cauchy_module
from cauchykit import geometry
from cauchykit import (AccuracyWarning, BoundaryFunction, CapabilityError,
                       ClosedContour, ContractError, DomainError, NonFiniteError,
                       OnContourError,
                       boundary_value, build_unit_circle, cauchy_functional,
                       circle, classify_point, complement_boundary_value,
                       complement_functional, derivative_bound_check, ellipse,
                       exterior_annihilation_check, gauss_panel_grid,
                       generalized_functional,
                       mean_value_check, one_sided_limit,
                       periodic_trapezoid_grid, pv_contour_integral,
                       pv_singular_weight,
                       uniform_convergence_residuals, validate_derivatives,
                       vanishing_contour_integral)

from oracles import random_trig_poly


@pytest.fixture(scope="module")
def circle256():
    return build_unit_circle(256)


def pole_density():
    return BoundaryFunction(
        lambda t: 1.0 / (t - 2.0),
        derivs=(lambda t: -1.0 / (t - 2.0) ** 2,
                lambda t: 2.0 / (t - 2.0) ** 3,
                lambda t: -6.0 / (t - 2.0) ** 4))


def exp_density():
    return BoundaryFunction(np.exp, derivs=(np.exp, np.exp, np.exp, np.exp))


class TestCauchyFunctional:
    def test_interior_reproduction_of_pole(self, circle256):
        c, g = circle256
        fv = cauchy_functional(pole_density(), c, g, 0.5 + 0.0j, 0)
        assert fv.value == pytest.approx(1.0 / (0.5 - 2.0), abs=1e-12)
        assert fv.classification.inside

    def test_exterior_annihilation(self, circle256):
        c, g = circle256
        fv = cauchy_functional(pole_density(), c, g, 3.0 + 0.0j, 0)
        assert abs(fv.value) < 1e-12
        assert fv.classification.outside

    def test_derivative_of_constant(self, circle256):
        c, g = circle256
        one = BoundaryFunction(lambda t: np.ones_like(t),
                               derivs=(lambda t: np.zeros_like(t),))
        assert abs(cauchy_functional(one, c, g, 0.3 + 0.0j, 1).value) < 1e-13

    def test_on_contour_target_rejected(self, circle256):
        c, g = circle256
        with pytest.raises(OnContourError):
            cauchy_functional(pole_density(), c, g, 1.0 + 0.0j, 0)

    def test_smoothness_cap(self, circle256):
        c, g = circle256
        f = BoundaryFunction(np.exp, smoothness=1)
        with pytest.raises(CapabilityError):
            cauchy_functional(f, c, g, 0.2 + 0.0j, 2)

    def test_near_zone_flag_and_accuracy(self, circle256):
        c, g = circle256
        fv = cauchy_functional(exp_density(), c, g, 1.1 + 0.0j, 2)
        assert fv.near_zone
        assert abs(fv.value) < 1e-9

    def test_linearity(self, circle256):
        c, g = circle256
        rng = np.random.default_rng(11)
        f1, f2 = random_trig_poly(rng), random_trig_poly(rng)
        a, b = 0.6 - 1.1j, 2.0 + 0.3j
        z = 0.4 + 0.2j
        lhs = cauchy_functional(
            BoundaryFunction(lambda t: a * f1(t) + b * f2(t)), c, g, z).value
        rhs = a * cauchy_functional(BoundaryFunction(f1), c, g, z).value \
            + b * cauchy_functional(BoundaryFunction(f2), c, g, z).value
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


class TestGeneralizedFunctional:
    def test_pole_first_derivative_via_parts(self, circle256):
        c, g = circle256
        fv = generalized_functional(pole_density(), c, g, 0.0 + 0.0j, 1, 1)
        assert fv.value == pytest.approx(-0.25, abs=1e-12)

    def test_order_zero_reduces_to_plain_functional(self, circle256):
        c, g = circle256
        f = pole_density()
        a = generalized_functional(f, c, g, 0.3 + 0.1j, 0, 0).value
        b = cauchy_functional(f, c, g, 0.3 + 0.1j, 0).value
        assert a == pytest.approx(b, abs=1e-14)

    def test_monomial_second_derivative(self, circle256):
        c, g = circle256
        f = BoundaryFunction(lambda t: t ** 2)
        fv = generalized_functional(f, c, g, 0.1 + 0.0j, 2, 0)
        assert fv.value == pytest.approx(2.0, abs=1e-12)

    def test_all_parts_orders_agree(self, circle256):
        # the n+1 equivalent formulas for the same derivative
        c, g = circle256
        f = exp_density()
        vals = [generalized_functional(f, c, g, 0.3 + 0.2j, 3, m).value
                for m in range(4)]
        for v in vals[1:]:
            assert abs(v - vals[0]) < 1e-10

    def test_bad_order_pair(self, circle256):
        c, g = circle256
        with pytest.raises(CapabilityError):
            generalized_functional(exp_density(), c, g, 0.1 + 0.0j, 1, 2)


class TestBoundaryRelations:
    def test_relation_two_pole(self, circle256):
        c, g = circle256
        val = boundary_value(pole_density(), c, g, 1.0 + 0.0j, 0)
        assert val == pytest.approx(-1.0, abs=1e-12)

    def test_constant_reproduces_itself(self, circle256):
        c, g = circle256
        const = BoundaryFunction(
            lambda t: np.full(t.shape, 2.5 - 1.5j, dtype=complex))
        val = boundary_value(const, c, g, np.exp(0.4j), 0)
        assert val == pytest.approx(2.5 - 1.5j, abs=1e-12)

    def test_cubic_derivative_boundary_value(self, circle256):
        c, g = circle256
        f = BoundaryFunction(lambda t: t ** 3,
                             derivs=(lambda t: 3.0 * t ** 2,))
        t0 = np.exp(1j * np.pi / 4)
        val = boundary_value(f, c, g, t0, 1)
        assert val == pytest.approx(3.0 * np.exp(1j * np.pi / 2), abs=1e-11)

    def test_spectral_derivative_fallback(self, circle256):
        # no analytic derivative supplied: samples are differentiated
        # through the trigonometric interpolant
        c, g = circle256
        f = BoundaryFunction(lambda t: t ** 3)
        t0 = np.exp(1j * np.pi / 4)
        val = boundary_value(f, c, g, t0, 1)
        assert val == pytest.approx(3.0 * np.exp(1j * np.pi / 2), abs=1e-10)

    def test_one_sided_limits(self, circle256):
        c, g = circle256
        f = pole_density()
        interior = one_sided_limit(f, c, g, 1j, "interior")
        assert interior == pytest.approx(1.0 / (1j - 2.0), abs=1e-12)
        exterior = one_sided_limit(f, c, g, 1j, "exterior")
        assert abs(exterior) < 1e-12
        one = BoundaryFunction(lambda t: np.ones_like(t))
        assert abs(one_sided_limit(one, c, g, 1.0 + 0.0j, "exterior")) < 1e-13

    def test_relations_at_32_points(self, circle256):
        c, g = circle256
        points = np.exp(2j * np.pi * np.arange(32) / 32)
        for f in (pole_density(), exp_density()):
            for t0 in points:
                assert abs(one_sided_limit(f, c, g, t0, "interior")
                           - f(t0)) < 1e-8
                assert abs(boundary_value(f, c, g, t0, 0) - f(t0)) < 1e-8


NODE_OFFSETS = [0.0, 1e-12, 5e-10, 1e-9, 1.5e-9, 1e-8, 1e-7, 1e-6, 1e-4,
                1e-3, 1e-2]


@pytest.mark.parametrize("contour", [circle(0.0, 1.0), ellipse(1.0, 0.6)],
                         ids=["circle", "ellipse"])
@pytest.mark.parametrize("ds", NODE_OFFSETS)
def test_boundary_value_next_to_a_node(contour, ds):
    # next to a node, g_j - g(t0) and z_j - t0 cancel in that node's
    # quotient; plain quotients lost up to 1e-9 at ds = 1.5e-9
    f, g = pole_density(), periodic_trapezoid_grid(256)
    t0 = contour.z(g.nodes[37:38] + ds)[0]
    for n in (0, 1):
        want = f.derivative_callable(n)(t0)
        assert abs(boundary_value(f, contour, g, t0, n) - want) <= 1e-14
    pv = pv_contour_integral(f.func, contour, g, t0)
    assert abs(pv / (1j * np.pi) - f.func(t0)) <= 1e-14


@pytest.mark.parametrize("frac", [1e-2, 1.0 / 70])
def test_next_to_a_node_the_smaller_error_wins(frac):
    # 1/(t - 1.2) at n = 256: the trapezoid sum is exact to rounding, the
    # interpolants only to ~1e-8, so inside the band the quotient stays
    # plain (the interpolants' divided difference would read 1.2e-8)
    a, g, c = 1.2, periodic_trapezoid_grid(256), circle(0.0, 1.0)
    f = BoundaryFunction(lambda t: 1.0 / (t - a),
                         derivs=(lambda t: -1.0 / (t - a) ** 2,))
    t0 = c.z(g.nodes[51:52] + frac * 2.0 * np.pi / 256)[0]
    for n in (0, 1):
        want = f.derivative_callable(n)(t0)
        assert abs(boundary_value(f, c, g, t0, n) - want) <= 1e-13


@pytest.mark.parametrize("contour, n", [(circle(0.0, 1.0), 0),
                                        (circle(0.0, 1.0), 1),
                                        (ellipse(1.0, 0.6), 1)],
                         ids=["circle-0", "circle-1", "ellipse-1"])
def test_on_a_node_an_unresolved_interpolant_warns(contour, n):
    # 1/(t - 1.1) at n = 256: the trapezoid sum resolves it, its
    # interpolants do not (top-mode level 9.7e-6, 8.5e-5 and 1.2e-6 of the
    # maximum), and on a node the quotient is theirs: it errs by 8.2e-6,
    # 9.5e-4 and 2.5e-6
    f = BoundaryFunction(lambda t: 1.0 / (t - 1.1),
                         derivs=(lambda t: -1.0 / (t - 1.1) ** 2,))
    g = periodic_trapezoid_grid(256)
    for ds in (0.0, 5e-10):
        t0 = contour.z(g.nodes[51:52] + ds)[0]
        with pytest.warns(AccuracyWarning, match="on a node"):
            val = boundary_value(f, contour, g, t0, n)
        assert abs(val - f.derivative_callable(n)(t0)) > 1e-6


@pytest.mark.parametrize("contour", [circle(0.0, 1.0), ellipse(1.0, 0.6)],
                         ids=["circle", "ellipse"])
def test_on_a_node_a_resolved_interpolant_is_silent(contour):
    # the interpolants of 1/(t - 1.5) read below 1e-16 (those of 1/(t - 2),
    # test_boundary_value_next_to_a_node), and those of 0 read 0: no
    # warning (conftest), and the value is exact to rounding
    f = BoundaryFunction(lambda t: 1.0 / (t - 1.5),
                         derivs=(lambda t: -1.0 / (t - 1.5) ** 2,))
    g = periodic_trapezoid_grid(256)
    t0 = contour.z(g.nodes[51:52])[0]
    for n in (0, 1):
        want = f.derivative_callable(n)(t0)
        assert abs(boundary_value(f, contour, g, t0, n) - want) <= 1e-15
    zero = BoundaryFunction(lambda t: np.zeros_like(t))
    assert boundary_value(zero, contour, g, t0) == 0.0


class TestComplement:
    def test_exterior_reproduction(self, circle256):
        c, g = circle256
        F = BoundaryFunction(lambda t: t ** -2.0, decay=2)
        assert complement_functional(F, c, g, 3.0 + 0.0j, 0).value \
            == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_interior_annihilation(self, circle256):
        c, g = circle256
        F = BoundaryFunction(lambda t: t ** -2.0, decay=2)
        assert abs(complement_functional(F, c, g, 0.5 + 0.0j, 0).value) < 1e-12

    def test_zero_density(self, circle256):
        c, g = circle256
        F = BoundaryFunction(lambda t: np.zeros_like(t), decay=3)
        assert complement_functional(F, c, g, 2.0 + 1.0j, 0).value == 0.0

    def test_missing_decay_rejected(self, circle256):
        c, g = circle256
        with pytest.raises(ContractError):
            complement_functional(BoundaryFunction(lambda t: 1.0 / t), c, g,
                                  2.0 + 0.0j, 0)
        with pytest.raises(ContractError):
            complement_functional(
                BoundaryFunction(lambda t: 1.0 / t, decay=1), c, g,
                2.0 + 0.0j, 0)

    def test_boundary_values(self, circle256):
        c, g = circle256
        F1 = BoundaryFunction(lambda t: 1.0 / t, decay=2)
        assert complement_boundary_value(F1, c, g, 1.0 + 0.0j, 0) \
            == pytest.approx(1.0, abs=1e-12)
        F2 = BoundaryFunction(lambda t: t ** -2.0, decay=2)
        assert complement_boundary_value(F2, c, g, 1j, 0) \
            == pytest.approx(-1.0, abs=1e-11)

    def test_analytic_continuation_of_circular_pair(self, circle256):
        # F(z) = -1/z continues U + iV = -exp(-i theta) outward
        c, g = circle256
        F = BoundaryFunction(lambda t: -1.0 / t, decay=2)
        for theta in (0.3, 2.0, -1.2):
            t0 = np.exp(1j * theta)
            val = complement_boundary_value(F, c, g, t0, 0)
            assert val == pytest.approx(-np.exp(-1j * theta), abs=1e-11)

    def test_mirror_of_interior_properties(self, circle256):
        # complement symmetry: reproduction outside, annihilation inside,
        # for a generic decaying density
        c, g = circle256
        F = BoundaryFunction(lambda t: 1.0 / (t ** 2 * (t - 0.5)), decay=3)
        for z in (2.0 + 0.5j, -1.8j, 4.0 - 1.0j):
            got = complement_functional(F, c, g, z, 0).value
            assert abs(got - 1.0 / (z ** 2 * (z - 0.5))) < 1e-10
        for z in (0.1 + 0.1j, -0.3j):
            # density is regular outside only; inside the functional dies
            assert abs(complement_functional(F, c, g, z, 0).value) < 1e-10


class TestUniformConvergence:
    def test_pole_residuals(self, circle256):
        c, g = circle256
        rng = np.random.default_rng(5)
        targets = np.concatenate([
            0.85 * np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40)),
            (1.35 + 2.0 * rng.random(40)) * np.exp(2j * np.pi * rng.random(40)),
            np.exp(2j * np.pi * np.arange(20) / 20)])
        rep = uniform_convergence_residuals(pole_density(), c, g, targets, 0)
        assert rep.max_inside < 1e-9
        assert rep.max_outside < 1e-9
        assert len(rep.residuals) == len(targets)

    def test_constant_residuals_vanish(self, circle256):
        c, g = circle256
        one = BoundaryFunction(lambda t: np.ones_like(t),
                               derivs=(lambda t: np.zeros_like(t),))
        rep = uniform_convergence_residuals(one, c, g,
                                            [0.0j, 0.5 + 0.2j, 2.0 + 0.0j], 0)
        assert rep.max_inside < 1e-13
        assert rep.max_outside < 1e-13

    def test_exp_second_derivative_residuals(self, circle256):
        c, g = circle256
        targets = [0.2 + 0.1j, -0.5j, 1.5 + 0.4j, np.exp(0.8j), 2.5 - 1.0j]
        rep = uniform_convergence_residuals(exp_density(), c, g, targets, 2)
        assert rep.max_inside < 1e-8
        assert rep.max_outside < 1e-8


class TestIntegralTheorems:
    def test_vanishing_pv_integrals(self, circle256):
        c, g = circle256
        assert abs(vanishing_contour_integral(pole_density(), c, g, 0)) < 1e-8
        sq = BoundaryFunction(lambda t: t ** 2, derivs=(lambda t: 2.0 * t,))
        assert abs(vanishing_contour_integral(sq, c, g, 1)) < 1e-8
        zero = BoundaryFunction(lambda t: np.zeros_like(t))
        assert vanishing_contour_integral(zero, c, g, 0) == 0.0

    def test_vanishing_complement_integrals(self, circle256):
        c, g = circle256
        F = BoundaryFunction(lambda t: t ** -2.0, decay=2)
        assert abs(vanishing_contour_integral(F, c, g, 0, complement=True)) \
            < 1e-8

    def test_mean_value(self, circle256):
        _, g = circle256
        sq = BoundaryFunction(lambda t: t ** 2, derivs=(lambda t: 2.0 * t,))
        lhs, rhs, gap = mean_value_check(sq, 0.0 + 0.0j, 0.7, g)
        assert abs(lhs) < 1e-15 and abs(rhs) < 1e-15
        pole = pole_density()
        lhs, rhs, gap = mean_value_check(pole, 0.0 + 0.0j, 0.5, g)
        assert lhs == pytest.approx(-0.5) and gap < 1e-12
        lhs, rhs, gap = mean_value_check(exp_density(), 0.3 + 0.0j, 0.4, g,
                                         n=1)
        assert lhs == pytest.approx(np.exp(0.3)) and gap < 1e-10

    def test_cauchy_inequality_monomial_equality(self, circle256):
        _, g = circle256
        for k in (1, 3, 5):
            derivs = []
            for m in range(1, k + 1):
                coef = np.prod(np.arange(k - m + 1, k + 1)).astype(float)
                derivs.append(lambda t, c=coef, p=k - m: c * t ** p)
            f = BoundaryFunction(lambda t, kk=k: t ** kk, derivs=tuple(derivs))
            bound, actual, ok = derivative_bound_check(f, 0.0 + 0.0j, 1.0, k, 0)
            assert ok
            assert actual == pytest.approx(bound, rel=1e-12)

    def test_cauchy_inequality_constant(self, circle256):
        _, g = circle256
        const = BoundaryFunction(
            lambda t: np.full(t.shape, 3.0, dtype=complex),
            derivs=(lambda t: np.zeros_like(t),))
        bound, actual, ok = derivative_bound_check(const, 0.0 + 0.0j, 2.0, 1, 0)
        assert ok and actual == 0.0

    def test_cauchy_inequality_pole(self, circle256):
        _, g = circle256
        bound, actual, ok = derivative_bound_check(pole_density(), 0.0 + 0.0j,
                                                   1.0, 1, 0)
        assert ok
        assert bound == pytest.approx(1.0, rel=1e-10)
        assert actual == pytest.approx(0.25, rel=1e-12)


def test_validate_derivatives(circle256):
    c, g = circle256
    assert validate_derivatives(pole_density(), c, g, rng=0) < 1e-6
    bad = BoundaryFunction(lambda t: 1.0 / (t - 2.0),
                           derivs=(lambda t: 1.0 / (t - 2.0) ** 2,))
    with pytest.raises(ContractError):
        validate_derivatives(bad, c, g, rng=0)


class TestPanelGridDerivatives:
    """A density without derivative callables is differentiated spectrally,
    which only the periodic trapezoid grid allows."""

    GRID = gauss_panel_grid(16, 16, a=0.0, b=2.0 * np.pi)
    BARE = BoundaryFunction(lambda t: 1.0 / (t - 2.0))

    def test_near_zone_functional_raises(self):
        # 0.95 e^(0.3i) is in the near zone, where n = 1 reroutes through f'
        with pytest.raises(CapabilityError):
            cauchy_functional(self.BARE, circle(), self.GRID,
                              0.95 * np.exp(0.3j), 1)

    def test_boundary_value_raises(self):
        with pytest.raises(CapabilityError):
            boundary_value(self.BARE, circle(), self.GRID, np.exp(0.7j), 1)

    def test_samples_and_validate_derivatives_raise(self):
        with pytest.raises(CapabilityError):
            self.BARE.samples(circle(), self.GRID, 1)
        with pytest.raises(CapabilityError):
            validate_derivatives(pole_density(), circle(), self.GRID)

    def test_derivative_callables_still_serve(self):
        # with f' supplied, no spectral step runs: the far-zone value is
        # exact on panels
        z = 0.3 + 0.2j
        val = cauchy_functional(pole_density(), circle(), self.GRID, z, 1)
        assert abs(val.value + 1.0 / (z - 2.0) ** 2) < 1e-13


def test_exterior_annihilation_invariant(circle256):
    c, g = circle256
    rng = np.random.default_rng(17)
    targets = (1.1 + 3.0 * rng.random(30)) * np.exp(2j * np.pi * rng.random(30))
    f = pole_density()
    for z in targets:
        for n in (0, 1, 2):
            assert abs(cauchy_functional(f, c, g, z, n).value) < 1e-9


def test_off_contour_t0_is_a_domain_error(circle256):
    # OnContourError says the target lies on the contour: the wrong message
    # for a boundary routine handed a point off it
    c, g = circle256
    F = BoundaryFunction(lambda t: t ** -2.0, decay=2)
    for func in (boundary_value, one_sided_limit, complement_boundary_value):
        with pytest.raises(DomainError) as info:
            func(F, c, g, 0.5)
        assert not isinstance(info.value, OnContourError)


# NaN at the node z = 1 of build_unit_circle(64); every target and t0 below
# keeps clear of it
NAN_AT_ONE = BoundaryFunction(
    lambda t: np.where(t == 1.0, np.nan, 1.0 / (t - 2.0)),
    derivs=(lambda t: np.where(t == 1.0, np.nan, -1.0 / (t - 2.0) ** 2),),
    decay=2)
T0 = np.exp(0.5j)
CLOSED_ROUTES = {
    "cauchy_functional": lambda f, c, g: cauchy_functional(f, c, g, 0.3),
    "generalized_functional": lambda f, c, g: generalized_functional(
        f, c, g, 0.3, 1, 1),
    "boundary_value": lambda f, c, g: boundary_value(f, c, g, T0),
    "one_sided_limit": lambda f, c, g: one_sided_limit(f, c, g, T0),
    "complement_functional": lambda f, c, g: complement_functional(
        f, c, g, 3.0),
    "complement_boundary_value": lambda f, c, g: complement_boundary_value(
        f, c, g, T0),
    "uniform_convergence_residuals": lambda f, c, g:
        uniform_convergence_residuals(f, c, g, [0.3, 3.0, T0]),
    "exterior_annihilation_check": lambda f, c, g:
        exterior_annihilation_check(f, c, g, [3.0]),
    "vanishing_contour_integral": lambda f, c, g:
        vanishing_contour_integral(f, c, g),
    "vanishing_contour_integral-complement": lambda f, c, g:
        vanishing_contour_integral(f, c, g, complement=True),
    "samples": lambda f, c, g: f.samples(c, g),
    "pv_contour_integral": lambda f, c, g: pv_contour_integral(f, c, g, T0),
}


@pytest.mark.parametrize("route", list(CLOSED_ROUTES))
def test_non_finite_density_raises_on_every_closed_route(route):
    c, g = build_unit_circle(64)
    assert np.isnan(NAN_AT_ONE(c.z(g.nodes))).sum() == 1
    with pytest.raises(NonFiniteError):
        CLOSED_ROUTES[route](NAN_AT_ONE, c, g)


@pytest.mark.parametrize("spectral", [False, True], ids=["derivs", "spectral"])
def test_non_finite_density_raises_at_order_one(spectral):
    c, g = build_unit_circle(64)
    f = BoundaryFunction(NAN_AT_ONE.func) if spectral else NAN_AT_ONE
    with pytest.raises(NonFiniteError):
        cauchy_functional(f, c, g, 0.3, 1)


@pytest.mark.parametrize("route", [
    lambda F, c, g: complement_functional(F, c, g, 3.0),
    lambda F, c, g: complement_boundary_value(F, c, g, 1.0),
    lambda F, c, g: vanishing_contour_integral(F, c, g, complement=True),
], ids=["functional", "boundary-value", "vanishing-integral"])
@pytest.mark.parametrize("decay", [None, 1])
def test_complement_routes_share_one_decay_check(route, decay):
    c, g = build_unit_circle(64)
    with pytest.raises(ContractError, match="decay >= 2"):
        route(BoundaryFunction(lambda t: 1.0 / t, decay=decay), c, g)


def test_first_order_kernel_is_bit_identical_to_the_power():
    # numpy's inv ** 1 is a general complex power; the first-order kernel
    # is inv itself, bit-identical to it, and a row of the blocked kernel
    # sums is the 1-D np.sum of its target, the Cauchy factor in the column
    c, g = build_unit_circle(256)
    f, z = pole_density(), 0.3 + 0.2j
    smp = cauchy_module._sample(c, g, f)
    inv = 1.0 / (smp.zs - z)
    assert np.array_equal((inv ** 1).view(float), inv.view(float))
    terms = f(smp.zs) * (smp.dzw * geometry._CAUCHY)
    want = complex(np.sum(terms * inv ** 1))
    assert cauchy_functional(f, c, g, z).value == want
    rows = geometry._kernel_sums(smp.zs, [(terms, 1), (terms, 3)],
                                 np.array([0.1j, z]))
    assert rows[0, 1] == np.sum(terms * inv)
    assert rows[1, 1] == np.sum(terms * inv ** 3)


def _finished_row(smp, z, n, k):
    """J_(n,k) at z as one _kernel_sums row, its factor (n-k)!/(2 pi i) in
    the column as _evaluate puts it."""
    dzw, p = smp.dzw * geometry._CAUCHY, n - k
    col = smp.f(k) * (dzw if p < 2 else dzw * math.factorial(p))
    return geometry._kernel_sums(smp.zs, [(col, p + 1)], np.array([z]))[0, 0]


@pytest.mark.parametrize("contour", [circle(0.0, 1.0), ellipse(1.0, 0.6)],
                         ids=["circle", "ellipse"])
@pytest.mark.parametrize("rho,near", [(0.3, False), (0.98, True),
                                      (1.02, True), (3.0, False)])
def test_functional_values_are_their_kernel_sums(contour, rho, near):
    # no arithmetic after the sum: each value is its row, bit for bit
    g, f = periodic_trapezoid_grid(256), pole_density()
    F = BoundaryFunction(lambda t: t ** -2.0, decay=2,
                         derivs=(lambda t: -2.0 * t ** -3.0,
                                 lambda t: 6.0 * t ** -4.0))
    z = contour.z(np.array([0.3]))[0] * rho
    smp, cmp = (cauchy_module._sample(contour, g, h) for h in (f, F))
    for n in (0, 1, 2):
        fv = cauchy_functional(f, contour, g, z, n)
        assert fv.near_zone == near
        assert fv.value == _finished_row(smp, z, n, n if near else 0)
        for m in range(n + 1):
            assert generalized_functional(f, contour, g, z, n, m).value \
                == _finished_row(smp, z, n, m)
        assert complement_functional(F, contour, g, z, n).value \
            == -_finished_row(cmp, z, n, n)


# ---------------------------------------------------------------------------
# each call samples the contour and the density once

N_GRID = 256        # grid-sized calls have this many points


def counted(name, fn, calls):
    def wrapper(s):
        calls[name, np.size(s)] += 1
        return fn(s)
    return wrapper


def counted_ellipse(calls):
    e = ellipse(1.0, 0.6)
    return ClosedContour(z=counted("z", e.z, calls),
                         dz=counted("dz", e.dz, calls), d2z=e.d2z)


def counted_density(f, calls):
    return BoundaryFunction(
        counted("f", f.func, calls),
        derivs=tuple(counted(f"f{m + 1}", d, calls)
                     for m, d in enumerate(f.derivs)),
        decay=f.decay)


def grid_calls(calls):
    """The calls that sample more than one point."""
    return {k: v for k, v in calls.items() if k[1] > 1}


COMPLEMENT = BoundaryFunction(lambda t: t ** -2.0,
                              derivs=(lambda t: -2.0 * t ** -3.0,
                                      lambda t: 6.0 * t ** -4.0), decay=2)
ON = complex(np.cos(0.7) + 0.6j * np.sin(0.7))          # z(0.7), off-node
FUNCTIONALS = {
    "J_n": lambda f, F, c, g: cauchy_functional(f, c, g, 0.3 + 0.1j, 2),
    "J_n-near": lambda f, F, c, g: cauchy_functional(f, c, g, 1.01 * ON, 2),
    "J_nm": lambda f, F, c, g: generalized_functional(f, c, g, 0.2j, 2, 1),
    "J-_n": lambda f, F, c, g: complement_functional(F, c, g, 1.5 + 0.5j, 1),
    "K_n": lambda f, F, c, g: boundary_value(f, c, g, ON, 1),
    "one-sided": lambda f, F, c, g: one_sided_limit(f, c, g, ON, "exterior"),
    "K-_n": lambda f, F, c, g: complement_boundary_value(F, c, g, ON, 1),
}


@pytest.mark.parametrize("analytic", [True, False], ids=["derivs", "spectral"])
@pytest.mark.parametrize("name", list(FUNCTIONALS))
def test_functional_samples_contour_once(name, analytic):
    calls = Counter()
    c = counted_ellipse(calls)
    g = periodic_trapezoid_grid(N_GRID)
    f, F = pole_density(), COMPLEMENT
    if not analytic:
        f = BoundaryFunction(f.func)
        F = BoundaryFunction(F.func, decay=2)
    FUNCTIONALS[name](f, F, c, g)
    assert calls["z", N_GRID] <= 1
    assert calls["dz", N_GRID] <= 1
    # the length is the grid's, and location starts from the nearest node:
    # every other call is a scalar Newton step
    assert {size for _, size in calls} <= {N_GRID, 1}


def test_seeded_locate_keeps_off_contour_errors():
    # Newton from the nearest node lands on some curve point, never closer
    # than the curve is, so a t0 off the ellipse is still a DomainError
    calls = Counter()
    c, g = counted_ellipse(calls), periodic_trapezoid_grid(N_GRID)
    F = BoundaryFunction(lambda t: t ** -2.0, decay=2)
    for t0 in (0.5, 1.5 + 0.3j, 1.001 * ON, ON + 1e-6):
        for func in (boundary_value, one_sided_limit,
                     complement_boundary_value):
            with pytest.raises(DomainError) as info:
                func(F, c, g, t0)
            assert not isinstance(info.value, OnContourError)
    assert {size for _, size in calls} <= {N_GRID, 1}


def test_on_curve_point_between_nodes_is_on_the_contour():
    # z(1.3 pi/256) is 5e-3 from the nearest of 256 ellipse nodes: the
    # functionals refuse it, and the boundary routes locate it
    calls = Counter()
    c, g = counted_ellipse(calls), periodic_trapezoid_grid(N_GRID)
    f, F = pole_density(), COMPLEMENT
    on = complex(ellipse(1.0, 0.6).z(np.array([1.3 * np.pi / 256]))[0])
    for call in (lambda: cauchy_functional(f, c, g, on, 1),
                 lambda: generalized_functional(f, c, g, on, 2, 1),
                 lambda: complement_functional(F, c, g, on)):
        with pytest.raises(OnContourError):
            call()
    assert boundary_value(f, c, g, on) == pytest.approx(f.func(on),
                                                         abs=1e-12)
    assert one_sided_limit(f, c, g, on, "exterior") == pytest.approx(
        0.0, abs=1e-12)
    assert {size for _, size in calls} <= {N_GRID, 1}


def test_pv_singular_weight_locates_on_one_sampling():
    # t0 is located by Newton from the nearest node of one 1,024-node
    # sampling of z and z', whose grid length sets the band
    e = ellipse(1.0, 0.6)
    s = np.array([1.3 * np.pi / 1024])                      # between nodes
    on = complex(e.z(s)[0])
    normal = complex(-1j * e.dz(s)[0] / abs(e.dz(s)[0]))
    calls = Counter()
    c = counted_ellipse(calls)
    assert pv_singular_weight(c, on) == -1j * np.pi
    assert grid_calls(calls) == {("z", 1024): 1, ("dz", 1024): 1}
    for t0 in (on + 1e-6 * normal, on - 1e-6 * normal, 0.3j, 2.0):
        with pytest.raises(DomainError):
            pv_singular_weight(c, t0)
    assert {size for _, size in calls} == {1024, 1}


def test_uniform_residuals_locate_an_on_contour_target_once():
    # the classification's Newton solve for the near-zone distance also
    # locates an on-contour target for the boundary terms: the scalar z and
    # z' calls are those of boundary_value, four Newton steps and z(s0)
    g = periodic_trapezoid_grid(N_GRID)
    scalar = []
    for route in (lambda f, c: boundary_value(f, c, g, ON),
                  lambda f, c: uniform_convergence_residuals(f, c, g, [ON])):
        calls = Counter()
        route(pole_density(), counted_ellipse(calls))
        scalar.append((calls["z", 1], calls["dz", 1]))
    assert scalar == [(5, 4), (5, 4)]


def batch_targets(k):
    """k each of far inside, far outside, near-zone outside and on-node."""
    e, g = ellipse(1.0, 0.6), periodic_trapezoid_grid(N_GRID)
    zs = e.z(np.linspace(0.1, 6.0, k))
    on = e.z(g.nodes[::N_GRID // k][:k])
    return list(0.5 * zs) + list(1.6 * zs) + list(1.005 * zs) + list(on)


def test_batched_checks_sample_once_per_call():
    # z, z' and each density order are sampled once on the grid, for 4
    # targets as for 40; the interior reference f^(n) is one call at the
    # inside targets, and only on-contour boundary terms and Newton steps
    # make calls at one point
    g = periodic_trapezoid_grid(N_GRID)
    per_count = []
    for k in (1, 10):                   # 4 targets, then 40
        targets = batch_targets(k)
        counts = []
        for run in ("uniform", "exterior"):
            calls = Counter()
            c = counted_ellipse(calls)
            f = counted_density(pole_density(), calls)
            if run == "uniform":
                uniform_convergence_residuals(f, c, g, targets, 1)
            else:
                exterior_annihilation_check(f, c, g, targets[k:3 * k],
                                            (0, 1, 2))
            counts.append(calls)
        per_count.append(counts)
    on_grid = [[{key: v for key, v in calls.items() if key[1] == N_GRID}
                for calls in counts] for counts in per_count]
    assert on_grid[0] == on_grid[1]
    uniform, exterior = on_grid[1]
    assert uniform == {("z", N_GRID): 1, ("dz", N_GRID): 1,
                       ("f", N_GRID): 1, ("f1", N_GRID): 1}
    assert exterior == {("z", N_GRID): 1, ("dz", N_GRID): 1,
                        ("f", N_GRID): 1, ("f1", N_GRID): 1,
                        ("f2", N_GRID): 1}
    uniform, exterior = per_count[1]
    assert {key for key in uniform if key[1] not in (1, N_GRID)} == \
        {("f1", 10)}
    assert {size for _, size in exterior} == {1, N_GRID}
    # the matrix route of K_n at every node takes the same samples
    calls = Counter()
    vanishing_contour_integral(pole_density(), counted_ellipse(calls), g)
    assert calls[("z", N_GRID)] == 1
    assert calls[("dz", N_GRID)] == 1


def counted_passes(monkeypatch):
    """The point counts of the calls of _Samples.closest, the first step
    of each classification pass."""
    passes, closest = [], geometry._Samples.closest

    def counted(self, points, below=np.inf):
        passes.append(np.size(points))
        return closest(self, points, below)
    monkeypatch.setattr(geometry._Samples, "closest", counted)
    return passes


def test_batched_checks_classify_each_target_once(monkeypatch):
    # one classification pass per call, shared by every order, gives the
    # values of one public call per target (and per order) bit for bit
    g, f = periodic_trapezoid_grid(N_GRID), pole_density()
    c = ellipse(1.0, 0.6)
    targets = batch_targets(3)
    exterior = targets[3:9]
    want_uniform, verdicts = [], []
    for z in targets:
        cl = classify_point(c, g, z)
        verdicts.append(cl.verdict)
        if cl.on_contour:
            want_uniform.append(abs(one_sided_limit(f, c, g, z, "exterior")))
        else:
            value = cauchy_functional(f, c, g, z).value
            want_uniform.append(abs(value - f.func(z) if cl.inside else value))
    want_exterior = max(abs(cauchy_functional(f, c, g, z, n).value)
                        for z in exterior for n in (0, 1, 2))

    passes = counted_passes(monkeypatch)
    report = uniform_convergence_residuals(f, c, g, targets, 0)
    assert passes == [len(targets)]
    assert report.residuals.tolist() == want_uniform
    assert report.verdicts == tuple(verdicts)
    passes.clear()
    worst = exterior_annihilation_check(f, c, g, exterior, (0, 1, 2))
    assert passes == [len(exterior)]
    assert worst == want_exterior


def test_thousand_target_batch_equals_the_scalar_loop():
    # 1,000 ellipse targets in one call: far and near on both sides and on
    # the contour, each residual and verdict that of the scalar calls
    e, g, f = ellipse(1.0, 0.6), periodic_trapezoid_grid(N_GRID), \
        pole_density()
    rng = np.random.default_rng(18)
    s = 2.0 * np.pi * rng.random(1000)
    rho = np.concatenate((rng.uniform(0.1, 0.95, 350),
                          rng.uniform(1.05, 3.0, 350),
                          1.0 + rng.choice([-1.0, 1.0], 250)
                          * 10.0 ** rng.uniform(-4.0, -1.0, 250),
                          np.ones(50)))
    targets = e.z(s) * rho
    report = uniform_convergence_residuals(f, e, g, targets, 0)
    for z, res, verdict in zip(targets, report.residuals, report.verdicts):
        cl = classify_point(e, g, z)
        assert verdict == cl.verdict
        if cl.on_contour:
            want = abs(one_sided_limit(f, e, g, z, "exterior"))
        else:
            value = cauchy_functional(f, e, g, z).value
            want = abs(value - f.func(z) if cl.inside else value)
        assert res == want
    assert report.verdicts.count("on-contour") == 50
    outside = targets[np.array(report.verdicts) == "outside"]
    worst = exterior_annihilation_check(f, e, g, outside, (0, 1, 2))
    assert worst == max(abs(cauchy_functional(f, e, g, z, n).value)
                        for z in outside for n in (0, 1, 2))


@pytest.mark.parametrize("count", [10, 50])
def test_on_contour_targets_take_one_principal_value_pass(monkeypatch,
                                                          count):
    # every on-contour target of a batch goes through one _pv call
    g, f, e = periodic_trapezoid_grid(N_GRID), pole_density(), \
        ellipse(1.0, 0.6)
    on = e.z(2.0 * np.pi * (np.arange(count) + 0.3) / count)
    targets = np.concatenate((on, [0.2 + 0.1j, 2.0 - 1.0j]))
    sizes, pv = [], cauchy_module._pv

    def counted(samples, g0, *rest):
        sizes.append(np.size(g0))
        return pv(samples, g0, *rest)
    monkeypatch.setattr(cauchy_module, "_pv", counted)
    report = uniform_convergence_residuals(f, e, g, targets, 0)
    assert sizes == [count]
    assert report.verdicts.count("on-contour") == count
    assert report.max_outside < 1e-13


@pytest.mark.parametrize("contour", [circle(0.0, 1.0), ellipse(1.0, 0.6)],
                         ids=["circle", "ellipse"])
def test_near_node_rows_of_a_batch_equal_the_scalar_calls(contour):
    # on-contour targets at every NODE_OFFSETS offset from a node, on both
    # sides and around four nodes, shuffled: 84 rows over two row blocks,
    # each residual that of one scalar call, bit for bit
    g, f = periodic_trapezoid_grid(N_GRID), pole_density()
    offsets = np.array(NODE_OFFSETS)
    s = (g.nodes[[37, 90, 150, 255], None]
         + np.concatenate((offsets, -offsets[1:]))).ravel() % (2.0 * np.pi)
    s = s[np.random.default_rng(20).permutation(s.size)]
    targets = np.concatenate((contour.z(s), [0.3 + 0.1j, 2.5 + 0.0j]))
    report = uniform_convergence_residuals(f, contour, g, targets, 0)
    assert report.verdicts.count("on-contour") == s.size
    for z, res, verdict in zip(targets, report.residuals, report.verdicts):
        if verdict == "on-contour":
            assert res == abs(one_sided_limit(f, contour, g, z, "exterior"))
    assert report.max_outside < 1e-14


PUBLIC_NAMES = """
AccuracyWarning
ArcDensity BoundaryFunction CapabilityError CauchyKitError ClosedContour
ContractError DomainError EndpointError FlowConfig FunctionalValue
InvalidGridError JordanArc NonFiniteError OnContourError ParseError
PeriodicFunction PointClassification PrescriptionError ProbeReport
QuadratureGrid RealLineFunction ResidualReport SheetDensity SidedLimit
SingularityPrescription TransformResult arc_cauchy_integral boundary_value
build_unit_circle catalog_function cauchy_functional chebyshev3_rule
chebyshev4_rule circle circulation classify_point complement_boundary_value
complement_functional contour_integral derivative_bound_check ellipse
exterior_annihilation_check far_field_circulation finite_hilbert_inverse
finite_hilbert_transform flat_plate_complex_velocity gauss_panel_grid
generalized_functional hilbert_circular hilbert_circular_complementary
hilbert_circular_complementary_inverse hilbert_circular_inverse
hilbert_complementary hilbert_complementary_inverse hilbert_line
hilbert_line_inverse leading_edge_suction leading_edge_weight lift
mean_value_check near_zone_width normal_force normalization_check
one_sided_limit pade_pole_probe panels_from_breakpoints parseval_check
periodic_trapezoid_grid plemelj_limits poincare_bertrand_residual pressure
pressure_jump pv_contour_integral pv_singular_weight reconstruct_from_jump
segment sheet_velocity_field surface_velocities taylor_coefficients
uniform_convergence_residuals validate_contour validate_derivatives
vanishing_contour_integral
""".split()


def test_public_names_are_pinned():
    exported = {name for name, value in vars(cauchykit).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == set(PUBLIC_NAMES)
    # filters for RuntimeWarning still catch the library's one category
    assert issubclass(cauchykit.AccuracyWarning, RuntimeWarning)


def test_transform_result_and_parseval_check_are_pinned():
    # the window echo and the geometry argument are gone: the input types
    # choose Parseval's geometry
    assert [f.name for f in dataclasses.fields(cauchykit.TransformResult)] \
        == ["values", "targets", "truncation_error", "grid_size", "notes"]
    assert list(inspect.signature(cauchykit.parseval_check).parameters) \
        == ["u", "v"]


def test_runtime_imports_are_stdlib_and_numpy():
    # numpy is the only runtime dependency: importing the package and its
    # CLI loads no other third-party module (mpmath is for the tests)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys; before = set(sys.modules); "
            "import cauchykit, cauchykit.cli; "
            "print(' '.join(sorted({m.split('.')[0] for m in sys.modules} "
            "- {m.split('.')[0] for m in before})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"cauchykit", "numpy"} <= loaded
    assert loaded - sys.stdlib_module_names <= {"cauchykit", "numpy"}
