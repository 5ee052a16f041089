import types
from collections import Counter

import numpy as np
import pytest

import cauchykit
from cauchykit import cauchy as cauchy_module
from cauchykit import (BoundaryFunction, CapabilityError, ClosedContour,
                       ContractError, DomainError, OnContourError,
                       boundary_value, build_unit_circle, cauchy_functional,
                       classify_point, complement_boundary_value,
                       complement_functional, derivative_bound_check, ellipse,
                       exterior_annihilation_check, generalized_functional,
                       mean_value_check, one_sided_limit,
                       periodic_trapezoid_grid, pv_singular_weight,
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
    # _classify's Newton solve for the near-zone distance also locates an
    # on-contour target for the boundary terms: the scalar z and z' calls
    # are those of boundary_value, four Newton steps and the final z(s0)
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
            counts.append(grid_calls(calls))
        per_count.append(counts)
    assert per_count[0] == per_count[1]
    for counts in per_count[1]:
        assert counts[("z", N_GRID)] == 1
        assert counts[("dz", N_GRID)] == 1
        assert {size for _, size in counts} == {N_GRID}
    # the matrix route of K_n at every node takes the same samples
    calls = Counter()
    vanishing_contour_integral(pole_density(), counted_ellipse(calls), g)
    assert calls[("z", N_GRID)] == 1
    assert calls[("dz", N_GRID)] == 1


def test_batched_checks_classify_each_target_once(monkeypatch):
    g, f = periodic_trapezoid_grid(N_GRID), pole_density()
    c = ellipse(1.0, 0.6)
    targets = batch_targets(3)
    exterior = targets[3:9]
    # the same values, one public call per target (and per order)
    want_uniform = []
    for z in targets:
        cl = classify_point(c, g, z)
        if cl.on_contour:
            want_uniform.append(abs(one_sided_limit(f, c, g, z, "exterior")))
        else:
            value = cauchy_functional(f, c, g, z).value
            want_uniform.append(abs(value - f.func(z) if cl.inside else value))
    want_exterior = max(abs(cauchy_functional(f, c, g, z, n).value)
                        for z in exterior for n in (0, 1, 2))

    classified = []

    def counted(smp, z, delta):
        classified.append(z)
        return classify(smp, z, delta)
    classify = cauchy_module._classify
    monkeypatch.setattr(cauchy_module, "_classify", counted)
    report = uniform_convergence_residuals(f, c, g, targets, 0)
    assert classified == targets
    assert report.residuals.tolist() == want_uniform
    classified.clear()
    worst = exterior_annihilation_check(f, c, g, exterior, (0, 1, 2))
    assert classified == exterior
    assert worst == want_exterior


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
one_sided_limit pade_pole_probe parseval_check periodic_trapezoid_grid
plemelj_limits poincare_bertrand_residual pressure pressure_jump
pv_contour_integral pv_singular_weight reconstruct_from_jump segment
sheet_velocity_field surface_velocities taylor_coefficients
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
