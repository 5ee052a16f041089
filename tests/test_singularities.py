import dataclasses

import numpy as np
import pytest

from cauchykit import (AccuracyWarning, ContractError, NonFiniteError,
                       PrescriptionError, ProbeReport, SingularityPrescription,
                       build_unit_circle, catalog_function, cauchy_functional,
                       exterior_annihilation_check, pade_pole_probe,
                       taylor_coefficients)
from cauchykit.singularities import ASSERT_RESIDUAL, MAX_DERIV_ORDER


@pytest.fixture(scope="module")
def circle256():
    return build_unit_circle(256)


def boundary_samples(f, circle_grid):
    contour, grid = circle_grid
    return f(contour.z(grid.nodes))


class TestPrescriptions:
    def test_interior_location_rejected(self):
        with pytest.raises(PrescriptionError):
            SingularityPrescription("pole", 0.9 + 0.0j)
        with pytest.raises(PrescriptionError):
            SingularityPrescription("pole", 1.02 + 0.0j)

    def test_unknown_kind_rejected(self):
        with pytest.raises(PrescriptionError):
            SingularityPrescription("essential", 2.0 + 0.0j)

    def test_pole_order_validated(self):
        with pytest.raises(PrescriptionError):
            SingularityPrescription("pole", 2.0 + 0.0j, order=0)

    @pytest.mark.parametrize("order", [1.5, 2.0, "2", None])
    def test_pole_order_must_be_an_integer(self, order):
        # a fractional order is not a pole: it would be a branch point
        with pytest.raises(PrescriptionError, match="integer"):
            SingularityPrescription("pole", 2.0 + 0.0j, order=order)

    @pytest.mark.parametrize("kind", ["algebraic-branch", "log-branch"])
    def test_branch_order_is_ignored(self, kind):
        t = np.array([0.3 + 0.2j, -1.0 + 0.0j])
        f, g = (catalog_function(SingularityPrescription(
            kind, 2.0 + 0.0j, order=order)) for order in (1, None))
        for fm, gm in zip((f.func,) + f.derivs, (g.func,) + g.derivs):
            assert fm(t).tobytes() == gm(t).tobytes()

    def test_numpy_integer_order_reads_as_int(self):
        t = np.array([0.3 + 0.2j, -1.0 + 0.0j])
        f, g = (catalog_function(SingularityPrescription(
            "pole", 1.6 + 1.2j, 0.7 - 1.3j, order)) for order in (
                3, np.int64(3)))
        for fm, gm in zip((f.func,) + f.derivs, (g.func,) + g.derivs):
            assert fm(t).tobytes() == gm(t).tobytes()


class TestCatalog:
    def test_simple_pole(self):
        f = catalog_function(SingularityPrescription("pole", 2.0 + 0.0j))
        t = np.array([0.5 + 0.1j, -1.0 + 0.0j])
        assert np.allclose(f(t), 1.0 / (t - 2.0))

    def test_double_pole_derivatives(self):
        f = catalog_function(SingularityPrescription("pole", 2.0 + 0.0j,
                                                     order=2))
        t = np.array([0.3 + 0.2j])
        assert np.allclose(f(t), (t - 2.0) ** -2.0)
        assert np.allclose(f.derivs[0](t), -2.0 * (t - 2.0) ** -3.0)
        assert np.allclose(f.derivs[1](t), 6.0 * (t - 2.0) ** -4.0)

    def test_algebraic_branch_square(self):
        f = catalog_function(
            SingularityPrescription("algebraic-branch", 2.0 + 0.0j))
        t = np.array([1.0 + 0.0j, 1j, -1.0 + 0.0j])
        assert np.allclose(f(t) ** -2.0, t - 2.0)

    def test_branch_cut_avoids_circle(self, circle256):
        # single-valued on the circle: adjacent boundary samples stay close
        for loc in (2.0 + 0.0j, 2.4j, -1.5 - 1.5j):
            f = catalog_function(
                SingularityPrescription("algebraic-branch", loc))
            samples = boundary_samples(f, circle256)
            step = np.max(np.abs(np.diff(np.concatenate([samples,
                                                         samples[:1]]))))
            assert step < 0.1

    def test_log_branch_single_valued_on_circle(self, circle256):
        f = catalog_function(SingularityPrescription("log-branch", 3.0 + 0.0j))
        samples = boundary_samples(f, circle256)
        step = np.max(np.abs(np.diff(np.concatenate([samples, samples[:1]]))))
        assert step < 0.1
        t = np.array([0.5 + 0.0j])
        assert np.allclose(f.derivs[0](t), 1.0 / (t - 3.0))

    def test_constant(self):
        f = catalog_function(SingularityPrescription("constant",
                                                     strength=1.0 + 2.0j))
        t = np.array([1j, -0.5 + 0.0j])
        assert np.allclose(f(t), 1.0 + 2.0j)


def _oracle(mpmath, kind, a, s, order):
    """The prescription as an mpmath function, its branch cut along the ray
    arg = angle(a) by the same rotation as the catalog."""
    a, s = mpmath.mpc(a), mpmath.mpc(s)
    turn = mpmath.arg(a) + mpmath.pi
    if kind == "pole":
        return lambda t: s / (t - a) ** order
    if kind == "algebraic-branch":
        return lambda t: s / (mpmath.sqrt((t - a) * mpmath.expj(-turn))
                              * mpmath.expj(turn / 2))
    if kind == "log-branch":
        return lambda t: s * (mpmath.log((t - a) * mpmath.expj(-turn))
                              + 1j * turn)
    return lambda t: s


_ORACLE_POINTS = np.concatenate([
    np.exp(2j * np.pi * (np.arange(6) + 0.3) / 6),
    [0.0, 0.5 - 0.2j, -0.3 + 0.6j, 0.8j, -0.9 - 0.1j]])


@pytest.mark.parametrize("kind,location,order", [
    ("pole", 2.0, 1), ("pole", 1.6 + 1.2j, 2), ("pole", -1.5 - 0.7j, 3),
    ("algebraic-branch", 2.0, 1), ("algebraic-branch", 1.6 + 1.2j, 1),
    ("algebraic-branch", -2.5j, 1), ("log-branch", 3.0, 1),
    ("log-branch", -1.2 + 1.1j, 1), ("constant", complex("nan"), 1)],
    ids=["pole", "pole2-off-axis", "pole3", "branch", "branch-off-axis",
         "branch-imaginary", "log", "log-off-axis", "constant"])
def test_catalog_matches_mpmath(kind, location, order):
    """Every density and derivative against high-precision differentiation
    of the closed form, on the unit circle and inside it."""
    mpmath = pytest.importorskip("mpmath")
    strength = 0.7 - 1.3j
    f = catalog_function(SingularityPrescription(kind, location, strength,
                                                 order))
    exact = _oracle(mpmath, kind, location, strength, order)
    assert len(f.derivs) == MAX_DERIV_ORDER
    with mpmath.workdps(40):
        for m, fm in enumerate((f.func,) + f.derivs):
            got = fm(_ORACLE_POINTS)
            for t, value in zip(_ORACLE_POINTS, got):
                want = complex(mpmath.diff(exact, mpmath.mpc(t), m))
                assert abs(value - want) <= 1e-12 * abs(want), (m, t)


class TestDirectProblem:
    def exterior_targets(self, count=50, seed=2):
        rng = np.random.default_rng(seed)
        radii = 1.1 + 4.0 * rng.random(count)
        return radii * np.exp(2j * np.pi * rng.random(count))

    @pytest.mark.parametrize("pres", [
        SingularityPrescription("pole", 2.0 + 0.0j),
        SingularityPrescription("pole", -1.5 + 1.5j, order=2),
        SingularityPrescription("algebraic-branch", 2.0 + 0.0j),
        SingularityPrescription("log-branch", 3.0 + 0.0j),
        SingularityPrescription("constant", strength=1.0),
    ], ids=["pole", "double-pole", "branch", "log", "constant"])
    def test_exterior_annihilation(self, circle256, pres):
        contour, grid = circle256
        worst = exterior_annihilation_check(pres, contour, grid,
                                            self.exterior_targets(),
                                            orders=(0, 1, 2))
        assert worst < 1e-9

    def test_branch_between_circle_and_cut(self, circle256):
        contour, grid = circle256
        pres = SingularityPrescription("algebraic-branch", 2.0 + 0.0j)
        targets = np.array([1.5 + 0.0j, 1.9 + 0.05j, 1.2 * np.exp(0.3j)])
        assert exterior_annihilation_check(pres, contour, grid, targets) < 1e-8

    def test_interior_reproduction_dichotomy(self, circle256):
        # reproduction inside and annihilation outside hold simultaneously
        # for every catalog prescription, whatever the singularity type
        contour, grid = circle256
        rng = np.random.default_rng(5)
        inner = 0.9 * np.sqrt(rng.random(25)) * np.exp(2j * np.pi * rng.random(25))
        for pres in (SingularityPrescription("pole", 2.0 + 0.0j),
                     SingularityPrescription("algebraic-branch", 2.0 + 0.0j),
                     SingularityPrescription("constant", strength=1.0)):
            f = catalog_function(pres)
            for z in inner:
                got = cauchy_functional(f, contour, grid, z, 0).value
                assert abs(got - f(np.array([z]))[0]) < 1e-9

    def test_interior_target_rejected(self, circle256):
        contour, grid = circle256
        pres = SingularityPrescription("pole", 2.0 + 0.0j)
        with pytest.raises(ContractError):
            exterior_annihilation_check(pres, contour, grid,
                                        np.array([0.5 + 0.0j]))


class TestTaylorCoefficients:
    def test_geometric_series(self, circle256):
        f = catalog_function(SingularityPrescription("pole", 2.0 + 0.0j))
        coeffs = taylor_coefficients(boundary_samples(f, circle256), 48)
        expected = -(2.0 ** -(np.arange(49) + 1.0))
        assert np.max(np.abs(coeffs - expected)) < 1e-14

    def test_constant_and_monomial(self, circle256):
        contour, grid = circle256
        coeffs = taylor_coefficients(np.ones(grid.n, dtype=complex), 10)
        assert coeffs[0] == pytest.approx(1.0)
        assert np.max(np.abs(coeffs[1:])) < 1e-15
        cubic = taylor_coefficients(contour.z(grid.nodes) ** 3, 10)
        assert cubic[3] == pytest.approx(1.0)
        assert abs(cubic[0]) < 1e-15 and np.max(np.abs(cubic[4:])) < 1e-15

    def test_decay_rate_tracks_singularity_radius(self, circle256):
        # radii capped so the n = 40 coefficient r^-41 stays above the
        # double-precision noise floor the fit would otherwise see
        for radius in (1.6, 2.0, 2.4):
            pres = SingularityPrescription("pole", radius * np.exp(0.8j))
            f = catalog_function(pres)
            coeffs = taylor_coefficients(boundary_samples(f, circle256), 45)
            n = np.arange(10, 41)
            slope = np.polyfit(n, np.log(np.abs(coeffs[10:41])), 1)[0]
            assert np.exp(-slope) == pytest.approx(radius, rel=0.02)

    def test_interior_singularity_warns(self, circle256):
        contour, grid = circle256
        samples = 1.0 / (contour.z(grid.nodes) - 0.5)
        with pytest.warns(AccuracyWarning, match="interior singularity"):
            taylor_coefficients(samples, 48)

    @pytest.mark.parametrize("f", [
        lambda t: 1.0 / (t - 1.1),
        lambda t: 1.0 / (t - 1.06),
        lambda t: (1.0 - t / 1.1) ** (-2.0 / 3.0),
        catalog_function(SingularityPrescription("algebraic-branch",
                                                 1.06 + 0.0j)),
    ], ids=["pole-1.1", "pole-1.06", "power-1.1", "algebraic-branch-1.06"])
    def test_aliasing_is_not_an_interior_singularity(self, circle256, f):
        # regular inside but under-resolved at 256 samples: the negative
        # modes are aliasing, which grows toward k = -N/2 (an AccuracyWarning
        # would fail the test)
        coeffs = taylor_coefficients(boundary_samples(f, circle256), 48)
        assert np.all(np.isfinite(coeffs))

    def test_too_many_coefficients_rejected(self, circle256):
        with pytest.raises(ContractError):
            taylor_coefficients(np.ones(64, dtype=complex), 40)

    def test_negative_order_rejected(self):
        # n_max = -5 would slice the negative-frequency (Laurent) modes
        with pytest.raises(ContractError):
            taylor_coefficients(np.ones(64, dtype=complex), -5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.ones(64, dtype=complex)
        samples[7] = bad
        with pytest.raises(NonFiniteError):
            taylor_coefficients(samples, 10)


class TestProbeReportJSON:
    REPORT = ProbeReport(
        locations=(2.0 - 0.5j, -3.0 + 0.0j), strengths=(1.0 + 0.0j, -0.25j),
        degrees=(1, 2), coefficients_used=24, residual=3.5e-15,
        residual_kind="held-out boundary nodes", confident=False,
        poles_asserted=True, unfiltered_roots=(2.0 - 0.5j, 0.5 + 0.25j),
        notes=("first note", "second note"))

    def test_every_field_serialized(self):
        assert self.REPORT.to_dict() == {
            "locations": [[2.0, -0.5], [-3.0, 0.0]],
            "strengths": [[1.0, 0.0], [-0.0, -0.25]],
            "degrees": [1, 2],
            "coefficients_used": 24,
            "residual": 3.5e-15,
            "residual_kind": "held-out boundary nodes",
            "confident": False,
            "poles_asserted": True,
            "unfiltered_roots": [[2.0, -0.5], [0.5, 0.25]],
            "notes": ["first note", "second note"],
        }

    def test_keys_are_the_dataclass_fields(self):
        assert list(self.REPORT.to_dict()) == [
            f.name for f in dataclasses.fields(ProbeReport)]


class TestPadeProbe:
    def test_single_pole_recovery(self, circle256):
        f = catalog_function(SingularityPrescription("pole", 2.0 + 0.0j))
        samples = boundary_samples(f, circle256)
        coeffs = taylor_coefficients(samples, 63)
        report = pade_pole_probe(coeffs, degrees=(0, 1),
                                 boundary_samples=samples)
        assert len(report.locations) == 1
        assert abs(report.locations[0] - 2.0) < 1e-6
        assert abs(report.strengths[0] - 1.0) < 1e-6
        assert report.poles_asserted and report.confident
        assert report.residual < 1e-10

    def test_two_pole_recovery(self, circle256):
        f = lambda t: 1.0 / (t - 2.0) + 1.0 / (t + 3j)
        samples = f(circle256[0].z(circle256[1].nodes))
        coeffs = taylor_coefficients(samples, 63)
        report = pade_pole_probe(coeffs, degrees=(1, 2),
                                 boundary_samples=samples)
        locs = sorted(report.locations, key=abs)
        assert abs(locs[0] - 2.0) < 1e-5
        assert abs(locs[1] - (-3j)) < 1e-5
        assert all(abs(s - 1.0) < 1e-5 for s in report.strengths)

    def test_noisy_coefficients(self, circle256):
        # ten significant digits still pin the pole to 1e-4
        f = catalog_function(SingularityPrescription("pole", 2.0 + 0.0j))
        coeffs = taylor_coefficients(boundary_samples(f, circle256), 16)
        rng = np.random.default_rng(9)
        noisy = coeffs * (1.0 + 1e-10 * rng.standard_normal(len(coeffs)))
        report = pade_pole_probe(noisy, degrees=(0, 1))
        assert abs(report.locations[0] - 2.0) / 2.0 < 1e-4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        coeffs = 0.5 ** np.arange(10, dtype=complex)
        coeffs[4] = bad
        with pytest.raises(NonFiniteError):
            pade_pole_probe(coeffs)

    def test_constant_yields_no_poles(self, circle256):
        samples = np.ones(256, dtype=complex)
        coeffs = taylor_coefficients(samples, 20)
        report = pade_pole_probe(coeffs, degrees=(0, 1),
                                 boundary_samples=samples)
        assert report.locations == ()

    def test_degree_scan_picks_pole_count(self, circle256):
        f = lambda t: 1.0 / (t - 2.0) + 0.5 / (t + 2.5)
        samples = f(circle256[0].z(circle256[1].nodes))
        coeffs = taylor_coefficients(samples, 63)
        report = pade_pole_probe(coeffs, boundary_samples=samples)
        assert report.degrees[1] == 2
        assert sorted(round(abs(z), 4) for z in report.locations) == [2.0, 2.5]

    def test_branch_input_reports_without_asserting(self, circle256):
        f = catalog_function(
            SingularityPrescription("algebraic-branch", 2.0 + 0.0j))
        samples = boundary_samples(f, circle256)
        coeffs = taylor_coefficients(samples, 63)
        report = pade_pole_probe(coeffs, boundary_samples=samples)
        assert not report.poles_asserted
        assert len(report.unfiltered_roots) >= 3
        assert any("branch" in note or "drift" in note
                   for note in report.notes)

    def test_froissart_filtering_with_inflated_degree(self, circle256):
        # one true pole, denominator degree 3: spurious roots carry
        # negligible residue and are filtered out
        f = catalog_function(SingularityPrescription("pole", 2.0 + 0.0j))
        samples = boundary_samples(f, circle256)
        coeffs = taylor_coefficients(samples, 20)
        report = pade_pole_probe(coeffs, degrees=(2, 3),
                                 boundary_samples=samples)
        close = [z for z in report.locations if abs(z - 2.0) < 1e-5]
        assert len(close) == 1

    def test_insufficient_coefficients_rejected(self):
        with pytest.raises(ContractError):
            pade_pole_probe(np.array([1.0, 0.5]), degrees=(2, 4))

    def test_fixed_degrees_hold_a_coefficient_out(self):
        # without samples, m + k + 1 coefficients leave none for the
        # residual, which would read 0 and assert whatever it fitted
        rng = np.random.default_rng(23)
        c = rng.standard_normal(4)
        with pytest.raises(ContractError, match="m \\+ k \\+ 2 = 4"):
            pade_pole_probe(c[:3], degrees=(1, 1))
        report = pade_pole_probe(c, degrees=(1, 1))
        assert report.residual_kind == "held-out coefficients"
        assert report.residual > ASSERT_RESIDUAL
        assert not (report.poles_asserted or report.confident)
        # boundary samples hold out nodes: m + k + 1 coefficients serve
        f = catalog_function(SingularityPrescription("pole", 2.0 + 0.0j))
        samples = boundary_samples(f, build_unit_circle(64))
        report = pade_pole_probe(taylor_coefficients(samples, 2),
                                 degrees=(1, 1), boundary_samples=samples)
        assert report.residual_kind == "held-out boundary nodes"
        assert report.coefficients_used == 3 and report.poles_asserted
        with pytest.raises(ContractError, match="m \\+ k \\+ 1 = 3"):
            pade_pole_probe(c[:2], degrees=(1, 1), boundary_samples=samples)

    def test_branch_at_low_degree_is_not_asserted(self, circle256):
        # one pole cannot fit a square-root branch: the held-out
        # coefficients say so, with or without the cross-check's drift
        f = catalog_function(
            SingularityPrescription("algebraic-branch", 2.0 + 0.0j))
        coeffs = taylor_coefficients(boundary_samples(f, circle256), 16)
        report = pade_pole_probe(coeffs, degrees=(0, 1))
        assert report.residual > ASSERT_RESIDUAL
        assert not (report.poles_asserted or report.confident)
        assert "rational fit residual is large; input may not be " \
            "meromorphic" in report.notes


class TestPadeFitRecord:
    """One Hankel solve per degree pair: the scan's fits serve the chosen
    approximant and its (m+1, k+1) stability cross-check."""

    @staticmethod
    def count_solves(monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return lstsq(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "lstsq", counted)
        return calls

    @pytest.mark.parametrize("poles,chosen", [
        ((2.0, -2.5), 2),
        (tuple(1.6 * np.exp(1j * (0.8 * np.arange(8) + 0.3))), 8),
    ], ids=["two-poles", "eight-poles"])
    @pytest.mark.parametrize("with_samples", [False, True])
    def test_scan_solves_each_pair_once(self, circle256, monkeypatch,
                                        poles, chosen, with_samples):
        def f(t):
            return sum((j + 1) / (t - p) for j, p in enumerate(poles))
        samples = boundary_samples(f, circle256)
        coeffs = taylor_coefficients(samples, 63)
        calls = self.count_solves(monkeypatch)
        report = pade_pole_probe(
            coeffs, boundary_samples=samples if with_samples else None)
        assert report.degrees == (chosen - 1, chosen)
        assert report.poles_asserted
        # k = 1..8, plus the (8, 9) cross-check only when k = 8 is chosen
        assert len(calls) == 8 + (chosen == 8)
        assert sorted(abs(z) for z in report.locations) == pytest.approx(
            sorted(abs(p) for p in poles), rel=1e-10)

    def test_fixed_degrees_solve_twice(self, circle256, monkeypatch):
        f = catalog_function(SingularityPrescription("pole", 2.0 + 0.0j))
        samples = boundary_samples(f, circle256)
        coeffs = taylor_coefficients(samples, 63)
        calls = self.count_solves(monkeypatch)
        pade_pole_probe(coeffs, degrees=(1, 2), boundary_samples=samples)
        assert calls == [(2, 2), (3, 3)]

    def test_exact_rational_coefficients(self):
        # f = (1 + t/2) / ((t - 2)(t + 3i)) = A/(t - 2) + B/(t + 3i), so
        # c_n = -A/2^(n+1) - B/(-3i)^(n+1) and the (1/2) fit is exact
        A, B = 2.0 / (2.0 + 3j), (1.0 - 1.5j) / (-2.0 - 3j)
        n = np.arange(24)
        coeffs = -A / 2.0 ** (n + 1) - B / (-3j) ** (n + 1)
        report = pade_pole_probe(coeffs, degrees=(1, 2))
        assert report.residual_kind == "held-out coefficients"
        assert report.residual <= 1e-14
        assert report.poles_asserted and report.confident
        assert report.notes == ()
        got = dict(zip(report.locations, report.strengths))
        (z1, s1), (z2, s2) = sorted(got.items(), key=lambda p: abs(p[0]))
        assert abs(z1 - 2.0) < 1e-13 * 2.0 and abs(s1 - A) < 1e-13
        assert abs(z2 + 3j) < 1e-13 * 3.0 and abs(s2 - B) < 1e-13

    def test_constant_reports_no_drift(self, circle256):
        samples = np.full(256, 1.5 - 0.5j)
        coeffs = taylor_coefficients(samples, 20)
        for kwargs in ({}, {"boundary_samples": samples}):
            report = pade_pole_probe(coeffs, degrees=(1, 2), **kwargs)
            assert report.locations == () and report.poles_asserted
            assert not any("drift" in note for note in report.notes)


def test_probe_refuses_too_few_coefficients_and_bad_degrees():
    with pytest.raises(ContractError, match="too few coefficients"):
        pade_pole_probe(np.array([1.0, 0.5]))
    c = 0.5 ** np.arange(16)
    for degrees in ((-1, 1), (1, 0)):
        with pytest.raises(ContractError, match="m >= 0 and k >= 1"):
            pade_pole_probe(c, degrees=degrees)


@pytest.mark.parametrize("where", [complex("nan"), complex("inf"),
                                   complex(3.0, np.inf)])
def test_prescription_needs_a_finite_location(where):
    with pytest.raises(PrescriptionError, match="finite location"):
        SingularityPrescription("pole", where)


class TestOnePassScan:
    """The scan's held-out residuals come from one Horner sweep, to the bits
    of np.polyval, and only the chosen fit and its cross-check are rooted."""

    def test_held_out_residuals_match_polyval(self, circle256):
        from cauchykit.singularities import _fits, _residuals
        f = catalog_function(
            SingularityPrescription("algebraic-branch", 1.6 + 1.2j))
        samples = boundary_samples(f, circle256)
        c = taylor_coefficients(samples, 47)
        t = np.exp(1j * (2.0 * np.pi * np.arange(1, 256, 2) / 256))
        scale = np.max(np.abs(samples)) + 1e-300
        fits = _fits(c, [(k - 1, k) for k in range(1, 9)])
        got = _residuals(c, fits, (t, samples[1::2], scale))
        for (m, k, a, b, _), r in zip(fits, got):
            fit = np.polyval(a[::-1], t) / np.polyval(b[::-1], t)
            assert r == float(np.max(np.abs(fit - samples[1::2])) / scale)

    def test_scan_roots_two_fits(self, circle256, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(a.shape) or eigvals(a))
        f = catalog_function(SingularityPrescription("pole", 2.0 + 0.0j))
        samples = boundary_samples(f, circle256)
        pade_pole_probe(taylor_coefficients(samples, 63),
                        boundary_samples=samples)
        assert len(calls) == 2
        # five coefficients: the chosen k = 2 has no (3, 4) cross-check
        calls.clear()
        c = 1.0 / 2.0 ** np.arange(1, 6) + 1.0 / (-3.0) ** np.arange(1, 6)
        report = pade_pole_probe(c, degrees=(1, 2))
        assert len(calls) == 1 and report.degrees == (1, 2)

    def test_fixed_degrees_reaching_before_c0_match_a_hankel_solve(self):
        # with m < k - 1 a system reads c_j at j < 0, which is zero: each
        # fit's denominator is that of the explicitly built Hankel system
        from cauchykit.singularities import SV_CUTOFF, _fits
        rng = np.random.default_rng(5)
        c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        pairs = [(0, 2), (3, 2), (0, 3), (1, 3)]
        for (m, k), (fm, fk, a, b, _) in zip(pairs, _fits(c, pairs)):
            hankel = np.array([[c[m + i - j] if m + i - j >= 0 else 0.0
                                for j in range(1, k + 1)]
                               for i in range(1, k + 1)])
            want = np.linalg.lstsq(hankel, -c[m + 1:m + k + 1],
                                   rcond=SV_CUTOFF)[0]
            assert (fm, fk) == (m, k) and b[0] == 1.0
            assert np.allclose(b[1:], want, rtol=1e-12, atol=0.0)
            assert np.allclose(a, np.convolve(b, c[:m + 1])[:m + 1],
                               rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.ones(64, dtype=complex)
        samples[5] = bad
        c = 0.5 ** np.arange(10, dtype=complex)
        for degrees in (None, (0, 1)):
            with pytest.raises(NonFiniteError):
                pade_pole_probe(c, degrees=degrees, boundary_samples=samples)

    @pytest.mark.parametrize("shape", [(8, 8), (63,), (0,)])
    def test_samples_must_be_one_even_row(self, shape):
        c = 0.5 ** np.arange(10, dtype=complex)
        with pytest.raises(ContractError, match="even, nonzero length"):
            pade_pole_probe(c, boundary_samples=np.ones(shape))
