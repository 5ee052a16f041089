import math

import numpy as np
import pytest

from cauchykit import (AccuracyWarning, ContractError, DomainError,
                       InvalidGridError,
                       NonFiniteError, PeriodicFunction, RealLineFunction,
                       hilbert_circular,
                       hilbert_circular_complementary,
                       hilbert_circular_complementary_inverse,
                       hilbert_circular_inverse, hilbert_complementary,
                       hilbert_complementary_inverse, hilbert_line,
                       hilbert_line_inverse, normalization_check,
                       parseval_check)

from cauchykit.geometry import _ROUNDING, _cut, _spectrum
from cauchykit.hilbert import _cayley_ladder, _conjugate_at
from oracles import piecewise_linear_hilbert

TWO_PI = 2.0 * np.pi


def example3_v():
    return RealLineFunction(lambda x: -1.0 / (x ** 2 + 1.0), decay=2,
                            window=50.0)


def example3_u():
    return RealLineFunction(lambda x: x / (x ** 2 + 1.0), decay=1,
                            window=50.0)


class TestLineTransforms:
    def test_example_pole_pair_forward(self):
        xi = np.linspace(-5.0, 5.0, 41)
        res = hilbert_line(example3_v(), xi)
        assert np.max(np.abs(res.values - xi / (xi ** 2 + 1.0))) < 5e-6
        assert np.all(res.truncation_error >= 0.0)

    def test_example_pole_pair_inverse(self):
        x = np.linspace(-5.0, 5.0, 41)
        res = hilbert_line_inverse(example3_u(), x)
        assert np.max(np.abs(res.values + 1.0 / (x ** 2 + 1.0))) < 5e-6

    def test_zero_input(self):
        z = RealLineFunction(lambda x: np.zeros_like(x), decay=2, window=50.0)
        res = hilbert_line(z, np.array([0.0, 1.0, -3.0]))
        assert np.all(res.values == 0.0)

    def test_insufficient_decay_rejected(self):
        slow = RealLineFunction(lambda x: 1.0 / np.sqrt(1.0 + x ** 2),
                                decay=0.5, window=50.0)
        with pytest.raises(ContractError):
            hilbert_line(slow, np.array([0.0]))

    def test_decay_declaration_checked_against_samples(self):
        wrong = RealLineFunction(lambda x: 1.0 / (1.0 + np.abs(x)), decay=3,
                                 window=50.0)
        with pytest.raises(ContractError):
            hilbert_line(wrong, np.array([0.0]))

    def test_imaginary_values_are_refused(self):
        # hilbert_line read 1j/(x^2 + 1) as 0
        v = RealLineFunction(lambda x: 1j / (x ** 2 + 1.0), decay=2)
        with pytest.raises(ContractError, match="imaginary"):
            hilbert_line(v, [0.5])
        real = RealLineFunction(lambda x: (1.0 + 0j) / (x ** 2 + 1.0),
                                decay=2)
        assert hilbert_line(real, [0.5]).values[0] == pytest.approx(
            -0.4, abs=1e-12)

    @pytest.mark.parametrize("transform", [hilbert_line, hilbert_line_inverse])
    def test_complex_targets_are_refused(self, transform):
        # hilbert_line read 0.5 + 2j as 0.5, with only numpy's ComplexWarning
        v = RealLineFunction(lambda x: 1.0 / (x ** 2 + 1.0), decay=2)
        with pytest.raises(DomainError, match="imaginary"):
            transform(v, np.array([0.5 + 2j]))
        got = transform(v, np.array([0.5 + 0j])).values
        assert np.array_equal(got, transform(v, np.array([0.5])).values)

    @pytest.mark.parametrize("transform", [hilbert_line, hilbert_line_inverse])
    def test_non_finite_targets_rejected(self, transform):
        with pytest.raises(DomainError):
            transform(example3_u(), np.array([np.nan, 0.5]))

    def test_far_targets_against_closed_form(self):
        # the Cayley route takes any finite target: no window bounds xi
        xi = np.array([30.0, 49.9, 1e3, -1e4])
        res = hilbert_line(example3_v(), xi)
        err = np.abs(res.values - xi / (xi ** 2 + 1.0))
        assert err.max() <= 1e-14
        assert np.all(res.truncation_error >= err)
        assert res.notes == () and res.grid_size == 64

    def test_oscillatory_input_routes_through_period(self):
        vs = RealLineFunction(np.sin, decay=0, period=2.0 * np.pi)
        xi = np.linspace(-5.0, 5.0, 21)
        res = hilbert_line(vs, xi)
        assert np.max(np.abs(res.values - np.cos(xi))) < 1e-12
        assert "periodic route" in res.notes

    def test_periodic_input_passes_the_decay_check_unsampled(self):
        # a periodic input declares no decay to check: f is never called
        calls = []

        def f(x):
            calls.append(x)
            return np.sin(x)
        assert RealLineFunction(f, decay=0, period=TWO_PI).check_decay()
        assert calls == []
        assert not RealLineFunction(f, decay=2).check_decay()
        assert len(calls) == 2

    @pytest.mark.parametrize("period", [-1.0, 0.0, np.nan, np.inf])
    def test_period_must_be_finite_and_positive(self, period):
        # period = -1 read H[sin(2 pi x)](0.1) as -0.809, not +0.809
        with pytest.raises(ContractError, match="period"):
            RealLineFunction(lambda x: np.sin(TWO_PI * x), decay=0,
                             period=period)

    def test_periodic_route_off_grid_near_quarter_band(self):
        # 512 samples per period; mode 127 (near n/4) checks that the
        # off-grid interpolation of the transformed samples keeps high modes
        period = 2.3
        w = TWO_PI / period
        vs = RealLineFunction(
            lambda x: np.sin(3.0 * w * x) + 0.5 * np.cos(127.0 * w * x),
            decay=0, period=period)
        xi = np.random.default_rng(17).uniform(-6.0, 6.0, 40)
        want = np.cos(3.0 * w * xi) - 0.5 * np.sin(127.0 * w * xi)
        assert np.max(np.abs(hilbert_line(vs, xi).values - want)) < 1e-11
        assert np.max(np.abs(hilbert_line_inverse(vs, xi).values + want)) \
            < 1e-11

    def test_complementary_is_exact_negation(self):
        xi = np.linspace(-4.0, 4.0, 17)
        base = hilbert_line(example3_v(), xi)
        comp = hilbert_complementary(example3_v(), xi)
        assert np.max(np.abs(comp.values + base.values)) == 0.0
        inv = hilbert_line_inverse(example3_u(), xi)
        compinv = hilbert_complementary_inverse(example3_u(), xi)
        assert np.max(np.abs(compinv.values + inv.values)) == 0.0

    def test_complementary_equals_inverse_structurally(self):
        # Hbar = -H = H^-1: the complementary transform and the inverse
        # share one code path and agree exactly at every node
        xi = np.linspace(-4.0, 4.0, 17)
        comp = hilbert_complementary(example3_v(), xi)
        inv = hilbert_line_inverse(example3_v(), xi)
        assert np.max(np.abs(comp.values - inv.values)) == 0.0

    def test_complementary_pair_values(self):
        # V = -1/(x^2+1) maps to U = -x/(x^2+1) under the complementary
        # transform (the lower-half-plane pole mirror of the direct pair)
        xi = np.linspace(-5.0, 5.0, 21)
        res = hilbert_complementary(example3_v(), xi)
        assert np.max(np.abs(res.values + xi / (xi ** 2 + 1.0))) < 5e-6

    def test_round_trip_identity(self):
        v = example3_v()
        u_num = RealLineFunction(lambda x: hilbert_line(v, x).values,
                                 decay=1, window=40.0)
        x = np.linspace(-5.0, 5.0, 41)
        rt = hilbert_line_inverse(u_num, x)
        assert np.max(np.abs(rt.values - v(x))) < 5e-6

    def test_round_trip_quartic(self):
        v = RealLineFunction(lambda x: x / (x ** 4 + 1.0), decay=3,
                             window=50.0)
        u_num = RealLineFunction(lambda x: hilbert_line(v, x).values,
                                 decay=1, window=40.0)
        x = np.linspace(-5.0, 5.0, 41)
        rt = hilbert_line_inverse(u_num, x)
        assert np.max(np.abs(rt.values - v(x))) < 5e-6


class TestCircularTransforms:
    def test_sine_maps_to_cosine(self):
        pf = PeriodicFunction.from_function(np.sin, 512)
        u = hilbert_circular(pf)
        assert np.max(np.abs(u.samples - np.cos(pf.thetas))) < 1e-10

    def test_imaginary_samples_are_refused(self):
        # PeriodicFunction(exp(i theta)) kept cos(theta), and said so only
        # by numpy's ComplexWarning
        th = -np.pi + TWO_PI * np.arange(64) / 64
        for make in (lambda: PeriodicFunction(np.exp(1j * th)),
                     lambda: PeriodicFunction.from_function(
                         lambda t: np.exp(1j * t), 64)):
            with pytest.raises(ContractError, match="imaginary"):
                make()
        real = PeriodicFunction(np.cos(th) + 0j)
        assert real.samples.dtype == float
        assert np.array_equal(real.samples, np.cos(th))

    def test_constant_annihilated(self):
        pf = PeriodicFunction(np.full(64, 2.7))
        u = hilbert_circular(pf)
        assert np.max(np.abs(u.samples)) < 1e-13
        assert u.carried_mean == pytest.approx(2.7)

    def test_third_harmonic(self):
        pf = PeriodicFunction.from_function(lambda t: np.cos(3.0 * t), 512)
        u = hilbert_circular(pf)
        assert np.max(np.abs(u.samples + np.sin(3.0 * pf.thetas))) < 1e-12

    def test_inverse_examples(self):
        uf = PeriodicFunction.from_function(np.cos, 512)
        v = hilbert_circular_inverse(uf)
        assert np.max(np.abs(v.samples - np.sin(uf.thetas))) < 1e-10
        zero = PeriodicFunction(np.zeros(64))
        assert np.max(np.abs(hilbert_circular_inverse(zero).samples)) == 0.0

    def test_round_trip_zero_mean(self):
        pf = PeriodicFunction.from_function(
            lambda t: np.sin(t) + 0.5 * np.sin(2.0 * t), 512)
        rt = hilbert_circular_inverse(hilbert_circular(pf))
        assert np.max(np.abs(rt.samples - pf.samples)) < 1e-10

    def test_skew_reciprocity(self):
        rng = np.random.default_rng(23)
        coeffs = rng.standard_normal(5)
        pf = PeriodicFunction.from_function(
            lambda t: sum(c * np.sin((k + 1) * t)
                          for k, c in enumerate(coeffs)), 256)
        twice = hilbert_circular(hilbert_circular(pf))
        assert np.max(np.abs(twice.samples + pf.samples)) < 1e-9

    def test_mean_handling_in_round_trip(self):
        pf = PeriodicFunction.from_function(lambda t: 1.5 + np.sin(t), 128)
        rt = hilbert_circular_inverse(hilbert_circular(pf))
        # the cotangent kernel annihilates the constant mode; the mean is
        # carried as metadata rather than silently restored
        assert np.max(np.abs(rt.samples - np.sin(pf.thetas))) < 1e-10
        assert hilbert_circular(pf).carried_mean == pytest.approx(1.5)

    def test_complementary_negation(self):
        pf = PeriodicFunction.from_function(np.sin, 512)
        u = hilbert_circular(pf)
        uc = hilbert_circular_complementary(pf)
        assert np.max(np.abs(uc.samples + u.samples)) == 0.0
        assert np.max(np.abs(uc.samples + np.cos(pf.thetas))) < 1e-10
        vi = hilbert_circular_inverse(pf)
        vic = hilbert_circular_complementary_inverse(pf)
        assert np.max(np.abs(vic.samples + vi.samples)) == 0.0

    def test_fourier_mode_table(self):
        for k in range(1, 17):
            n = max(4 * k + 8, 64)
            sin_k = PeriodicFunction.from_function(
                lambda t, kk=k: np.sin(kk * t), n)
            got = hilbert_circular(sin_k)
            assert np.max(np.abs(got.samples - np.cos(k * sin_k.thetas))) \
                < 1e-10
            cos_k = PeriodicFunction.from_function(
                lambda t, kk=k: np.cos(kk * t), n)
            got = hilbert_circular(cos_k)
            assert np.max(np.abs(got.samples + np.sin(k * cos_k.thetas))) \
                < 1e-10

    # ids by name: an alias's __name__ is its target's
    @pytest.mark.parametrize("transform", [
        hilbert_circular, hilbert_circular_inverse,
        hilbert_circular_complementary,
        hilbert_circular_complementary_inverse], ids=[
        "hilbert_circular", "hilbert_circular_inverse",
        "hilbert_circular_complementary",
        "hilbert_circular_complementary_inverse"])
    def test_constant_and_nyquist_modes_annihilated(self, transform):
        n = 64
        const = PeriodicFunction(np.full(n, -1.25))
        nyquist = PeriodicFunction.from_function(
            lambda t: np.cos(0.5 * n * t), n)
        assert np.max(np.abs(transform(const).samples)) < 1e-14
        assert np.max(np.abs(transform(nyquist).samples)) < 1e-14

    def test_odd_sample_count_rejected(self):
        with pytest.raises(InvalidGridError):
            PeriodicFunction(np.zeros(63))


class TestNormalization:
    def test_fundamental_mode_is_normalized(self):
        th = -np.pi + 2.0 * np.pi * np.arange(512) / 512
        assert abs(normalization_check(np.exp(1j * th))) < 1e-12

    def test_constant_flags_nonzero(self):
        # a constant density integrates to 2*pi*c: reported, not failed
        val = normalization_check(np.full(128, 1.0 + 0.0j))
        assert val == pytest.approx(2.0 * np.pi)

    def test_second_harmonic(self):
        th = -np.pi + 2.0 * np.pi * np.arange(128) / 128
        assert abs(normalization_check(np.exp(2j * th))) < 1e-12


class TestParseval:
    def test_circle_pair(self):
        th = -np.pi + 2.0 * np.pi * np.arange(512) / 512
        lhs, rhs, gap = parseval_check(PeriodicFunction(np.cos(th)),
                                       PeriodicFunction(np.sin(th)))
        assert lhs == pytest.approx(np.pi, abs=1e-10)
        assert rhs == pytest.approx(np.pi, abs=1e-10)
        assert gap < 1e-8

    def test_line_pair(self):
        lhs, rhs, gap = parseval_check(example3_u(), example3_v())
        assert lhs == pytest.approx(np.pi / 2.0, abs=1e-7)
        assert rhs == pytest.approx(np.pi / 2.0, abs=1e-7)
        assert gap < 1e-5

    def test_zero_pair(self):
        z = PeriodicFunction(np.zeros(64))
        lhs, rhs, gap = parseval_check(z, z)
        assert lhs == rhs == gap == 0.0

    def test_non_square_integrable_rejected(self):
        bad = RealLineFunction(lambda x: 1.0 / (1.0 + np.abs(x)) ** 0.4,
                               decay=0.4, window=50.0)
        ok = example3_v()
        with pytest.raises(ContractError):
            parseval_check(bad, ok)

    def test_mixed_pair_rejected(self):
        with pytest.raises(TypeError):
            parseval_check(PeriodicFunction(np.zeros(64)), example3_v())


# written so that each accepts an ndarray and an mpmath number alike
DECAY_15 = (lambda x: (1.0 + x * x) ** -0.75)
SKEWED = (lambda x: (1.0 + x * x) ** -0.625
          * (1.0 + 0.3 * x * (1.0 + x * x) ** -0.5))
SHIFTED = (lambda x: ((x - 1.0) ** 2 + 2.0) ** -1.25)


def _skewed_square():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return float(mpmath.quad(lambda x: SKEWED(x) ** 2,
                                 [-mpmath.inf, -1, 0, 1, mpmath.inf]))


def _mp_hilbert(v, xi):
    # H[v](t) = (1/pi) int_0^inf (v(t + x) - v(t - x))/x dx
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        return np.array([float(mpmath.quad(
            lambda x: (v(t + x) - v(t - x)) / x,
            sorted({0, 1, abs(t) / 2, abs(t), 2 * abs(t) + 2})
            + [mpmath.inf]) / mpmath.pi) for t in map(mpmath.mpf, xi)])


class TestLineParseval:
    """int v^2 dx on the Cayley ladder, against closed forms and mpmath."""

    @pytest.mark.parametrize("v,decay,want,tol", [
        (lambda x: -1.0 / (x * x + 1.0), 2, lambda: np.pi / 2.0, 1e-15),
        (lambda x: x / (x * x + 1.0), 1, lambda: np.pi / 2.0, 1e-15),
        (lambda x: (x - 3.0) / ((x - 3.0) ** 2 + 0.25), 1, lambda: np.pi,
         1e-15),
        (lambda x: np.exp(-x * x), 3, lambda: math.sqrt(np.pi / 2.0), 1e-15),
        (lambda x: np.cosh(0.2 * x) ** -2.0, 3, lambda: 20.0 / 3.0, 1e-15),
        (DECAY_15, 1.5, lambda: 2.0, 1e-15),
        (SKEWED, 1.25, _skewed_square, 1e-10),
        # int ((x - 1)^2 + 2)^(-5/2) dx = sqrt(2)/2^(5/2) * 4/3
        (SHIFTED, 2.5, lambda: 1.0 / 3.0, 1e-14),
    ], ids=["pole-v", "pole-u", "shifted-pole", "gaussian", "sech2-0.2",
            "decay-1.5", "decay-1.25", "decay-2.5"])
    def test_square_integral(self, v, decay, want, tol):
        f = RealLineFunction(v, decay=decay)
        lhs, rhs, gap = parseval_check(f, f)
        assert abs(lhs - want()) <= tol * want() and gap == 0.0

    @pytest.mark.parametrize("shift", [0.37, 0.0])
    def test_kink_warns(self, shift):
        # 1/(1 + |x - c|): int = 2; the kink leaves V unresolved
        f = RealLineFunction(lambda x: 1.0 / (1.0 + np.abs(x - shift)),
                             decay=1)
        with pytest.warns(AccuracyWarning, match="not resolved") as record:
            lhs = parseval_check(f, f)[0]
        assert abs(lhs - 2.0) <= 1e-3
        # the warning names the call of parseval_check, not the library
        assert {w.filename for w in record} == {__file__}

    def test_decay_below_one_rejected(self):
        f = RealLineFunction(lambda x: (1.0 + x * x) ** -0.375, decay=0.75)
        with pytest.raises(ContractError):
            parseval_check(f, f)


def test_square_integrability_flag():
    assert example3_v().square_integrable
    assert not RealLineFunction(lambda x: x, decay=0.3).square_integrable


def _sech2_hilbert(eps, xi):
    # sech^2 x = -sum_k 1/(x - i*pi*(k + 1/2))^2; the poles above the axis
    # give H[sech^2](xi) = (2/pi^2) Im psi'(1/2 + i xi/pi), and H commutes
    # with x -> eps*x
    mpmath = pytest.importorskip("mpmath")
    return np.array([float(2.0 / mpmath.pi ** 2 * mpmath.im(
        mpmath.psi(1, 0.5 + 1j * eps * t / mpmath.pi))) for t in xi])


def _gauss_hilbert(xi):
    # H[exp(-x^2)](xi) = -(2/sqrt(pi)) Dawson(xi) = -exp(-xi^2) erfi(xi)
    mpmath = pytest.importorskip("mpmath")
    return np.array([float(-mpmath.exp(-t * t) * mpmath.erfi(t))
                     for t in xi])


XI_WIDE = np.array([-1e4, -30.0, -5.0, -1.0, 0.0, 0.3, 2.0, 7.0, 49.9, 1e3])


class TestCayleyRoute:
    """Line transforms through the Cayley map against closed forms and
    mpmath: each result's truncation_error bounds its actual error."""

    @pytest.mark.parametrize("eps", [1.0, 0.2, 0.05])
    def test_slowly_decaying_sech2(self, eps):
        res = hilbert_line(RealLineFunction(
            lambda x: np.cosh(eps * x) ** -2.0, decay=3), XI_WIDE)
        err = np.abs(res.values - _sech2_hilbert(eps, XI_WIDE))
        assert err.max() <= 1e-14
        assert np.all(res.truncation_error >= err) and res.notes == ()

    def test_gaussian(self):
        res = hilbert_line(RealLineFunction(lambda x: np.exp(-x * x),
                                            decay=3), XI_WIDE)
        err = np.abs(res.values - _gauss_hilbert(XI_WIDE))
        assert err.max() <= 1e-14
        assert np.all(res.truncation_error >= err) and res.notes == ()

    @pytest.mark.parametrize("v,want", [
        (lambda x: np.exp(-x * x), _gauss_hilbert),
        (lambda x: np.cosh(0.2 * x) ** -2.0,
         lambda xi: _sech2_hilbert(0.2, xi)),
    ], ids=["gaussian", "sech2-0.2"])
    def test_bar_is_within_100x_of_the_error(self, v, want):
        # the bar extrapolates V's mode tail beyond N/2 from how fast its
        # top modes fall, so it reads near rounding where V resolves
        res = hilbert_line(RealLineFunction(v, decay=3), XI_WIDE)
        err = np.abs(res.values - want(XI_WIDE))
        assert np.all(res.truncation_error >= err)
        assert np.all(res.truncation_error <= 100.0 * err.max())

    def test_non_integer_decay_runs_to_the_cap(self):
        # V = |cos(theta/2)|^(3/2) has a branch point at theta = pi: its
        # modes fall like k^-5/2, so the ladder climbs to the cap and says so
        mpmath = pytest.importorskip("mpmath")
        xi = np.linspace(-5.0, 5.0, 11)
        res = hilbert_line(RealLineFunction(lambda x: (1.0 + x * x) ** -0.75,
                                            decay=1.5), xi)
        with mpmath.workdps(30):
            want = np.array([float(mpmath.quad(
                lambda x: ((1 + (t + x) ** 2) ** mpmath.mpf(-0.75)
                           - (1 + (t - x) ** 2) ** mpmath.mpf(-0.75)) / x,
                [0, abs(t) + 1, 10 * abs(t) + 10, mpmath.inf]) / mpmath.pi)
                for t in xi])
        err = np.abs(res.values - want)
        assert err.max() <= 1e-10
        assert np.all(res.truncation_error >= err)
        assert res.grid_size == 2 ** 14
        assert any(note.startswith("unresolved") for note in res.notes)

    @pytest.mark.parametrize("v,decay,tol", [
        (DECAY_15, 1.5, 1e-10), (SKEWED, 1.25, 1e-9), (SHIFTED, 2.5, 1e-13),
    ], ids=["decay-1.5", "decay-1.25", "decay-2.5"])
    def test_non_integer_decay_tail_model(self, v, decay, tol):
        # the model m = Re[a (x + i)^-p] of the tails is transformed in
        # closed form; the ladder still stops on V, so N and notes stay
        res = hilbert_line(RealLineFunction(v, decay=decay), XI_WIDE)
        err = np.abs(res.values - _mp_hilbert(v, XI_WIDE))
        assert err.max() <= tol
        near = np.abs(XI_WIDE) <= 1e3
        assert np.all(res.truncation_error[near] >= err[near])
        assert res.grid_size == 2 ** 14
        assert any(note.startswith("unresolved") for note in res.notes)

    @pytest.mark.parametrize("v,decay,exact,square", [
        (lambda x: 1.0 / (1.0 + x * x), 1.5,
         lambda xi: -xi / (1.0 + xi * xi), lambda: np.pi / 2.0),
        # g = exp(-x^2): H[g/(1 + x^2)] = (H[g] - xi e erfc(1))/(1 + xi^2),
        # and int g^2/(1 + x^2)^2 dx = sqrt(2 pi) - (3 pi/2) e^2 erfc(sqrt 2)
        (lambda x: np.exp(-x * x) / (1.0 + x * x), 1.5,
         lambda xi: (_gauss_hilbert(xi) - xi * math.e * math.erfc(1.0))
         / (1.0 + xi * xi),
         lambda: math.sqrt(TWO_PI)
         - 1.5 * np.pi * math.exp(2.0) * math.erfc(math.sqrt(2.0))),
        # over-declared: x/(x^2 + 1) decays like 1/x, within check_decay's
        # factor-10 allowance of 1.5 and 2.5
        (lambda x: x / (1.0 + x * x), 1.5,
         lambda xi: 1.0 / (1.0 + xi * xi), lambda: np.pi / 2.0),
        (lambda x: x / (1.0 + x * x), 2.5,
         lambda xi: 1.0 / (1.0 + xi * xi), lambda: np.pi / 2.0),
    ], ids=["pole-1.5", "gaussian-pole-1.5", "odd-pole-1.5", "odd-pole-2.5"])
    def test_resolved_input_takes_no_tail_model(self, v, decay, exact,
                                                 square):
        # a declared decay only bounds |v|: an input that decays faster
        # resolves to rounding, has no branch point at theta = +-pi and gets
        # no tail model, so it reads as with an integer declaration
        f, f1 = RealLineFunction(v, decay=decay), RealLineFunction(v, decay=1)
        res, base = hilbert_line(f, XI_WIDE), hilbert_line(f1, XI_WIDE)
        assert res.notes == base.notes == ()
        assert res.grid_size == base.grid_size
        assert np.array_equal(res.values, base.values)
        assert np.array_equal(res.truncation_error, base.truncation_error)
        assert np.abs(res.values - exact(XI_WIDE)).max() <= 1e-14
        lhs = parseval_check(f, f)[0]
        assert lhs == parseval_check(f1, f1)[0]
        assert abs(lhs - square()) <= 1e-14 * square()

    def test_stalled_ladder_takes_no_tail_model(self):
        # a kink stalls the ladder at N = 128, where the outermost node is
        # R = cot(pi/256) = 81 and v's tails need not follow the declared
        # power yet: the over-declared decays 1.5 and 2.5 read what 1 does
        v = lambda x: x / (x * x + 1.0) + 0.01 / (1.0 + np.abs(x - 0.37))
        got = []
        for decay in (1, 1.5, 2.5):
            f = RealLineFunction(v, decay=decay)
            res = hilbert_line(f, [0.0])
            assert res.grid_size == 128
            assert any(note.startswith("unresolved") for note in res.notes)
            with pytest.warns(AccuracyWarning):
                got.append((res.values[0], parseval_check(f, f)[0]))
        assert got[0] == got[1] == got[2]
        assert got[0][0] == pytest.approx(1.0027132448826332, rel=1e-12)
        assert got[0][1] == pytest.approx(1.5750618646551007, rel=1e-12)

    def test_cli_column_is_flagged_unresolved(self):
        # the CLI's line column: a piecewise-linear interpolant that jumps to
        # zero at +-pi; the ladder stops once its modes no longer fall
        # fourfold per doubling, and says so
        th = -np.pi + TWO_PI * np.arange(256) / 256
        col = -1.0 / (th ** 2 + 1.0)
        res = hilbert_line(RealLineFunction(
            lambda x: np.interp(x, th, col, left=0.0, right=0.0), decay=2.0,
            window=np.pi), 0.9 * th)
        err = np.abs(res.values - piecewise_linear_hilbert(th, col, 0.9 * th))
        assert any(note.startswith("unresolved") for note in res.notes)
        assert res.grid_size <= 256
        assert np.all(res.truncation_error >= err)

    @pytest.mark.parametrize("column", [
        lambda th: np.sin(3.0 * th) * np.exp(-th ** 2),
        lambda th: np.exp(-4.0 * th ** 2),
        lambda th: np.exp(-th ** 2),
    ], ids=["sin3-gaussian", "gaussian-4", "gaussian"])
    def test_bar_bounds_a_piecewise_linear_column(self, column):
        # the CLI's line construction of smooth columns: the interpolant's
        # kinks leave modes that do not fall geometrically, so the bar is
        # the tail sum over both signs of k (over one sign it read 2.6e-4,
        # 2.3e-4 and 5.0e-5 against the errors 2.8e-4, 3.0e-4 and 9.2e-5)
        th = -np.pi + TWO_PI * np.arange(256) / 256
        col = column(th)
        res = hilbert_line(RealLineFunction(
            lambda x: np.interp(x, th, col, left=0.0, right=0.0), decay=2.0,
            window=np.pi), 0.9 * th)
        err = np.abs(res.values - piecewise_linear_hilbert(th, col, 0.9 * th))
        assert np.all(res.truncation_error >= err)

    def test_non_finite_sample_raises(self):
        v = RealLineFunction(lambda x: np.where(np.abs(x) > 20.0, np.nan,
                                                1.0 / (1.0 + x * x)),
                             decay=2, window=4.0)
        with pytest.raises(NonFiniteError):
            hilbert_line(v, np.array([0.5]))


def _full_spectrum_conjugate(samples, s):
    # Hc's multiplier i*sign(k) on every mode of the samples' FFT, the
    # Nyquist mode zeroed, summed at s in extended precision
    n = samples.size
    k = np.fft.fftfreq(n, 1.0 / n).astype(np.longdouble)
    c = 1j * np.sign(k) * np.fft.fft(samples) / n
    c[n // 2] = 0.0
    return np.real(np.exp(1j * np.outer(s.astype(np.longdouble), k))
                   @ c.astype(np.clongdouble)).astype(float)


def _cut_of(samples):
    scale = np.abs(samples).max()
    return _cut(*_spectrum(samples)[:2], samples.size, scale), scale


class TestPeriodicRoute:
    """The periodic route's checks of its samples, and the cut of the
    conjugate interpolant at its rounding level on both routes."""

    def test_non_finite_sample_raises(self):
        v = RealLineFunction(lambda x: np.where(
            np.mod(x, 1.0) > 0.3, np.nan, np.sin(TWO_PI * x)), decay=0,
            period=1.0)
        with pytest.raises(NonFiniteError):
            hilbert_line(v, np.array([0.1]))

    def test_unresolved_period_is_noted(self):
        # |sin(pi x)| has a kink each period, its modes fall like k^-2:
        # H = (4/pi) sum_k sin(2 pi k xi)/(4k^2 - 1) errs by 2.5e-5 at 0.1
        kink = RealLineFunction(lambda x: np.abs(np.sin(np.pi * x)),
                                decay=0, period=1.0)
        res = hilbert_line(kink, [0.1])
        k = np.arange(1.0, 2e5)
        want = 4.0 / np.pi * np.sum(np.sin(TWO_PI * k * 0.1)
                                    / (4.0 * k * k - 1.0))
        assert abs(res.values[0] - want) > 1e-5
        assert res.truncation_error[0] >= abs(res.values[0] - want)
        assert res.notes[0] == "periodic route"
        assert res.notes[1].startswith("unresolved")

    @pytest.mark.parametrize("v,period", [
        (np.sin, TWO_PI),
        # four modes up to 12, as the benchmark's periodic line input
        (lambda x: 0.3 + np.sin(TWO_PI * 2 * x / 1.7)
         - 0.6 * np.cos(TWO_PI * 5 * x / 1.7)
         + 0.4 * np.sin(TWO_PI * 9 * x / 1.7)
         + 0.2 * np.cos(TWO_PI * 12 * x / 1.7), 1.7),
    ], ids=["sine", "four-modes"])
    def test_resolved_period_is_not_noted(self, v, period):
        res = hilbert_line(RealLineFunction(v, decay=0, period=period),
                           np.linspace(-2.0, 2.0, 9))
        assert res.notes == ("periodic route",)

    def test_cut_keeps_a_top_mode(self):
        # a small mode 255 of 512 samples: every mode the conjugate carries
        # is kept, and the value is the full spectrum's to rounding
        th = -np.pi + TWO_PI * np.arange(512) / 512
        samples = np.sin(th) + 1e-3 * np.cos(255.0 * th)
        (m, dropped), scale = _cut_of(samples)
        assert m >= 256
        s = np.random.default_rng(2).uniform(0.0, TWO_PI, 41)
        diff = np.abs(_conjugate_at(samples, s)[0]
                      - _full_spectrum_conjugate(samples, s))
        assert diff.max() <= dropped + _ROUNDING * np.log2(m) * scale

    @pytest.mark.parametrize("v,decay", [
        (lambda x: np.cosh(0.05 * x) ** -2.0, 3),
        (lambda x: np.exp(-x * x), 3),
        (SHIFTED, 2.5),
    ], ids=["sech2-0.05", "gaussian", "decay-2.5"])
    def test_cut_changes_the_cayley_route_by_its_dropped_tail(self, v,
                                                               decay):
        # at the XI_WIDE targets, the half-spectrum value is the full
        # spectrum's to within the dropped tail plus the bar's rounding
        # floor, and the bar includes that tail
        f = RealLineFunction(v, decay=decay)
        x, V, M, a, _ = _cayley_ladder(f)
        samples, n = V - M, x.size
        s = 2.0 * np.arctan(XI_WIDE) + np.pi * (1.0 - 1.0 / n)
        (m, dropped), scale = _cut_of(samples)
        assert 0.0 < dropped and m < n // 2
        diff = np.abs(_conjugate_at(samples, s)[0]
                      - _full_spectrum_conjugate(samples, s))
        assert diff.max() <= dropped + _ROUNDING * np.log2(m) * scale
        assert np.all(hilbert_line(f, XI_WIDE).truncation_error >= dropped)


class TestPeriodicRouteEstimate:
    def test_sine_reads_rounding(self):
        res = hilbert_line(RealLineFunction(np.sin, decay=0,
                                            period=TWO_PI), np.array([0.3]))
        assert res.truncation_error[0] <= 1e-14

    def test_bar_bounds_the_error_of_a_few_modes(self):
        # 200 seeded inputs of one to four modes k <= 40, periods 0.5 to 3.5
        # and targets out to |xi| = 100: the phases 2*pi*k*xi/P round by
        # about k*eps*|phase|, which the bar carries per target; against a
        # long-double closed form
        rng = np.random.default_rng(11)
        two_pi = 2 * np.longdouble("3.14159265358979323846264338327950288")
        for _ in range(200):
            k = rng.choice(np.arange(1, 41), size=rng.integers(1, 5),
                           replace=False)
            a, b = rng.normal(size=(2, k.size, 1))
            period = float(0.5 + 3.0 * rng.random())
            xi = 10.0 ** rng.uniform(0.0, 2.0) * rng.uniform(-1.0, 1.0, 20)
            v = lambda x, k=k, a=a, b=b, p=period: np.sum(
                a * np.sin(np.outer(k, TWO_PI * x / p))
                + b * np.cos(np.outer(k, TWO_PI * x / p)), axis=0) + 0.5
            res = hilbert_line(RealLineFunction(v, decay=0, period=period),
                               xi)
            phase = np.outer(k, two_pi * xi.astype(np.longdouble)
                             / np.longdouble(period))
            want = np.sum(a * np.cos(phase) - b * np.sin(phase), axis=0)
            err = np.abs(res.values - want).astype(float)
            assert np.all(res.truncation_error >= err)

    def test_high_mode_estimate_bounds_the_error(self):
        # mode 240 of 512 samples per period: the estimate reads its whole
        # amplitude, at least the interpolation error it actually makes
        w = TWO_PI / 2.0
        vs = RealLineFunction(lambda x: np.sin(w * x) + np.cos(240 * w * x),
                              decay=0, period=2.0)
        xi = np.random.default_rng(5).uniform(-3.0, 3.0, 30)
        res = hilbert_line(vs, xi)
        err = np.abs(res.values - (np.cos(w * xi) - np.sin(240 * w * xi)))
        assert np.all(res.truncation_error >= err)
        assert res.truncation_error[0] >= 1.0


def test_line_transform_keeps_the_targets_shape():
    # H[1/(1 + x^2)](xi) = -xi/(1 + xi^2) on a 2 x 3 array of targets
    v = RealLineFunction(lambda x: 1.0 / (1.0 + x ** 2), decay=2)
    xi = np.arange(6.0).reshape(2, 3) - 2.5
    res = hilbert_line(v, xi)
    assert res.values.shape == res.truncation_error.shape == (2, 3)
    assert np.allclose(res.values, -xi / (1.0 + xi ** 2), rtol=0.0,
                       atol=1e-14)
    periodic = RealLineFunction(lambda x: np.sin(x), decay=0.0,
                                period=2.0 * np.pi)
    assert np.allclose(hilbert_line(periodic, xi).values, np.cos(xi),
                       rtol=0.0, atol=1e-13)
