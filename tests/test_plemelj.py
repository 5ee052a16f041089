import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from cauchykit import airfoil, geometry, plemelj
from cauchykit import (AccuracyWarning, ArcDensity, BoundaryFunction,
                       DomainError, EndpointError, JordanArc, NonFiniteError,
                       SheetDensity, arc_cauchy_integral, build_unit_circle,
                       gauss_panel_grid, one_sided_limit,
                       panels_from_breakpoints, plemelj_limits,
                       poincare_bertrand_residual, reconstruct_from_jump,
                       segment, sheet_velocity_field)

from oracles import arc_integral_refined, graded_breaks, pv_arc_extrapolated


@pytest.fixture(scope="module")
def chord():
    return segment(-1.0, 1.0), gauss_panel_grid(24, 12)


class TestArcIntegral:
    def test_constant_density_log_closed_form(self, chord):
        arc, grid = chord
        z = 2j
        got = arc_cauchy_integral(ArcDensity(lambda t: np.ones_like(t)),
                                  arc, grid, z)
        expect = np.log((z - 1.0) / (z + 1.0)) / (2j * np.pi)
        assert abs(got - expect) < 1e-14

    def test_zero_density(self, chord):
        arc, grid = chord
        assert arc_cauchy_integral(ArcDensity(np.zeros_like), arc, grid,
                                   0.5 + 2.0j) == 0.0

    def test_polynomial_against_refined_quadrature(self, chord):
        arc, grid = chord
        g = ArcDensity(lambda t: 1.0 - t ** 2)
        z = 0.5 + 0.5j
        got = arc_cauchy_integral(g, arc, grid, z)
        oracle = arc_integral_refined(g.func, arc, z)
        assert abs(got - oracle) < 1e-10

    def test_derivative_orders(self, chord):
        arc, grid = chord
        g = ArcDensity(lambda t: np.ones_like(t))
        z = 1.5j
        # f(z) = log((z-1)/(z+1))/(2 pi i); f'(z) = (1/(z-1) - 1/(z+1))/(2 pi i)
        got = arc_cauchy_integral(g, arc, grid, z, n=1)
        expect = (1.0 / (z - 1.0) - 1.0 / (z + 1.0)) / (2j * np.pi)
        assert abs(got - expect) < 1e-13

    def test_on_arc_rejected_and_near_zone_warns(self, chord):
        arc, grid = chord
        g = ArcDensity(lambda t: np.ones_like(t))
        with pytest.raises(DomainError):
            arc_cauchy_integral(g, arc, grid, 0.25 + 0.0j)
        with pytest.warns(AccuracyWarning):
            arc_cauchy_integral(g, arc, grid, 0.25 + 1e-4j)

    def test_simple_zero_at_infinity(self, chord):
        # z f(z) -> (1/2 pi i) int g dt; here int (1-t^2) dt = 4/3
        arc, grid = chord
        g = ArcDensity(lambda t: 1.0 - t ** 2)
        z = 1e3 * np.exp(0.7j)
        got = z * arc_cauchy_integral(g, arc, grid, z)
        expect = -(4.0 / 3.0) / (2j * np.pi)
        assert abs(got - expect) / abs(expect) < 1e-4


class TestPlemeljLimits:
    def test_constant_density_half_jump(self, chord):
        arc, grid = chord
        plus, minus = plemelj_limits(ArcDensity(lambda t: np.ones_like(t)),
                                     arc, grid, 0.0 + 0.0j)
        assert plus.value == pytest.approx(0.5, abs=1e-12)
        assert minus.value == pytest.approx(-0.5, abs=1e-12)
        assert plus.side == "plus" and minus.side == "minus"

    def test_jump_equals_density(self, chord):
        arc, grid = chord
        g = ArcDensity(lambda t: 1.0 - t ** 2)
        plus, minus = plemelj_limits(g, arc, grid, 0.3 + 0.0j)
        assert plus.value - minus.value == pytest.approx(0.91, abs=1e-10)
        for x0 in np.linspace(-0.9, 0.9, 16):
            p, m = plemelj_limits(g, arc, grid, complex(x0))
            assert abs(p.value - m.value - (1.0 - x0 ** 2)) < 1e-8

    def test_sum_against_independent_pv(self, chord):
        arc, grid = chord
        g = ArcDensity(lambda t: 1.0 - t ** 2)
        x0 = 0.3
        plus, minus = plemelj_limits(g, arc, grid, complex(x0))
        oracle_pv = pv_arc_extrapolated(g.func, arc, (x0 + 1.0) / 2.0)
        assert abs(plus.value + minus.value - oracle_pv / (1j * np.pi)) < 1e-6

    def test_endpoint_margin(self, chord):
        arc, grid = chord
        g = ArcDensity(lambda t: np.ones_like(t))
        with pytest.raises(EndpointError):
            plemelj_limits(g, arc, grid, -0.999 + 0.0j)
        with pytest.raises(DomainError):
            plemelj_limits(g, arc, grid, 0.3 + 0.5j)

    def test_curved_arc(self):
        # half circle through i: z(s) = exp(i pi (1 - s)) from -1 to 1
        arc = JordanArc(
            z=lambda s: np.exp(1j * np.pi * (1.0 - np.asarray(s))),
            dz=lambda s: -1j * np.pi * np.exp(1j * np.pi * (1.0 - np.asarray(s))),
            d2z=lambda s: -np.pi ** 2 * np.exp(1j * np.pi * (1.0 - np.asarray(s))))
        grid = gauss_panel_grid(24, 12)
        g = ArcDensity(lambda t: t ** 2)
        z0 = np.exp(1j * np.pi / 3)
        plus, minus = plemelj_limits(g, arc, grid, z0)
        assert plus.value - minus.value == pytest.approx(z0 ** 2, abs=1e-9)
        oracle_pv = pv_arc_extrapolated(g.func, arc, 1.0 - 1.0 / 3.0)
        assert abs(plus.value + minus.value - oracle_pv / (1j * np.pi)) < 1e-6


class TestReconstruction:
    def test_reconstruct_matches_direct(self, chord):
        arc, grid = chord
        g = ArcDensity(lambda t: 1.0 - t ** 2)
        for z in (2j, -1.4 + 0.8j, 3.0 - 2.0j):
            direct = arc_cauchy_integral(g, arc, grid, z)
            rebuilt = reconstruct_from_jump(g, arc, grid, z)
            assert abs(direct - rebuilt) < 1e-12

    def test_reconstruct_is_the_arc_integral_bit_for_bit(self, chord):
        # both are the arc's kernel sum with n!/(2 pi i) in the weights
        g = ArcDensity(lambda t: 1.0 - t ** 2)
        for arc, grid in (chord, (HALF_CIRCLE, gauss_panel_grid(16, 12))):
            smp = geometry._sample(arc, grid)
            for z in (2j, -1.4 + 0.8j, 3.0 - 2.0j):
                want = [geometry._kernel_sums(smp.zs, [(
                    g(smp.zs) * (smp.dzw * (geometry._CAUCHY * f)), n + 1)],
                    np.array([z]))[0, 0] for n, f in ((0, 1), (2, 2))]
                assert reconstruct_from_jump(g, arc, grid, z) == want[0]
                assert arc_cauchy_integral(g, arc, grid, z) == want[0]
                assert arc_cauchy_integral(g, arc, grid, z, n=2) == want[1]

    def test_zero_jump(self, chord):
        arc, grid = chord
        assert reconstruct_from_jump(ArcDensity(np.zeros_like), arc, grid,
                                     1.0 + 1.0j) == 0.0

    def test_airfoil_jump_rebuilds_plate_solution(self, chord):
        # jump 2 sqrt(1-x^2) v(x) with v = -U sin(alpha) rebuilds
        # f = w(z) H(z) up to its value at infinity (the constant the jump
        # cannot see); closed form: f0(z) = -i U sin(a) [z - sqrt(z^2-1)]
        arc, _ = chord
        amp = 0.5  # U sin(alpha)
        jump = ArcDensity(
            lambda t: 2.0 * np.sqrt(np.clip(1.0 - np.real(t) ** 2, 0.0, None))
            * (-amp))
        grid = panels_from_breakpoints(graded_breaks(0.0, 1.0, 32, 24), 12)
        for z in (2j, 1.3 + 0.9j, -2.5 - 1.0j):
            got = reconstruct_from_jump(jump, arc, grid, z)
            root = np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
            expect = -1j * amp * (z - root)
            assert abs(got - expect) < 1e-7


def test_closure_consistency_with_closed_contour():
    # as an arc closes into the full circle, the plus-side limit approaches
    # the closed-contour interior limit and the minus side approaches zero
    contour, cgrid = build_unit_circle(256)
    f = BoundaryFunction(lambda t: 1.0 / (t - 2.0))
    z0 = -1.0 + 0.0j
    closed_plus = one_sided_limit(f, contour, cgrid, z0, "interior")
    gaps = (1e-2, 1e-3)
    errs_plus, errs_minus = [], []
    for gap in gaps:
        span = 2.0 * np.pi - gap
        arc = JordanArc(
            z=lambda s, sp=span: np.exp(1j * (gap / 2.0 + sp * np.asarray(s))),
            dz=lambda s, sp=span: 1j * sp * np.exp(
                1j * (gap / 2.0 + sp * np.asarray(s))))
        grid = gauss_panel_grid(48, 12)
        plus, minus = plemelj_limits(ArcDensity(f.func), arc, grid, z0)
        errs_plus.append(abs(plus.value - closed_plus))
        errs_minus.append(abs(minus.value))
    assert errs_plus[1] < errs_plus[0]
    assert errs_minus[1] < errs_minus[0]
    assert errs_plus[1] < 1e-3 and errs_minus[1] < 1e-3


def test_analyticity_off_the_arc(chord):
    # discrete Cauchy-Riemann residual: two fourth-order difference
    # estimates of f'(z), one along the real axis and one along the
    # imaginary axis, must agree for an analytic function
    arc, grid = chord
    g = ArcDensity(lambda t: 1.0 - t ** 2)
    h = 1e-3
    stencil = np.array([-2, -1, 1, 2])
    coef = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    for z in (1.0 + 1.0j, -2.0 + 0.5j, 0.3 - 1.5j):
        fx = sum(c * arc_cauchy_integral(g, arc, grid, z + k * h)
                 for k, c in zip(stencil, coef)) / h
        fy = sum(c * arc_cauchy_integral(g, arc, grid, z + 1j * k * h)
                 for k, c in zip(stencil, coef)) / (1j * h)
        assert abs(fx - fy) < 1e-8


class TestPoincareBertrand:
    def test_constant_density(self, chord):
        arc, grid = chord
        res = poincare_bertrand_residual(
            lambda t, tp: np.ones_like(np.asarray(t, dtype=complex)),
            arc, grid, 0.0 + 0.0j)
        assert res < 1e-6

    def test_bilinear_density(self, chord):
        arc, grid = chord
        res = poincare_bertrand_residual(lambda t, tp: np.asarray(t) * tp,
                                         arc, grid, 0.2 + 0.0j)
        assert res < 1e-6

    def test_zero_density(self, chord):
        arc, grid = chord
        res = poincare_bertrand_residual(
            lambda t, tp: np.zeros_like(np.asarray(t, dtype=complex)),
            arc, grid, 0.1 + 0.0j, cross_check=False)
        assert res == 0.0

    def test_two_grid_levels_agree(self, chord):
        arc, _ = chord
        f2 = lambda t, tp: np.asarray(t) ** 2 + np.asarray(tp) ** 2
        coarse = poincare_bertrand_residual(f2, arc, gauss_panel_grid(16, 12),
                                            0.2 + 0.0j, cross_check=False)
        fine = poincare_bertrand_residual(f2, arc, gauss_panel_grid(28, 12),
                                          0.2 + 0.0j, cross_check=False)
        assert coarse < 1e-5 and fine < 1e-5

    def test_off_arc_point_rejected(self, chord):
        arc, grid = chord
        with pytest.raises(DomainError):
            poincare_bertrand_residual(
                lambda t, tp: np.ones_like(np.asarray(t)), arc, grid, 2j)

    def test_order_without_n_panels_sets_the_panels(self, chord):
        # without n_panels the grid gives the node count: grid.n // order
        # panels of the caller's order (24 panels of order 12 by default)
        arc, grid = chord
        f2 = lambda t, tp: np.asarray(t) * tp + np.exp(np.asarray(t) + 0 * tp)
        res = {order: poincare_bertrand_residual(f2, arc, grid, 0.2 + 0.0j,
                                                 order=order)
               for order in (8, 12, 20)}
        assert res[8] != res[20]
        for order, r in res.items():
            assert r == poincare_bertrand_residual(
                f2, arc, grid, 0.2 + 0.0j, n_panels=grid.n // order,
                order=order)
        assert poincare_bertrand_residual(f2, arc, grid, 0.2 + 0.0j) == res[12]


# ---------------------------------------------------------------------------
# the inner principal values as one blocked matrix, against one row per block

HALF_CIRCLE = JordanArc(
    z=lambda s: np.exp(1j * np.pi * (1.0 - np.asarray(s))),
    dz=lambda s: -1j * np.pi * np.exp(1j * np.pi * (1.0 - np.asarray(s))))

PB_DENSITIES = {
    "1": lambda t, tp: np.ones_like(np.asarray(t, dtype=complex)),
    "t*t'": lambda t, tp: np.asarray(t) * tp,
    "t^2+t'^2": lambda t, tp: np.asarray(t) ** 2 + np.asarray(tp) ** 2,
}


def pb_residual_per_node(f2, arc, x0, n_panels, monkeypatch):
    """The residual with every inner principal value taken in a row block
    of its own."""
    with monkeypatch.context() as m:
        m.setattr(geometry, "_BLOCK_ENTRIES", 1)
        return poincare_bertrand_residual(f2, arc,
                                          gauss_panel_grid(n_panels, 12), x0,
                                          cross_check=False)


# every density meets every x0 once; the grid alternates between 16 and 24
# panels.  x0 = -0.94 is s0 = 0.03, next to the arc end.
@pytest.mark.parametrize("x0", [0.2, -0.37, -0.94])
@pytest.mark.parametrize("name", list(PB_DENSITIES))
def test_pb_matrix_matches_per_node_loop(name, x0, monkeypatch):
    n_panels = (16, 24)[(list(PB_DENSITIES).index(name)
                         + [0.2, -0.37, -0.94].index(x0)) % 2]
    f2 = PB_DENSITIES[name]
    arc = segment(-1.0, 1.0)
    got = poincare_bertrand_residual(f2, arc, gauss_panel_grid(n_panels, 12),
                                     complex(x0), cross_check=False)
    ref = pb_residual_per_node(f2, arc, complex(x0), n_panels, monkeypatch)
    assert abs(got - ref) <= 1e-13
    assert got <= 1e-10


def test_pb_matrix_matches_per_node_loop_on_curved_arc(monkeypatch):
    f2 = PB_DENSITIES["t*t'"]
    x0 = complex(np.exp(0.6j * np.pi))                  # s0 = 0.4
    got = poincare_bertrand_residual(f2, HALF_CIRCLE, gauss_panel_grid(16, 12),
                                     x0, cross_check=False)
    ref = pb_residual_per_node(f2, HALF_CIRCLE, x0, 16, monkeypatch)
    assert abs(got - ref) <= 1e-13


PB_POINTS = [(segment(-1.0, 1.0), complex(x0)) for x0 in (0.2, -0.37, 0.0,
                                                            -0.94)] \
    + [(HALF_CIRCLE, complex(HALF_CIRCLE.z(np.array([s0]))[0]))
       for s0 in (0.4, 0.03)]
PB_IDS = ["segment-0.2", "segment--0.37", "segment-0", "segment--0.94",
          "half-circle-0.4", "half-circle-0.03"]


@pytest.mark.parametrize("arc, x0", PB_POINTS, ids=PB_IDS)
def test_pb_residual_bounds(arc, x0):
    # x0 = 0 is s0 = 0.5, a panel break at 16 and 24 panels, and s0 = 0.03
    # lies next to an arc end
    for f2 in PB_DENSITIES.values():
        for n_panels, bound in ((24, 1e-11), (16, 1e-10)):
            assert poincare_bertrand_residual(
                f2, arc, gauss_panel_grid(n_panels, 12), x0,
                cross_check=False) <= bound
        for order in (8, 12, 20):
            res = poincare_bertrand_residual(
                f2, arc, gauss_panel_grid(8, order), x0, n_panels=8,
                order=order, cross_check=False)
            assert np.isfinite(res) and res <= 1e-8


@pytest.mark.parametrize("n_panels", [16, 24])
def test_pb_residual_is_steady_in_the_last_bits_of_s0(n_panels):
    # the outer sigma panels are split at sigma(s0) and not graded, so no
    # outer node crowds s0 and moving s0 by up to 3 ulps moves the residual
    # by rounding only (panels graded toward s0 spread it by ~1e-7)
    arc, s0 = segment(-1.0, 1.0), 0.03                   # x0 = -0.94
    below, above = [s0], [s0]
    for _ in range(3):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 1.0))
    steps = below + above[1:]
    for f2 in PB_DENSITIES.values():
        res = [plemelj._pb_residual_once(f2, arc, s, arc.z(np.array([s]))[0],
                                         n_panels, 12) for s in steps]
        assert max(res) - min(res) <= 1e-10


def test_pb_calls_f2_per_row_block_not_per_node(monkeypatch):
    calls = []

    def f2(t, tp):
        calls.append(1)
        return np.asarray(t) * tp

    arc = segment(-1.0, 1.0)

    def count(n_panels):
        calls.clear()
        poincare_bertrand_residual(f2, arc, gauss_panel_grid(n_panels, 12),
                                   0.2 + 0.0j, cross_check=False)
        return len(calls)

    # one call per row block and density (25 at 28 panels)
    assert count(28) <= 100
    # with every matrix in one block the count no longer depends on the
    # grid: I, -B and A once each, and f2(x0, x0)
    monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 1 << 30)
    assert count(16) == count(28) == 4


def test_pb_cross_check_warns_on_slow_convergence():
    # a pole 0.02 off the arc: the two grid levels disagree by more than 10x
    f2 = lambda t, tp: 1.0 / (np.asarray(t) - (0.5 + 0.02j)) \
        + 0.0 * np.asarray(tp)
    with pytest.warns(AccuracyWarning, match="convergence is slow"):
        poincare_bertrand_residual(f2, segment(-1.0, 1.0),
                                   gauss_panel_grid(16, 12), 0.2 + 0.0j)


@pytest.mark.parametrize("cross_check", [True, False])
def test_pb_non_finite_level_raises(cross_check):
    # NaN never compares greater, so a NaN level would pass the
    # cross-check's ratio test unflagged
    f2 = lambda t, tp: np.where(np.real(t) > 0.5, np.nan, 1.0) \
        + 0.0 * np.asarray(tp)
    with pytest.raises(NonFiniteError):
        poincare_bertrand_residual(f2, segment(-1.0, 1.0),
                                   gauss_panel_grid(16, 12), 0.2 + 0.0j,
                                   cross_check=cross_check)


def test_scalar_densities_broadcast():
    # a density that ignores its arguments may return a scalar
    arc = segment(-1.0, 1.0)
    assert poincare_bertrand_residual(lambda t, tp: 1.0, arc,
                                      gauss_panel_grid(16, 12), 0.2 + 0.0j,
                                      cross_check=False) <= 1e-10
    x = np.array([0.0, 0.3])
    assert np.max(np.abs(airfoil._smooth_chord_pv(lambda t: 1.0, x)
                         - np.log((1.0 - x) / (1.0 + x)))) <= 1e-13


def test_pb_memory_bounded():
    # rows go a block at a time: a cross-checked call on 24 panels peaks
    # below 1.8 MB of Python-visible allocations
    arc, grid = segment(-1.0, 1.0), gauss_panel_grid(24, 12)
    f2 = PB_DENSITIES["t*t'"]
    poincare_bertrand_residual(f2, arc, grid, 0.2 + 0.0j)
    tracemalloc.start()
    try:
        poincare_bertrand_residual(f2, arc, grid, 0.2 + 0.0j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8e6


# ---------------------------------------------------------------------------
# the fixed-panel evaluator against closed forms, on breaks, nodes and ends


def closed_form_pv(coef, arc, s0):
    """P.V. int_L g(t)/(t - t0) dt for the polynomial g = sum coef[k] t^k on
    the segment or the half circle from -1 to 1, t0 = z(s0): g(t0) times
    the principal log, plus the polynomial int (g(t) - g(t0))/(t - t0) dt,
    whose integral does not depend on the path."""
    t0 = complex(arc.z(np.array([s0]))[0])
    tangent = complex(arc.dz(np.array([s0]))[0])
    tangent /= abs(tangent)
    log = np.log(abs(1.0 - t0) / abs(-1.0 - t0)) + 1j * (
        np.angle((1.0 - t0) / tangent) + np.angle(-tangent / (-1.0 - t0)))
    g0 = sum(c * t0 ** k for k, c in enumerate(coef))
    # (t^k - t0^k)/(t - t0) = sum_j t^j t0^(k-1-j); int_-1^1 t^j dt
    rest = sum(c * t0 ** (k - 1 - j) * (2.0 / (j + 1) if j % 2 == 0 else 0.0)
               for k, c in enumerate(coef) for j in range(k))
    return g0 * log + rest


def special_targets(n_panels, order):
    """Parameters on breaks, on nodes, next to the arc ends, and between."""
    nodes = gauss_panel_grid(n_panels, order).nodes
    return np.concatenate([np.arange(1, n_panels) / n_panels, nodes[5::17],
                           [0.03, 0.97, 0.001, 0.999, 0.4137, 1.0 / 3.0]])


@pytest.mark.parametrize("order", [8, 12, 20])
@pytest.mark.parametrize("arc", [segment(-1.0, 1.0), HALF_CIRCLE],
                         ids=["segment", "half-circle"])
def test_arc_pv_rows_match_closed_forms(arc, order):
    coefs = ([1.0], [0.3, -1.2, 0.7 + 0.2j, 0.5], [0, 0, 0, 0, 0, 1.0])
    for n_panels in (8, 16, 24, 37):
        smp = geometry._panel_samples(arc, n_panels, order)
        s0 = special_targets(n_panels, order)
        t0 = arc.z(s0)
        got = plemelj._arc_pv_rows(
            [lambda r, c=c: sum(ck * smp.zs ** k for k, ck in enumerate(c))
             for c in coefs], smp, order, s0, t0)
        for c, pv in zip(coefs, got):
            ref = np.array([closed_form_pv(c, arc, s) for s in s0])
            assert np.all(np.isfinite(pv))
            assert np.max(np.abs(pv - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_panels", [24, 37])
def test_arc_pv_is_steady_in_the_last_bits_of_s0(n_panels):
    # t - t0 is formed in the arc's own coordinate, never against s - s0,
    # so moving s0 by up to 3 ulps moves a principal value by rounding only
    g = lambda t: t ** 2 + 0.5 * np.exp(t)
    smp = geometry._panel_samples(HALF_CIRCLE, n_panels, 12)
    vals = g(smp.zs)
    for s0 in (1.0 / 3.0, 0.4137, 0.5, 0.61):
        steps = [s0]
        for direction in (0.0, 1.0):
            s = s0
            for _ in range(3):
                s = np.nextafter(s, direction)
                steps.append(s)
        steps = np.array(steps)
        pv, = plemelj._arc_pv_rows((lambda r: vals,), smp, 12, steps,
                                   HALF_CIRCLE.z(steps))
        assert np.max(np.abs(pv - pv[0])) <= 1e-14 * abs(pv[0])
        plus = [plemelj_limits(g, CURVED, smp.grid, complex(t))[0].value
                for t in HALF_CIRCLE.z(steps)]
        assert np.max(np.abs(np.array(plus) - plus[0])) <= 1e-14 * abs(plus[0])


def test_targets_on_breaks_and_nodes():
    # x0 = 0 is s0 = 0.5, a break at every even panel count; a target on a
    # Gauss node meets a zero in the plain rule's kernel
    arc = segment(-1.0, 1.0)
    g = ArcDensity(lambda t: 1.0 - t ** 2)
    for grid in (gauss_panel_grid(24, 12), gauss_panel_grid(16, 8)):
        node = complex(arc.z(grid.nodes[40:41])[0])
        for x0 in (0.0 + 0.0j, node):
            plus, minus = plemelj_limits(g, arc, grid, x0)
            x = x0.real
            pv = -2.0 * x + (1.0 - x ** 2) * np.log((1.0 - x) / (1.0 + x))
            assert abs(plus.value + minus.value - pv / (1j * np.pi)) < 1e-13
            assert abs(plus.value - minus.value - (1.0 - x ** 2)) < 1e-15
    for n_panels in (16, 24):
        for f2 in PB_DENSITIES.values():
            assert poincare_bertrand_residual(
                f2, arc, gauss_panel_grid(n_panels, 12), 0.0 + 0.0j) <= 1e-10


def test_smooth_chord_pv_at_midchord():
    # criterion 11's chord point x = 0 sits on a panel break of the 24
    # chord panels
    psi = lambda x: 1.0 - 0.3 * np.asarray(x) + np.asarray(x) ** 2
    x = np.array([0.0, -0.5, 0.3])
    got = airfoil._smooth_chord_pv(psi, x)
    ref = np.array([closed_form_pv([1.0, -0.3, 1.0], segment(-1.0, 1.0),
                                   0.5 * (xi + 1.0)).real for xi in x])
    assert np.max(np.abs(got - ref)) <= 1e-13


# ---------------------------------------------------------------------------
# several densities in one sweep of _arc_pv_rows


# rows at Kress-mapped nodes, crowding both arc ends, then s0 = 0.03; and
# one target shared by every row
@pytest.mark.parametrize("n_panels", [16, 24, 37])
@pytest.mark.parametrize("arc", [segment(-1.0, 1.0), HALF_CIRCLE],
                         ids=["segment", "half-circle"])
def test_arc_pv_rows_densities_match_single_density_calls(arc, n_panels):
    f2 = lambda t, tp: np.asarray(t) * (np.asarray(t) + tp) + 1.0 / (tp - 3.0)
    s0 = 0.03
    sig = gauss_panel_grid(n_panels + 1, 12).nodes
    sp = np.append(sig ** 4 / (sig ** 4 + (1.0 - sig) ** 4), s0)
    tp = arc.z(sp)
    x0c = arc.z(np.array([s0]))[0]
    smp = geometry._panel_samples(arc, n_panels, 12)
    zs = smp.zs
    per_row = (lambda r: f2(zs, tp[r, None]), lambda r: f2(tp[r, None], zs),
               lambda r: np.exp(zs))
    shared = (lambda r: f2(tp[r, None], zs), lambda r: f2(zs, tp[r, None]))
    for densities, s_rows, t_rows in ((per_row, sp, tp), (shared, s0, x0c)):
        together = plemelj._arc_pv_rows(densities, smp, 12, s_rows, t_rows,
                                        sp.size)
        apart = [plemelj._arc_pv_rows((d,), smp, 12, s_rows, t_rows,
                                      sp.size)[0] for d in densities]
        assert len(together) == len(densities)
        for got, ref in zip(together, apart):
            assert got.shape == sp.shape
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def counted_arc(arc, calls):
    def counted(name, fn):
        def wrapper(s):
            calls[name, np.size(s)] += 1
            return fn(s)
        return wrapper
    return JordanArc(z=counted("z", arc.z), dz=counted("dz", arc.dz),
                     d2z=None if arc.d2z is None else counted("d2z", arc.d2z))


def test_pb_level_samples_the_inner_rows_once():
    # z and z' at the outer nodes and once at the inner panels' nodes, and
    # z at the panel ends once per evaluator call (I and -B together, then
    # A); however many rows there are, nothing is sampled per row
    calls = Counter()
    f2 = PB_DENSITIES["t*t'"]
    s0, n_panels = 0.4, 24
    x0c = complex(HALF_CIRCLE.z(np.array([s0]))[0])
    plemelj._pb_residual_once(f2, counted_arc(HALF_CIRCLE, calls), s0, x0c,
                              n_panels, 12)
    # the outer panels split at sigma(0.4) = 0.4^(1/4)/(0.4^(1/4) + 0.6^(1/4))
    # = 0.4746...: ceil(24 * 0.4746) = 12 on the left, 13 on the right
    outer, inner = (12 + 13) * 12, n_panels * 12
    assert calls == Counter({("z", outer): 1, ("dz", outer): 1,
                             ("z", inner): 1, ("dz", inner): 1,
                             ("z", n_panels + 1): 2})


# ---------------------------------------------------------------------------
# arc calls locate from their own grid samples

CURVED = JordanArc(z=HALF_CIRCLE.z, dz=HALF_CIRCLE.dz,
                   d2z=lambda s: -np.pi ** 2 * HALF_CIRCLE.z(s))


def test_arc_calls_run_no_locate_or_length_sweep():
    # each call samples z and z' once at the grid nodes (plemelj_limits
    # also z at its 21 panel ends); locating an on-arc or near-zone target
    # adds only scalar Newton steps
    grid = gauss_panel_grid(20, 12)
    g = ArcDensity(lambda t: t ** 2)
    on, near = np.exp(1j * np.pi / 3), 1.001 * np.exp(0.4j)
    for call in (lambda arc: plemelj_limits(g, arc, grid, on),
                 lambda arc: arc_cauchy_integral(g, arc, grid, 2j),
                 lambda arc: arc_cauchy_integral(g, arc, grid, near),
                 lambda arc: reconstruct_from_jump(g, arc, grid, -0.5 + 0.1j)):
        calls = Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            call(counted_arc(CURVED, calls))
        assert {size for _, size in calls} <= {grid.n, 21, 1}
        assert calls["dz", grid.n] == 1
    with pytest.warns(AccuracyWarning):
        arc_cauchy_integral(g, CURVED, grid, near)


def test_pb_runs_no_locate_or_length_sweep():
    # x0 is located by Newton from the nearest node of the caller's grid,
    # sampled once; the rest samples the outer panels and the panel ends
    grid = gauss_panel_grid(24, 12)
    x0 = complex(CURVED.z(np.array([0.4137]))[0])        # between nodes
    calls = Counter()
    arc = counted_arc(CURVED, calls)
    res = poincare_bertrand_residual(PB_DENSITIES["t*t'"], arc, grid, x0,
                                     cross_check=False)
    assert calls["z", grid.n] == calls["dz", grid.n] == 1
    # the outer nodes, 25 panels of 12, and the 24 + 1 inner panel ends
    assert {size for _, size in calls} == {grid.n, 1, 300, 25}
    assert res < 1e-5
    with pytest.raises(DomainError):
        poincare_bertrand_residual(PB_DENSITIES["t*t'"], arc, grid,
                                   x0 + 1e-6, cross_check=False)


def test_seeded_arc_locate_keeps_off_arc_errors():
    # Newton from the nearest node ends on some arc point, never closer
    # than the arc is, so a point off the arc is still a DomainError
    grid = gauss_panel_grid(24, 12)
    g = ArcDensity(lambda t: t ** 2)
    on = complex(CURVED.z(np.array([0.4137]))[0])     # between nodes
    for z0 in (1.001 * on, on + 1e-6, 0.3j, 2.0):
        with pytest.raises(DomainError):
            plemelj_limits(g, CURVED, grid, z0)
    plus, minus = plemelj_limits(g, CURVED, grid, on)
    assert plus.value - minus.value == pytest.approx(on ** 2, abs=1e-9)
    with pytest.raises(DomainError):
        arc_cauchy_integral(g, CURVED, grid, on)


def test_one_on_arc_band_for_limits_and_field():
    # a point 1e-10 off the arc is on it for plemelj_limits, so the off-arc
    # routines refuse it rather than return a near-singular value
    grid = gauss_panel_grid(24, 12)
    g = ArcDensity(lambda t: t ** 2)
    off = complex(CURVED.z(np.array([0.4137]))[0]) * (1.0 + 1e-10)
    plus, minus = plemelj_limits(g, CURVED, grid, off)
    assert plus.value - minus.value == pytest.approx(off ** 2, abs=1e-9)
    for fn in (arc_cauchy_integral, reconstruct_from_jump):
        with pytest.raises(DomainError):
            fn(g, CURVED, grid, off)


@pytest.mark.parametrize("z", [np.array([2j]), np.array([2j, 3.0 + 1j])])
def test_arc_integral_takes_one_field_point(chord, z):
    arc, grid = chord
    with pytest.raises(TypeError):
        arc_cauchy_integral(ArcDensity(lambda t: t), arc, grid, z)


def test_seeded_arc_locate_keeps_the_endpoint_margin():
    grid = gauss_panel_grid(24, 12)
    g = ArcDensity(lambda t: t ** 2)
    for arc in (segment(-1.0, 1.0), CURVED):
        for s in (0.0, 0.01, 0.995, 1.0):
            with pytest.raises(EndpointError):
                plemelj_limits(g, arc, grid, complex(arc.z(np.array([s]))[0]))


# ---------------------------------------------------------------------------
# the three off-arc routes share one evaluator: its warning and its check


GRID24 = gauss_panel_grid(24, 12)
ARC_ROUTES = {
    "arc_cauchy_integral": lambda z: arc_cauchy_integral(
        lambda t: 1.0 - t ** 2, segment(-1.0, 1.0), GRID24, z),
    "reconstruct_from_jump": lambda z: reconstruct_from_jump(
        lambda t: 1.0 - t ** 2, segment(-1.0, 1.0), GRID24, z),
    "sheet_velocity_field": lambda z: sheet_velocity_field(
        None, SheetDensity(smooth=lambda x: 1.0 - np.asarray(x) ** 2), z),
}


@pytest.mark.parametrize("route", list(ARC_ROUTES))
def test_near_zone_warning_names_the_caller(route):
    with pytest.warns(AccuracyWarning) as record:
        ARC_ROUTES[route](0.3 + 1e-4j)
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("route", list(ARC_ROUTES))
def test_non_finite_field_points_rejected(route):
    for z in (complex("nan"), complex("inf"), complex(0.2, -np.inf)):
        with pytest.raises(DomainError, match="non-finite"):
            ARC_ROUTES[route](z)
    points = np.array([2j, complex("nan"), 1.5 + 0.5j])
    if route == "sheet_velocity_field":
        with pytest.raises(DomainError, match="non-finite"):
            ARC_ROUTES[route](points)
        with pytest.raises(DomainError, match="non-finite"):
            sheet_velocity_field(None, None, points)
    else:       # one field point only
        with pytest.raises(TypeError):
            ARC_ROUTES[route](points)
