import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from cauchykit import airfoil, geometry, plemelj
from cauchykit import (AccuracyWarning, ArcDensity, BoundaryFunction,
                       DomainError, EndpointError, JordanArc, NonFiniteError,
                       PeriodicFunction, SheetDensity, arc_cauchy_integral,
                       build_unit_circle, circle, ellipse,
                       finite_hilbert_inverse, finite_hilbert_transform,
                       gauss_panel_grid, hilbert_circular, one_sided_limit,
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
    inner = geometry._sample(arc, gauss_panel_grid(n_panels, 12))
    for f2 in PB_DENSITIES.values():
        res = [plemelj._pb_residual_once(f2, arc, s, arc.z(np.array([s]))[0],
                                         inner) for s in steps]
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

    # one call per row block for I and one for -B and A, which read the
    # same samples (21 at 28 panels)
    assert count(28) <= 100
    # with every matrix in one block the count no longer depends on the
    # grid: I once, -B and A together once, and f2(x0, x0)
    monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 1 << 30)
    assert count(16) == count(28) == 3


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
        smp = geometry._sample(arc, gauss_panel_grid(n_panels, order))
        s0 = special_targets(n_panels, order)
        t0 = arc.z(s0)
        for c in coefs:
            pv = plemelj._arc_pv_rows(sum(ck * smp.zs ** k for k, ck in
                                          enumerate(c)), smp, s0, t0)
            ref = np.array([closed_form_pv(c, arc, s) for s in s0])
            assert np.all(np.isfinite(pv))
            assert np.max(np.abs(pv - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_panels", [24, 37])
def test_arc_pv_is_steady_in_the_last_bits_of_s0(n_panels):
    # t - t0 is formed in the arc's own coordinate, never against s - s0,
    # so moving s0 by up to 3 ulps moves a principal value by rounding only
    g = lambda t: t ** 2 + 0.5 * np.exp(t)
    smp = geometry._sample(HALF_CIRCLE, gauss_panel_grid(n_panels, 12))
    vals = g(smp.zs)
    for s0 in (1.0 / 3.0, 0.4137, 0.5, 0.61):
        steps = [s0]
        for direction in (0.0, 1.0):
            s = s0
            for _ in range(3):
                s = np.nextafter(s, direction)
                steps.append(s)
        steps = np.array(steps)
        pv = plemelj._arc_pv_rows(vals, smp, steps, HALF_CIRCLE.z(steps))
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


def test_arc_pv_rows_read_graded_panels_from_the_grid():
    # panels halved six times toward both ends; targets on every inner
    # break, on nodes, and next to the ends
    arc = segment(-1.0, 1.0)
    grid = panels_from_breakpoints(graded_breaks(0.0, 1.0, 12, 6), 12)
    smp = geometry._sample(arc, grid)
    s0 = np.concatenate((grid.breaks[1:-1], grid.nodes[5::17],
                         [0.4137, 0.03, 0.97, 0.001, 0.999]))
    pv = plemelj._arc_pv_rows(1.0 - smp.zs ** 2, smp, s0, arc.z(s0))
    x = 2.0 * s0 - 1.0
    ref = -2.0 * x + (1.0 - x ** 2) * np.log((1.0 - x) / (1.0 + x))
    assert np.max(np.abs(pv - ref)) <= 1e-13


@pytest.mark.parametrize("contour", [circle(), ellipse(1.0, 0.6)],
                         ids=["circle", "ellipse"])
def test_arc_pv_rows_on_closed_contour_panels(contour):
    # f is analytic inside, so P.V. of f(t)/(t - t0) dt is i*pi*f(t0): at
    # s = 0 and next to it, where the near panels wrap, on every break, and
    # on and next to every node; the grid spans [0, 2*pi) or [-pi, pi), and
    # s0 lies in [0, 2*pi) either way
    f = lambda t: 1.0 / (t - 2.0) + t ** 3
    offsets = np.array([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
    for a in (0.0, -np.pi):
        grid = gauss_panel_grid(16, 16, a=a, b=a + 2.0 * np.pi)
        smp = geometry._sample(contour, grid)
        s0 = np.concatenate((np.linspace(0.5, 2.0 * np.pi - 0.5, 37),
                             [0.0, 0.01, 2.0 * np.pi - 0.01],
                             grid.breaks % (2.0 * np.pi),
                             ((grid.nodes[:, None] + offsets).ravel()
                              % (2.0 * np.pi))))
        t0 = contour.z(s0)
        pv = plemelj._arc_pv_rows(f(smp.zs), smp, s0, t0)
        assert np.max(np.abs(pv - 1j * np.pi * f(t0))) <= 1e-13
        for s, t in zip(s0[37:40], t0[37:40]):      # and one target alone
            one = plemelj._arc_pv_rows(f(smp.zs), smp, s, t)
            assert abs(one[0] - 1j * np.pi * f(t)) <= 1e-13


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
    # z at the panel ends once for the panel record that both evaluator
    # calls (I and -B together, then A) read; however many rows there are,
    # nothing is sampled per row
    calls = Counter()
    f2 = PB_DENSITIES["t*t'"]
    s0, n_panels = 0.4, 24
    x0c = complex(HALF_CIRCLE.z(np.array([s0]))[0])
    arc = counted_arc(HALF_CIRCLE, calls)
    plemelj._pb_residual_once(f2, arc, s0, x0c, geometry._sample(
        arc, gauss_panel_grid(n_panels, 12)))
    # the outer panels split at sigma(0.4) = 0.4^(1/4)/(0.4^(1/4) + 0.6^(1/4))
    # = 0.4746...: ceil(24 * 0.4746) = 12 on the left, 13 on the right
    outer, inner = (12 + 13) * 12, n_panels * 12
    assert calls == Counter({("z", outer): 1, ("dz", outer): 1,
                             ("z", inner): 1, ("dz", inner): 1,
                             ("z", n_panels + 1): 1})


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


# ---------------------------------------------------------------------------
# the principal values' panels are shared for the last two arcs


def limits_on(arc, s=0.4137):
    z0 = complex(arc.z(np.array([s]))[0])
    return plemelj_limits(ArcDensity(lambda t: t ** 2), arc,
                          gauss_panel_grid(24, 12), z0)


def test_two_arcs_keep_their_panels_and_a_third_evicts_the_first():
    # z and z' at the 288 panel nodes and z at the 25 breaks, once per arc
    # while it is among the last two; locating z0 adds scalar Newton steps
    counts = [Counter() for _ in range(3)]
    arcs = [counted_arc(CURVED, c) for c in counts]
    sampled = Counter({("z", 288): 1, ("dz", 288): 1, ("z", 25): 1})

    def panel_calls(c):
        return Counter({key: k for key, k in c.items() if key[1] > 1})
    limits_on(arcs[0])
    limits_on(arcs[0], 0.7)
    assert panel_calls(counts[0]) == sampled
    limits_on(arcs[1])
    limits_on(arcs[0])
    limits_on(arcs[1])
    assert panel_calls(counts[0]) == panel_calls(counts[1]) == sampled
    limits_on(arcs[2])          # evicts arcs[0], the least recent
    limits_on(arcs[1])
    limits_on(arcs[0])
    assert panel_calls(counts[0]) == sampled + sampled
    assert panel_calls(counts[1]) == panel_calls(counts[2]) == sampled


def test_first_and_repeat_calls_are_bit_identical():
    # a fresh arc misses the memo, its repeat hits it: the same bits, as a
    # caller that fingerprints repeated passes requires
    f2, grid = PB_DENSITIES["t*t'"], gauss_panel_grid(24, 12)
    for make in (lambda: counted_arc(CURVED, Counter()),
                 lambda: segment(-1.0, 1.0 + 0.5j)):
        arc = make()
        first = [limits_on(arc, s) for s in (0.3, 0.4137, 0.8)]
        again = [limits_on(arc, s) for s in (0.3, 0.4137, 0.8)]
        assert first == again
        arc = make()
        x0 = complex(arc.z(np.array([0.4]))[0])
        pb = [poincare_bertrand_residual(f2, arc, grid, x0)
              for _ in range(2)]
        assert pb[0] == pb[1]


def test_unhashable_arc_is_sampled_per_call():
    class Unhashable:
        __hash__ = None

        def __init__(self, arc):
            self.z, self.dz, self.d2z = arc.z, arc.dz, arc.d2z
    calls = Counter()
    arc = Unhashable(counted_arc(CURVED, calls))
    first, again = limits_on(arc), limits_on(arc)
    assert first == again
    assert calls["dz", 288] == 2


def test_f2_writing_into_its_nodes_raises_and_leaves_the_panels():
    # the inner panels' nodes are shared, so they are read-only: an f2 that
    # writes into them raises, and the next call reads the arc unchanged
    arc, grid = segment(-1.0, 1.0 + 0.5j), gauss_panel_grid(24, 12)
    f2, x0 = PB_DENSITIES["t*t'"], complex(0.2 + 0.3j)
    want = poincare_bertrand_residual(f2, arc, grid, x0)

    def writes(t, tp):
        np.asarray(t)[...] = 0.0
        return f2(t, tp)
    with pytest.raises(ValueError, match="read-only"):
        poincare_bertrand_residual(writes, arc, grid, x0)
    assert poincare_bertrand_residual(f2, arc, grid, x0) == want
    assert limits_on(segment(-1.0, 1.0 + 0.5j)) == limits_on(arc)


def test_alternating_plain_and_counted_rounds_sample_alike():
    # a round of calls on two plain arcs between rounds on counting copies
    # of them (as the bench alternates untraced and traced passes) leaves
    # none of the counting arcs' panels behind, so every counted round
    # samples the same; a memo of three or more entries would not
    th0, span = 0.3, 2.0
    circular = JordanArc(z=lambda s: np.exp(1j * (th0 + span * np.asarray(
        s, dtype=float))), dz=lambda s: 1j * span * np.exp(1j * (
            th0 + span * np.asarray(s, dtype=float))))
    plain = [segment(-1.0, 1.0), circular]
    calls = Counter()
    counted = [counted_arc(arc, calls) for arc in plain]
    grid, g = gauss_panel_grid(24, 12), ArcDensity(lambda t: 1.0 + t * t)
    f2 = PB_DENSITIES["t*t'"]

    def round_on(arcs):
        for s in (0.2, 0.45, 0.7):
            for arc in arcs:
                plemelj_limits(g, arc, grid, complex(arc.z(np.array([s]))[0]))
        poincare_bertrand_residual(f2, arcs[0], grid, complex(arcs[0].z(
            np.array([0.6]))[0]))
    rounds = []
    for _ in range(3):
        round_on(plain)
        calls.clear()
        round_on(counted)
        rounds.append(+calls)
    assert rounds[0] == rounds[1] == rounds[2]
    assert rounds[0]["dz", 288] == 2


def test_seeded_arc_locate_keeps_off_arc_errors():
    # Newton from the nearest node ends on some arc point, never closer
    # than the arc is, so a point off the arc is still a DomainError
    grid = gauss_panel_grid(24, 12)
    g = ArcDensity(lambda t: t ** 2)
    on = complex(CURVED.z(np.array([0.4137]))[0])     # between nodes
    for z0 in (1.001 * on, on + 1e-6, 0.3j, 2.0):
        with pytest.raises(DomainError):
            plemelj_limits(g, CURVED, grid, z0)
    # at the centre every arc point is as far: |z(s)|^2 is flat, so the
    # second derivative Newton reads (exact d2z) is not positive and it
    # stops at its seed node, 1 from z0
    with pytest.raises(DomainError, match="is 1 from the curve"):
        plemelj_limits(g, CURVED, grid, 0j)
    # where |z(s) - point|^2 is concave, Newton stays at its seed
    assert geometry._newton_locate(CURVED, 0.5, 0.1)[0] == 0.1
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


@pytest.mark.parametrize("a", [1.0, 0.01])
def test_on_arc_band_scales_with_the_arc(a):
    # the band is 1e-8 of the arc's length, as on a closed contour: the
    # chord and a chord a hundred times shorter locate (or refuse as off the
    # arc) the same offsets relative to their length, in both directions
    arc, grid = segment(-a, a), gauss_panel_grid(24, 12)
    g = ArcDensity(lambda t: t ** 2)
    z = complex(arc.z(np.array([0.35]))[0])
    for rel in (0.5e-8, -0.5e-8):
        plus, minus = plemelj_limits(g, arc, grid, z + 2j * a * rel)
        assert plus.value - minus.value == pytest.approx(z ** 2, abs=1e-12)
        with pytest.raises(DomainError):
            arc_cauchy_integral(g, arc, grid, z + 2j * a * rel)
    for rel in (2e-8, -2e-8):
        with pytest.raises(DomainError):
            plemelj_limits(g, arc, grid, z + 2j * a * rel)
        with pytest.warns(AccuracyWarning):
            assert np.isfinite(arc_cauchy_integral(g, arc, grid,
                                                   z + 2j * a * rel))


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


# ---------------------------------------------------------------------------
# a density that is not finite at a node raises, on every arc, chord and
# circular route


def nan_beyond(t):
    t = np.asarray(t)
    return np.where(np.real(t) > 0.9, np.nan, 1.0 + t)


NON_FINITE_ROUTES = {
    "arc_cauchy_integral": lambda arc, grid: arc_cauchy_integral(
        nan_beyond, arc, grid, 2j),
    "reconstruct_from_jump": lambda arc, grid: reconstruct_from_jump(
        nan_beyond, arc, grid, 2j),
    "plemelj_limits": lambda arc, grid: plemelj_limits(
        nan_beyond, arc, grid, 0.2 + 0j),
    "sheet_velocity_field": lambda arc, grid: sheet_velocity_field(
        SheetDensity(smooth=nan_beyond), None, 2j, arc=arc, grid=grid),
    "total_strength": lambda arc, grid: SheetDensity(
        smooth=nan_beyond).total_strength(),
    "finite_hilbert_transform-weight": lambda arc, grid:
        finite_hilbert_transform(SheetDensity(weight_coef=nan_beyond), 0.3),
    "finite_hilbert_transform-smooth": lambda arc, grid:
        finite_hilbert_transform(SheetDensity(smooth=nan_beyond), 0.3),
    "finite_hilbert_inverse": lambda arc, grid: finite_hilbert_inverse(
        nan_beyond),
    "finite_hilbert_inverse-target": lambda arc, grid: finite_hilbert_inverse(
        lambda t: np.where(np.asarray(t) == 0.95, np.nan, 1.0)
    ).weight_coef(0.95),
    "hilbert_circular": lambda arc, grid: hilbert_circular(
        PeriodicFunction(np.r_[np.nan, np.zeros(15)])),
}


@pytest.mark.parametrize("route", list(NON_FINITE_ROUTES))
def test_non_finite_density_raises(route):
    with pytest.raises(NonFiniteError):
        NON_FINITE_ROUTES[route](segment(-1.0, 1.0), gauss_panel_grid(24, 12))
