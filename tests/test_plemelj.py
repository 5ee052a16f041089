import warnings
from collections import Counter

import numpy as np
import pytest

from cauchykit import geometry, plemelj
from cauchykit import (AccuracyWarning, ArcDensity, BoundaryFunction,
                       DomainError, EndpointError, JordanArc,
                       arc_cauchy_integral, build_unit_circle,
                       gauss_panel_grid, one_sided_limit, plemelj_limits,
                       poincare_bertrand_residual, reconstruct_from_jump,
                       segment)

from oracles import (aligned_panels, arc_integral_refined, arc_pv_per_target,
                     pv_arc_extrapolated)


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
        grid = gauss_panel_grid(32, 12, grade=24)
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
# the inner principal values as one blocked matrix, against the per-node loop

HALF_CIRCLE = JordanArc(
    z=lambda s: np.exp(1j * np.pi * (1.0 - np.asarray(s))),
    dz=lambda s: -1j * np.pi * np.exp(1j * np.pi * (1.0 - np.asarray(s))))

PB_DENSITIES = {
    "1": lambda t, tp: np.ones_like(np.asarray(t, dtype=complex)),
    "t*t'": lambda t, tp: np.asarray(t) * tp,
    "t^2+t'^2": lambda t, tp: np.asarray(t) ** 2 + np.asarray(tp) ** 2,
}


def pb_residual_per_node(f2, arc, x0, n_panels, order=12):
    """|LHS - RHS| with every inner principal value taken one at a time, x0
    located by Newton from the nearest node of the n_panels-panel grid."""
    s0, _ = arc._newton(x0, gauss_panel_grid(n_panels, order).nodes)
    x0c = arc.z(np.array([s0]))[0]
    s, w = aligned_panels(s0, n_panels, order, grade=14)
    ts, dts = arc.z(s), arc.dz(s)

    def inner_in_t(sp):                 # P.V. int f2(t, t')/(t - t') dt
        tp = arc.z(np.array([sp]))[0]
        return arc_pv_per_target(lambda t: f2(t, tp), arc, sp, n_panels,
                                 order)

    def inner_in_tprime(t, pole):       # P.V. int f2(t, t')/(t' - pole) dt'
        return arc_pv_per_target(lambda tp: f2(t, tp), arc, pole, n_panels,
                                 order)

    i_vals = np.array([inner_in_t(si) for si in s])
    i_x0 = inner_in_t(s0)
    h = i_vals * dts / (ts - x0c) - i_x0 / (s - s0)
    lhs = np.sum(h * w) + i_x0 * np.log((1.0 - s0) / s0)
    n_vals = np.array([inner_in_tprime(ti, s0) - inner_in_tprime(ti, si)
                       for si, ti in zip(s, ts)])
    rhs = np.sum(n_vals / (ts - x0c) * dts * w) \
        - np.pi ** 2 * complex(f2(x0c, x0c))
    return abs(lhs - rhs)


# every density meets every x0 once; the grid alternates between 16 and 24
# panels.  x0 = -0.94 is s0 = 0.03, where the left part takes max(2, ...)
# panels and the rows are padded.
@pytest.mark.parametrize("x0", [0.2, -0.37, -0.94])
@pytest.mark.parametrize("name", list(PB_DENSITIES))
def test_pb_matrix_matches_per_node_loop(name, x0):
    n_panels = (16, 24)[(list(PB_DENSITIES).index(name)
                         + [0.2, -0.37, -0.94].index(x0)) % 2]
    f2 = PB_DENSITIES[name]
    arc = segment(-1.0, 1.0)
    got = poincare_bertrand_residual(f2, arc, gauss_panel_grid(n_panels, 12),
                                     complex(x0), cross_check=False)
    ref = pb_residual_per_node(f2, arc, complex(x0), n_panels)
    assert abs(got - ref) <= 1e-13
    assert got < 1e-5


def test_pb_matrix_matches_per_node_loop_on_curved_arc():
    f2 = PB_DENSITIES["t*t'"]
    x0 = complex(np.exp(0.6j * np.pi))                  # s0 = 0.4
    got = poincare_bertrand_residual(f2, HALF_CIRCLE, gauss_panel_grid(16, 12),
                                     x0, cross_check=False)
    ref = pb_residual_per_node(f2, HALF_CIRCLE, x0, 16)
    assert abs(got - ref) <= 1e-13


@pytest.mark.parametrize("n_panels", [16, 24])
def test_pb_residual_is_steady_in_the_last_bits_of_s0(n_panels):
    # the outer panels are graded toward the arc ends, not toward s0, so
    # no outer node crowds s0 and moving s0 by up to 3 ulps moves the
    # residual by rounding only (panels graded toward s0 spread it by ~1e-7)
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

    # one call per row block (74 at 28 panels); the per-node loop
    # made about 6,000
    assert count(28) <= 100
    # with every matrix in one block the count no longer depends on the grid
    monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 1 << 30)
    assert count(16) == count(28) == 5


def test_pb_cross_check_warns_on_slow_convergence():
    # a pole 0.02 off the arc: the two grid levels disagree by more than 10x
    f2 = lambda t, tp: 1.0 / (np.asarray(t) - (0.5 + 0.02j)) \
        + 0.0 * np.asarray(tp)
    with pytest.warns(AccuracyWarning, match="convergence is slow"):
        poincare_bertrand_residual(f2, segment(-1.0, 1.0),
                                   gauss_panel_grid(16, 12), 0.2 + 0.0j)


# ---------------------------------------------------------------------------
# several densities in one sweep of _arc_pv_rows


# s0 = 0.03 (x0 = -0.94 on both arcs): the rows near the ends are padded
@pytest.mark.parametrize("n_panels", [16, 24, 37])
@pytest.mark.parametrize("arc", [segment(-1.0, 1.0), HALF_CIRCLE],
                         ids=["segment", "half-circle"])
def test_arc_pv_rows_densities_match_single_density_calls(arc, n_panels):
    f2 = lambda t, tp: np.asarray(t) * (np.asarray(t) + tp) + 1.0 / (tp - 3.0)
    s0 = 0.03
    s, _ = plemelj._aligned_panels(s0, n_panels, 12, grade=14)
    sp = np.append(s, s0)
    tp = arc.z(sp)
    x0c = arc.z(np.array([s0]))[0]
    per_row = ((lambda t, r: f2(t, tp[r, None]), f2(tp, tp)),
               (lambda t, r: f2(tp[r, None], t), f2(tp, tp)),
               (lambda t, r: np.exp(t), np.exp(tp)))
    shared = ((lambda t, r: f2(tp[r, None], t), f2(tp, x0c)),
              (lambda t, r: f2(t, tp[r, None]), f2(x0c, tp)))
    for densities, s_rows, t_rows in ((per_row, sp, tp),
                                      (shared, s0, x0c)):
        together = plemelj._arc_pv_rows(densities, arc, s_rows, t_rows,
                                        n_panels, 12)
        apart = [plemelj._arc_pv_rows((d,), arc, s_rows, t_rows, n_panels,
                                      12)[0] for d in densities]
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
    # z at the outer nodes, at the padded aligned rows of I (the outer
    # nodes, then x0) a block at a time, and at the one row of A that all
    # its rows share; B's rows are I's, so they are not sampled again
    calls = Counter()
    f2 = PB_DENSITIES["t*t'"]
    s0, n_panels = 0.4, 24
    x0c = complex(HALF_CIRCLE.z(np.array([s0]))[0])
    plemelj._pb_residual_once(f2, counted_arc(HALF_CIRCLE, calls), s0, x0c,
                              n_panels, 12)
    s, _ = plemelj._aligned_panels(s0, n_panels, 12, grade=14)
    sp = np.append(s, s0)
    rows_of_i = sum(plemelj._aligned_rows(sp[r], n_panels, 12)[0].size
                    for r in geometry._row_blocks(sp.size,
                                                  (n_panels + 3) * 12))
    row_of_a = plemelj._aligned_rows(np.array([s0]), n_panels, 12)[0].size
    z_points = sum(size * k for (name, size), k in calls.items()
                   if name == "z")
    assert z_points == s.size + rows_of_i + row_of_a


# ---------------------------------------------------------------------------
# arc calls locate from their own grid samples

CURVED = JordanArc(z=HALF_CIRCLE.z, dz=HALF_CIRCLE.dz,
                   d2z=lambda s: -np.pi ** 2 * HALF_CIRCLE.z(s))


def test_arc_calls_run_no_locate_or_length_sweep():
    # each call samples z and z' once at the grid nodes (plemelj_limits
    # also at its 252-node aligned row); a near-zone target adds only scalar
    # Newton steps
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
        assert calls["z", 2048] == 0 and calls["dz", 1024] == 0
        assert calls["dz", grid.n] == 1
    with pytest.warns(AccuracyWarning):
        arc_cauchy_integral(g, CURVED, grid, near)


def test_pb_runs_no_locate_or_length_sweep():
    # x0 is located by Newton from the nearest node of the caller's grid,
    # sampled once; the 2,048-point locate sweep and the 1,024-point length
    # sweep no longer run
    grid = gauss_panel_grid(24, 12)
    x0 = complex(CURVED.z(np.array([0.4137]))[0])        # between nodes
    calls = Counter()
    arc = counted_arc(CURVED, calls)
    res = poincare_bertrand_residual(PB_DENSITIES["t*t'"], arc, grid, x0,
                                     cross_check=False)
    assert calls["z", 2048] == 0 and calls["dz", 1024] == 0
    assert calls["z", grid.n] == calls["dz", grid.n] == 1
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


def test_seeded_arc_locate_keeps_the_endpoint_margin():
    grid = gauss_panel_grid(24, 12)
    g = ArcDensity(lambda t: t ** 2)
    for arc in (segment(-1.0, 1.0), CURVED):
        for s in (0.0, 0.01, 0.995, 1.0):
            with pytest.raises(EndpointError):
                plemelj_limits(g, arc, grid, complex(arc.z(np.array([s]))[0]))
