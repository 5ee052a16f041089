import tracemalloc
import warnings

import numpy as np
import pytest

from cauchykit import (AccuracyWarning, ContractError, DomainError,
                       EndpointError, FlowConfig, JordanArc, SheetDensity,
                       chebyshev3_rule, chebyshev4_rule, circulation,
                       far_field_circulation, finite_hilbert_inverse,
                       finite_hilbert_transform, flat_plate_complex_velocity,
                       leading_edge_suction, leading_edge_weight, lift,
                       near_zone_width, normal_force, pressure,
                       pressure_jump, segment, sheet_velocity_field,
                       surface_velocities)
from cauchykit.geometry import gauss_panel_grid, panels_from_breakpoints

from oracles import arc_pv_per_target, gl_panels


@pytest.fixture(scope="module")
def cfg():
    return FlowConfig(1.0, np.pi / 6.0, 1.0)


def test_flow_config_validation():
    with pytest.raises(DomainError):
        FlowConfig(0.0, 0.1)
    with pytest.raises(DomainError):
        FlowConfig(1.0, 0.1, -1.0)
    with pytest.raises(DomainError):
        FlowConfig(1.0, 1.7)


@pytest.mark.parametrize("args", [(np.nan, 0.1, 1.0), (np.inf, 0.1, 1.0),
                                  (1.0, np.nan, 1.0), (1.0, 0.1, np.nan),
                                  (1.0, 0.1, np.inf)],
                         ids=["u-nan", "u-inf", "alpha-nan", "rho-nan",
                              "rho-inf"])
def test_flow_config_refuses_non_finite_values(args):
    with pytest.raises(DomainError, match="finite"):
        FlowConfig(*args)


def test_chebyshev_rules_integrate_weights():
    x4, w4 = chebyshev4_rule(64)
    assert w4.sum() == pytest.approx(np.pi, abs=1e-12)
    # int sqrt((1-x)/(1+x)) x dx = -pi/2
    assert np.sum(w4 * x4) == pytest.approx(-np.pi / 2.0, abs=1e-12)
    x3, w3 = chebyshev3_rule(64)
    assert w3.sum() == pytest.approx(np.pi, abs=1e-12)
    assert np.sum(w3 * x3) == pytest.approx(np.pi / 2.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 17, 128, 1001])
def test_chebyshev3_rule_is_the_reflected_chebyshev4_rule(n):
    # nodes cos((2k-1) pi/(2n+1)) and weights (2 pi/(2n+1)) (1 + x_k)
    k = np.arange(1, n + 1)
    x = np.cos((2.0 * k - 1.0) * np.pi / (2 * n + 1))
    w = 2.0 * np.pi / (2 * n + 1) * (1.0 + x)
    x3, w3 = chebyshev3_rule(n)
    assert np.max(np.abs(x3 - x)) <= 1e-15
    assert np.max(np.abs(w3 - w)) <= 1e-15 * 2.0 * np.pi / (2 * n + 1)
    with pytest.raises(DomainError):
        chebyshev3_rule(1)


class TestFiniteHilbertTransform:
    def test_flat_plate_density_gives_constant_downwash(self):
        amp = 0.5
        gamma = SheetDensity(weight_coef=lambda x: 2.0 * amp
                             * np.ones_like(np.asarray(x, dtype=float)))
        x = np.linspace(-0.95, 0.95, 21)
        v = finite_hilbert_transform(gamma, x)
        assert np.max(np.abs(v + amp)) < 1e-13

    def test_zero_density(self):
        gamma = SheetDensity(weight_coef=lambda x: np.zeros_like(
            np.asarray(x, dtype=float)))
        assert np.max(np.abs(finite_hilbert_transform(
            gamma, np.array([0.0, 0.5])))) == 0.0

    def test_semicircle_density(self):
        # gamma = sqrt(1-t^2) = sqrt((1-t)/(1+t)) (1+t):
        # P.V. int sqrt(1-t^2)/(t-x) dt = -pi x, so v(x) = -x/2
        gamma = SheetDensity(weight_coef=lambda x: 1.0 + np.asarray(x))
        x = np.linspace(-0.9, 0.9, 19)
        v = finite_hilbert_transform(gamma, x)
        assert np.max(np.abs(v + x / 2.0)) < 1e-12

    def test_smooth_part_contributes(self):
        # pure smooth density psi = 1: P.V. int dt/(t-x) = log((1-x)/(1+x))
        gamma = SheetDensity(smooth=lambda x: np.ones_like(
            np.asarray(x, dtype=float)))
        x = np.array([0.3, -0.4])
        v = finite_hilbert_transform(gamma, x)
        expect = np.log((1.0 - x) / (1.0 + x)) / (2.0 * np.pi)
        assert np.max(np.abs(v - expect)) < 1e-10

    def test_smooth_part_matches_per_target_pv(self):
        # all targets in one blocked call against one principal value per
        # target; x = -0.97 puts s0 = 0.015 in the max(2, ...) panel regime
        psi = lambda x: np.exp(np.asarray(x)) - 0.5 * np.asarray(x) ** 3
        gamma = SheetDensity(smooth=psi)
        x = np.linspace(-0.97, 0.97, 41)
        chord = segment(-1.0, 1.0)
        per_target = np.array([
            np.real(arc_pv_per_target(lambda t: psi(np.real(t)), chord,
                                      0.5 * (xi + 1.0)))
            for xi in x]) / (2.0 * np.pi)
        v = finite_hilbert_transform(gamma, x)
        assert np.max(np.abs(v - per_target)) <= 1e-13

    def test_complex_samples_are_refused(self):
        # the smooth part 1j*x read 0, and a complex weight coefficient read
        # as its real part with only numpy's ComplexWarning
        for gamma in (SheetDensity(smooth=lambda x: 1j * np.asarray(x)),
                      SheetDensity(weight_coef=lambda x: (1.0 + 1j)
                                   * np.ones_like(np.asarray(x)))):
            with pytest.raises(ContractError, match="imaginary"):
                finite_hilbert_transform(gamma, np.array([0.3]))
        real = SheetDensity(smooth=lambda x: (1.0 + 0j) * np.asarray(x))
        assert finite_hilbert_transform(real, [0.3])[0] == \
            finite_hilbert_transform(SheetDensity(smooth=np.asarray), [0.3])[0]

    def test_complex_targets_are_refused(self):
        gamma = SheetDensity(smooth=lambda x: np.asarray(x))
        with pytest.raises(DomainError, match="imaginary"):
            finite_hilbert_transform(gamma, np.array([0.3 + 0.1j]))

    def test_endpoint_targets_rejected(self):
        gamma = SheetDensity(weight_coef=lambda x: np.ones_like(
            np.asarray(x, dtype=float)))
        with pytest.raises(EndpointError):
            finite_hilbert_transform(gamma, np.array([1.0]))


class TestFiniteHilbertInverse:
    def test_complex_downwash_is_refused(self):
        with pytest.raises(ContractError, match="imaginary"):
            finite_hilbert_inverse(lambda x: 1j * np.asarray(x))

    def test_constant_downwash_recovers_plate_density(self):
        amp = 0.5
        dens = finite_hilbert_inverse(
            lambda x: -amp * np.ones_like(np.asarray(x, dtype=float)))
        x = np.linspace(-0.99, 0.99, 30)
        assert np.max(np.abs(dens(x) - 2.0 * amp * leading_edge_weight(x))) \
            < 1e-12

    def test_zero_downwash(self):
        dens = finite_hilbert_inverse(
            lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        assert np.max(np.abs(dens(np.linspace(-0.9, 0.9, 10)))) == 0.0

    def test_round_trip_linear_downwash(self):
        vfun = lambda x: -1.0 + 0.3 * np.asarray(x, dtype=float)
        dens = finite_hilbert_inverse(vfun, n=128)
        x = np.linspace(-0.95, 0.95, 21)
        back = finite_hilbert_transform(dens, x, n=128)
        assert np.max(np.abs(back - vfun(x))) < 1e-8

    def test_kutta_condition(self):
        dens = finite_hilbert_inverse(
            lambda x: -1.0 + 0.3 * np.asarray(x, dtype=float))
        assert dens(1.0) == 0.0
        eps = 10.0 ** (-np.arange(2, 6, dtype=float))
        slope = np.polyfit(np.log(eps), np.log(np.abs(dens(1.0 - eps))), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.02)

    def test_leading_edge_exponent(self):
        dens = finite_hilbert_inverse(
            lambda x: -1.0 + 0.3 * np.asarray(x, dtype=float))
        eps = 10.0 ** (-np.arange(2, 6, dtype=float))
        slope = np.polyfit(np.log(eps), np.log(np.abs(dens(-1.0 + eps))), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.02)


# the chord routes at their own Gauss-Chebyshev nodes, where the subtracted
# quotient takes its removable value


def test_transform_at_its_own_nodes_matches_neighbours():
    gamma = SheetDensity(weight_coef=lambda x: 1.0 + x ** 2 + np.sin(3.0 * x))
    x = chebyshev4_rule(128)[0][5:7]
    at = finite_hilbert_transform(gamma, x)
    near = 0.5 * (finite_hilbert_transform(gamma, x - 1e-6)
                  + finite_hilbert_transform(gamma, x + 1e-6))
    assert np.all(np.isfinite(at))
    assert np.max(np.abs(at - near)) < 1e-10


def test_inverse_at_its_own_nodes_matches_neighbours():
    phi = finite_hilbert_inverse(lambda x: np.cos(2.0 * x)).weight_coef
    x = chebyshev3_rule(128)[0][5:7]
    at = phi(x)
    near = 0.5 * (phi(x - 1e-6) + phi(x + 1e-6))
    assert np.all(np.isfinite(at))
    assert np.max(np.abs(at - near)) < 1e-10


def test_chord_batch_with_node_hits_equals_the_scalar_calls():
    # every node and every midpoint, shuffled: 255 rows over two row blocks,
    # node hits among them, each value that of its own call, bit for bit
    gamma = SheetDensity(weight_coef=lambda x: 1.0 + x ** 2 + np.sin(3.0 * x))
    nodes = chebyshev4_rule(128)[0]
    x = np.concatenate((nodes, 0.5 * (nodes[1:] + nodes[:-1])))
    x = x[np.random.default_rng(3).permutation(x.size)]
    phi = finite_hilbert_inverse(lambda t: np.cos(2.0 * t)).weight_coef
    for route in (lambda x: finite_hilbert_transform(gamma, x), phi):
        batch = route(x)
        assert batch.tolist() == [route(x[i:i + 1])[0] for i in range(x.size)]
    at, near = finite_hilbert_transform(gamma, nodes), 0.5 * (
        finite_hilbert_transform(gamma, nodes - 1e-6)
        + finite_hilbert_transform(gamma, nodes + 1e-6))
    assert np.max(np.abs(at - near)) < 1e-9


@pytest.mark.parametrize("route", ["transform", "inverse"])
def test_chord_routes_next_to_a_node_against_mpmath(route):
    # phi = 1/(t - a) outside the chord: P.V. int w(t) phi(t)/(t - x) dt =
    # (P.V. int w/(t - x) - int w/(t - a))/(x - a), the first -pi for w =
    # sqrt((1 - t)/(1 + t)) and +pi for its mirror; on and 1e-12 ... 1e-6
    # from nodes of the route's own rule, as between nodes
    mpmath = pytest.importorskip("mpmath")
    a, n = 1.5, 32
    phi = lambda t: 1.0 / (np.asarray(t) - a)
    if route == "transform":
        sign, nodes, scale = 1, chebyshev4_rule(n)[0], 1.0 / (2.0 * np.pi)
        run = lambda x: finite_hilbert_transform(SheetDensity(
            weight_coef=phi), x, n)
    else:
        sign, nodes, scale = -1, chebyshev3_rule(n)[0], -2.0 / np.pi
        run = finite_hilbert_inverse(phi, n).weight_coef
    with mpmath.workdps(30):
        far = float(mpmath.quad(lambda t: mpmath.sqrt((1 - sign * t) / (
            1 + sign * t)) / (t - a), [-1, 0, 1]))
    offsets = np.array([0.0, 1e-12, 1e-10, 1e-8, 1e-6])
    x = np.concatenate(((nodes[[0, 3, 15, 31], None] + offsets).ravel(),
                        (nodes[[0, 3, 15, 31], None] - offsets[1:]).ravel(),
                        0.5 * (nodes[1:] + nodes[:-1])))
    want = scale * (-sign * np.pi - far) / (x - a)
    assert np.max(np.abs(run(x) - want) / np.abs(want)) <= 1e-14


@pytest.mark.parametrize("route", ["transform", "inverse"])
def test_chord_routes_memory_bounded(route):
    # one full 50,000 x 128 quotient matrix alone would take 51 MB
    x = np.linspace(-0.99, 0.99, 50_000)
    if route == "transform":
        gamma = SheetDensity(weight_coef=lambda t: 1.0 + t ** 2)
        run = lambda: finite_hilbert_transform(gamma, x)
    else:
        phi = finite_hilbert_inverse(lambda t: np.cos(2.0 * t)).weight_coef
        run = lambda: phi(x)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


class TestPlateVelocity:
    def test_zero_incidence(self):
        quiet = FlowConfig(1.0, 0.0)
        z = np.array([2j, 3.0 + 1.0j, -0.5 - 2.0j])
        assert np.max(np.abs(flat_plate_complex_velocity(quiet, z))) == 0.0

    def test_far_field_decay(self, cfg):
        z = 1e3 * np.exp(1j * np.linspace(0.1, 6.0, 7))
        w = flat_plate_complex_velocity(cfg, z)
        bound = 1.1 * cfg.speed * np.sin(cfg.alpha) / 1e3
        assert np.max(np.abs(w)) < bound

    def test_against_independent_quadrature_at_z2(self, cfg):
        # oracle: substitute t = cos(theta) and integrate the smooth
        # integrand (1 + cos theta)/(cos theta - z) with a dense GL rule
        z = 2.0 + 0.0j
        th, w = gl_panels(0.0, np.pi, n_panels=160, order=16)
        base = np.sum((1.0 + np.cos(th)) / (np.cos(th) - z) * w)
        v_down = -cfg.speed * np.sin(cfg.alpha)
        expect = -np.sqrt((z - 1.0) / (z + 1.0)) / (1j * np.pi) * v_down * base
        got = flat_plate_complex_velocity(cfg, z)
        assert abs(got - expect) < 1e-12

    def test_closed_form_everywhere(self, cfg):
        amp = cfg.speed * np.sin(cfg.alpha)
        for z in (2j, 0.5 + 0.2j, -3.0 + 0.1j, 10.0 - 5.0j):
            expect = 1j * amp * (1.0 - np.sqrt((z - 1.0) / (z + 1.0)))
            assert abs(flat_plate_complex_velocity(cfg, z) - expect) < 1e-13

    def test_on_plate_rejected(self, cfg):
        with pytest.raises(DomainError):
            flat_plate_complex_velocity(cfg, 0.5 + 0.0j)

    def test_plemelj_consistency_with_surface(self, cfg):
        # one-sided limits onto the chord reproduce the closed-form surface
        # velocities: w(x + i 0+) = u+ - i v+
        for x in (-0.5, 0.0, 0.3, 0.9):
            w_up = flat_plate_complex_velocity(cfg, x + 1e-9j)
            u, v = surface_velocities(cfg, x, "+")
            assert abs(w_up - (u - 1j * v)) < 1e-7
            w_dn = flat_plate_complex_velocity(cfg, x - 1e-9j)
            u, v = surface_velocities(cfg, x, "-")
            assert abs(w_dn - (u - 1j * v)) < 1e-7


class TestSurfaceQuantities:
    def test_midchord_values(self, cfg):
        u, v = surface_velocities(cfg, 0.0, "+")
        assert u == pytest.approx(0.5) and v == pytest.approx(-0.5)
        u, v = surface_velocities(cfg, 0.0, "-")
        assert u == pytest.approx(-0.5) and v == pytest.approx(-0.5)

    def test_trailing_edge_regular(self, cfg):
        u, v = surface_velocities(cfg, 1.0, "+")
        assert u == 0.0

    def test_zero_incidence(self):
        u, v = surface_velocities(FlowConfig(1.0, 0.0), 0.3, "+")
        assert u == 0.0 and v == 0.0

    def test_leading_edge_rejected(self, cfg):
        with pytest.raises(DomainError):
            surface_velocities(cfg, -1.0, "+")
        with pytest.raises(DomainError):
            pressure(cfg, -1.0, "+")

    def test_pressure_values(self, cfg):
        assert pressure(cfg, 0.0, "+") == pytest.approx(
            0.5 - (np.cos(np.pi / 6.0) + 0.5) ** 2 / 2.0)
        quiet = FlowConfig(1.0, 0.0)
        assert pressure(quiet, 0.2, "+") == 0.0
        assert pressure(quiet, 0.2, "-") == 0.0

    def test_pressure_jump_integrates_to_normal_force(self, cfg):
        _, l_mag = lift(cfg)
        n_f = normal_force(cfg)
        assert n_f == pytest.approx(l_mag * np.cos(cfg.alpha), rel=1e-12)
        assert leading_edge_suction(cfg) == pytest.approx(
            l_mag * np.sin(cfg.alpha), rel=1e-10)


class TestCirculationAndLift:
    def test_flat_plate_circulation(self, cfg):
        assert circulation(cfg) == pytest.approx(np.pi, rel=1e-12)
        assert circulation(FlowConfig(1.0, 0.0)) == 0.0
        assert circulation(FlowConfig(2.0, 0.1)) == pytest.approx(
            4.0 * np.pi * np.sin(0.1), rel=1e-12)

    def test_three_circulation_routes_agree(self, cfg):
        gamma_surface = circulation(cfg)
        dens = finite_hilbert_inverse(
            lambda x: -cfg.speed * np.sin(cfg.alpha)
            * np.ones_like(np.asarray(x, dtype=float)))
        gamma_sheet = dens.total_strength()
        gamma_far = far_field_circulation(cfg)
        assert abs(gamma_surface - gamma_sheet) < 1e-8
        assert abs(gamma_surface - gamma_far) < 1e-8

    @pytest.mark.parametrize("n", [16, 128, 512])
    def test_total_strength(self, n):
        dens = SheetDensity(weight_coef=lambda x: np.ones_like(x),
                            smooth=np.exp)
        assert abs(dens.total_strength(n) - (np.e - 1.0 / np.e + np.pi)) \
            < 1e-14

    def test_total_strength_refuses_a_complex_sheet(self):
        # the imaginary part of a complex part was dropped: 0.0 for 1j*(1 + x)
        for gamma in (SheetDensity(smooth=lambda x: 1j * (1.0 + x)),
                      SheetDensity(weight_coef=lambda x: (1.0 + 1j)
                                   * np.ones_like(x))):
            with pytest.raises(ContractError, match="strength"):
                gamma.total_strength()
        real = SheetDensity(weight_coef=np.exp,
                            smooth=lambda x: np.cos(x) + x ** 2)
        assert real.total_strength(128) == real.total_strength(64) \
            == 4.551572207576701

    def test_lift_magnitude_and_direction(self, cfg):
        l_vec, l_mag = lift(cfg)
        assert l_mag == pytest.approx(np.pi, rel=1e-12)
        u_vec = np.array([np.cos(cfg.alpha), np.sin(cfg.alpha), 0.0])
        assert abs(np.dot(l_vec, u_vec)) / (l_mag * cfg.speed) < 1e-12
        # positive incidence lifts upward
        assert l_vec[1] > 0

    def test_lift_scaling(self):
        _, l_mag = lift(FlowConfig(3.0, 0.2, 2.0))
        assert l_mag == pytest.approx(36.0 * np.pi * np.sin(0.2), rel=1e-12)
        l_vec, l_mag = lift(FlowConfig(1.0, 0.0))
        assert l_mag == 0.0 and np.all(l_vec == 0.0)


class TestSheetVelocityField:
    @staticmethod
    def bump_grid(sigma):
        x_breaks = np.unique(np.concatenate([
            [-1.0], -10.0 ** np.arange(-0.5, -6.5, -0.5), [0.0],
            10.0 ** np.arange(-6.0, -0.4, 0.5), [1.0]]))
        return panels_from_breakpoints((x_breaks + 1.0) / 2.0, order=16)

    def test_point_vortex_far_field(self):
        sigma = 1e-3
        strength = 2.5
        bump = lambda x: strength * np.exp(-0.5 * (np.asarray(x) / sigma) ** 2) \
            / (sigma * np.sqrt(2.0 * np.pi))
        gamma = SheetDensity(smooth=bump)
        z = 0.1 * np.exp(1j * np.array([0.7, 1.7, 2.5, 4.2]))
        w = sheet_velocity_field(None, gamma, z, grid=self.bump_grid(sigma))
        expect = 1j * strength / (2.0 * np.pi * z)
        assert np.max(np.abs(w - expect) / np.abs(expect)) < 1e-3

    def test_point_source_radial_field(self):
        sigma = 1e-3
        strength = 1.7
        bump = lambda x: strength * np.exp(-0.5 * (np.asarray(x) / sigma) ** 2) \
            / (sigma * np.sqrt(2.0 * np.pi))
        q = SheetDensity(smooth=bump)
        r, angle = 0.1, 0.7
        zpt = r * np.exp(1j * angle)
        wbar = np.conj(sheet_velocity_field(q, None, zpt,
                                            grid=self.bump_grid(sigma)))
        radial = np.real(wbar * np.exp(-1j * angle))
        tangential = np.imag(wbar * np.exp(-1j * angle))
        assert radial == pytest.approx(strength / (2.0 * np.pi * r), rel=1e-3)
        assert abs(tangential) < 1e-3 * abs(radial)

    def test_near_sheet_warning(self):
        gamma = SheetDensity(smooth=lambda x: np.ones_like(
            np.asarray(x, dtype=float)))
        with pytest.warns(AccuracyWarning):
            sheet_velocity_field(None, gamma, 0.5 + 1e-3j)

    @pytest.mark.parametrize("z", [0.3, 0.3 + 1e-13j, -0.999])
    @pytest.mark.parametrize("part", ["smooth", "weight", "user arc"])
    def test_points_on_the_sheet_rejected(self, z, part):
        one = lambda x: np.ones_like(np.asarray(x, dtype=complex))
        dens, arc = {"smooth": (SheetDensity(smooth=one), None),
                     "weight": (SheetDensity(weight_coef=one), None),
                     "user arc": (SheetDensity(smooth=one),
                                  segment(-1.0, 2.0))}[part]
        for q, gamma in ((dens, None), (None, dens)):
            with pytest.raises(DomainError):
                sheet_velocity_field(q, gamma, z, arc=arc)

    def test_no_silent_error_near_the_chord(self):
        # q = 1 induces log((z + 1)/(z - 1))/(2 pi): a field point in the
        # near zone of the default panels warns, and every other point is
        # within 1e-13 of the closed form
        q = SheetDensity(smooth=lambda x: np.ones_like(np.asarray(x)))
        width = near_zone_width(segment(-1.0, 1.0), gauss_panel_grid(32, 12))
        x, y = np.meshgrid(np.linspace(-1.3, 1.3, 27),
                           [0.005, 0.022, 0.03, 0.05, 0.06, 0.1, 0.5])
        z = (x + 1j * y).ravel()
        z = np.concatenate((z, -z, 0.01 + np.array([0.022, 0.03, 0.05]) * 1j))
        gap = np.where(np.abs(z.real) <= 1.0, np.abs(z.imag),
                       np.abs(z - np.sign(z.real)))
        far = z[gap > width]
        w = sheet_velocity_field(q, None, far)
        assert np.max(np.abs(w - np.log((far + 1.0) / (far - 1.0))
                             / (2.0 * np.pi))) < 1e-13
        for zn in z[gap <= width]:
            with pytest.warns(AccuracyWarning):
                sheet_velocity_field(q, None, zn)

    def test_zero_densities(self):
        assert sheet_velocity_field(None, None, 1.0 + 1.0j) == 0.0

    def test_field_points_go_a_block_at_a_time(self):
        # the full 5,000 x 384 kernel matrix alone would take 31 MB; the
        # blocked sums match the unblocked ones to rounding
        q = SheetDensity(weight_coef=lambda x: 1.0 + x,
                         smooth=lambda x: np.cos(np.asarray(x)))
        gamma = SheetDensity(weight_coef=lambda x: 2.0 - x ** 2,
                             smooth=lambda x: np.exp(np.asarray(x)))
        z = 1.5 * np.exp(2j * np.pi * np.arange(5000) / 5000) + 0.2j
        tracemalloc.start()
        try:
            w = sheet_velocity_field(q, gamma, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        zr = z[::10, None]
        x4, w4 = chebyshev4_rule(128)
        grid = gauss_panel_grid(32, 12)
        ts = 2.0 * grid.nodes - 1.0
        ref = sum(factor * ((np.asarray(d.weight_coef(x4))[None, :]
                             / (zr - x4[None, :])) @ w4
                            + (np.asarray(d.smooth(ts))[None, :] * 2.0
                               / (zr - ts[None, :])) @ grid.weights)
                  for d, factor in ((q, 1.0), (gamma, 1j))) / (2.0 * np.pi)
        assert np.max(np.abs(w[::10] - ref) / np.abs(ref)) <= 1e-14

    def test_flat_plate_sheet_matches_plate_velocity(self, cfg):
        # the inverted downwash density must induce the plate's own
        # perturbation field through the vortex-sheet representation
        amp = cfg.speed * np.sin(cfg.alpha)
        dens = finite_hilbert_inverse(
            lambda x: -amp * np.ones_like(np.asarray(x, dtype=float)))
        for z in (2j, 1.5 + 1.0j, -0.7 + 0.4j):
            w_sheet = sheet_velocity_field(None, dens, z)
            w_plate = flat_plate_complex_velocity(cfg, z)
            assert abs(w_sheet - w_plate) < 1e-10


def test_sheet_density_adds_its_smooth_part():
    gamma = SheetDensity(weight_coef=lambda x: 1.0 + x,
                         smooth=lambda x: x ** 2)
    x = np.array([-0.5, 0.0, 0.7, 1.0])
    assert np.allclose(gamma(x), np.sqrt(1.0 - x ** 2) + x ** 2,
                       rtol=0.0, atol=1e-15)
    assert gamma(0.7) == pytest.approx(np.sqrt(0.51) + 0.49, abs=1e-15)


def test_weight_basis_density_stays_on_the_chord():
    with pytest.raises(DomainError, match="standard chord"):
        sheet_velocity_field(None, SheetDensity(weight_coef=lambda x: 1.0 + x),
                             3.0, arc=segment(0.0, 2.0))


def test_weight_basis_sheet_on_any_chord_arc():
    # the chord is recognised from its samples, not by identity; an arc
    # through -1 and 1 that leaves the real segment, or runs from 1 to -1,
    # is still refused
    z = 0.3 + 0.8j
    for gamma in (SheetDensity(weight_coef=lambda x: 1.0 + x),
                  SheetDensity(weight_coef=lambda x: 1.0 + x,
                               smooth=lambda x: x ** 2)):
        ref = sheet_velocity_field(None, gamma, z)
        got = sheet_velocity_field(None, gamma, z, arc=segment(-1.0, 1.0))
        assert abs(got - ref) <= 1e-15
    upper = JordanArc(z=lambda s: -np.exp(-1j * np.pi * np.asarray(s)),
                      dz=lambda s: 1j * np.pi * np.exp(-1j * np.pi
                                                       * np.asarray(s)))
    for arc in (upper, segment(1.0, -1.0)):
        with pytest.raises(DomainError, match="standard chord"):
            sheet_velocity_field(None, gamma, z, arc=arc)


def test_chord_transforms_keep_the_targets_shape():
    # a 2 x 2 array of targets gives a 2 x 2 array, each value that of the
    # flat call; the inverse's density does the same
    x = np.array([[0.1, -0.3], [0.55, 0.9]])
    gamma = SheetDensity(weight_coef=lambda t: 1.0 + t ** 2,
                         smooth=lambda t: np.cos(t))
    v = finite_hilbert_transform(gamma, x)
    assert v.shape == (2, 2)
    assert np.array_equal(v.ravel(), finite_hilbert_transform(gamma,
                                                              x.ravel()))
    phi = finite_hilbert_inverse(lambda t: 1.0 + 0.0 * t).weight_coef
    assert phi(x).shape == (2, 2)
    assert np.array_equal(phi(x).ravel(), phi(x.ravel()))
    assert finite_hilbert_transform(gamma, 0.1).shape == (1,)


@pytest.mark.parametrize("route, error", [
    (lambda cfg: SheetDensity(weight_coef=np.cos)(np.nan), DomainError),
    (lambda cfg: surface_velocities(cfg, np.nan, "+"), DomainError),
    (lambda cfg: pressure(cfg, np.nan, "-"), DomainError),
    (lambda cfg: finite_hilbert_transform(SheetDensity(weight_coef=np.cos),
                                          np.nan), EndpointError),
    (lambda cfg: finite_hilbert_inverse(np.cos).weight_coef(
        np.array([0.3, np.nan])), EndpointError)],
    ids=["density", "surface_velocities", "pressure", "transform", "inverse"])
def test_chord_checks_refuse_a_nan_coordinate(cfg, route, error):
    # NaN passed each "x <= -1 or x > 1" check: the density read 0.0, the
    # surface routes NaN, and the chord transforms a NonFiniteError
    with pytest.raises(error):
        route(cfg)


@pytest.mark.parametrize("z", [np.nan + 1j, complex(np.inf, 0.5)])
def test_plate_velocity_refuses_a_non_finite_point(cfg, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite"):
            flat_plate_complex_velocity(cfg, z)


@pytest.mark.parametrize("part", ["weight_coef", "smooth"])
def test_sheet_density_refuses_complex_parts(part):
    gamma = SheetDensity(**{part: lambda x: (1.0 + 0.5j) * np.ones_like(x)})
    for x in (0.25, np.array([0.0, 0.5])):
        with pytest.raises(ContractError, match="imaginary part"):
            gamma(x)
    real = SheetDensity(**{part: lambda x: 0.5 * np.asarray(x) + 1.0})
    x = np.array([-0.5, 0.0, 0.5, 1.0])
    want = 0.5 * x + 1.0
    if part == "weight_coef":
        want = np.where(x < 1.0, np.sqrt((1.0 - x) / (1.0 + x)) * want, 0.0)
    assert np.array_equal(real(x), want) and real(0.5) == want[2]
