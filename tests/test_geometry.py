import tracemalloc

import numpy as np
import pytest

from cauchykit import (BoundaryFunction, DomainError, InvalidGridError,
                       JordanArc, NonFiniteError, OnContourError,
                       build_unit_circle, cauchy_functional, circle,
                       classify_point, contour_integral, ellipse,
                       gauss_panel_grid, periodic_trapezoid_grid,
                       pv_contour_integral, pv_singular_weight,
                       validate_contour, vanishing_contour_integral)
from cauchykit.geometry import (DELTA_FRACTION, NEAR_ZONE_FACTOR,
                                ClosedContour, _classify, _has_close_pair,
                                _sample,
                                near_zone_width, panels_from_breakpoints,
                                pv_at_all_nodes, segment, spectral_derivative,
                                trig_interp)

from oracles import pv_closed_extrapolated, random_trig_poly

TWO_PI = 2.0 * np.pi


def test_unit_circle_construction():
    contour, grid = build_unit_circle(16)
    assert contour.z(np.array([0.0]))[0] == pytest.approx(1.0)
    assert contour.dz(np.array([0.0]))[0] == pytest.approx(1j)
    assert grid.weights.sum() == pytest.approx(TWO_PI)


@pytest.mark.parametrize("n", [7, 4, 9, 2])
def test_bad_grid_sizes_rejected(n):
    with pytest.raises(InvalidGridError):
        periodic_trapezoid_grid(n)


def test_closed_loop_integral_of_one_vanishes():
    contour, grid = build_unit_circle(256)
    val = contour_integral(lambda t: np.ones_like(t), contour, grid)
    assert abs(val) < 1e-14


def test_residue_of_inverse_t():
    contour, grid = build_unit_circle(64)
    val = contour_integral(lambda t: 1.0 / t, contour, grid)
    assert abs(val - 2j * np.pi) < 1e-13 * abs(2j * np.pi)


def test_regular_integrand_vanishes():
    contour, grid = build_unit_circle(64)
    assert abs(contour_integral(lambda t: t ** 2, contour, grid)) < 1e-13
    assert contour_integral(lambda t: np.zeros_like(t), contour, grid) == 0.0


def test_nonfinite_integrand_raises():
    contour, grid = build_unit_circle(16)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            contour_integral(lambda t: 1.0 / (t - 1.0), contour, grid)


def test_classify_basic_points():
    contour, grid = build_unit_circle(64)
    inside = classify_point(contour, grid, 0.0 + 0.0j, 1e-8)
    assert inside.verdict == "inside" and inside.winding == 1
    outside = classify_point(contour, grid, 2.0 + 0.0j, 1e-8)
    assert outside.verdict == "outside" and outside.winding == 0
    on = classify_point(contour, grid, 1.0 + 0.0j, 1e-6)
    assert on.verdict == "on-contour"
    with pytest.raises(DomainError):
        classify_point(contour, grid, complex("nan"), 1e-8)


def test_near_zone_distance_is_to_the_curve_not_the_nodes():
    # between two of 256 nodes of an ellipse, a point on the curve is 5e-3
    # from the nearest node; it is on the contour, and a functional raises
    contour, grid = ellipse(1.0, 0.6), periodic_trapezoid_grid(256)
    s = 1.3 * np.pi / 256
    on = complex(contour.z(np.array([s]))[0])
    assert classify_point(contour, grid, on).on_contour
    with pytest.raises(OnContourError):
        cauchy_functional(BoundaryFunction(lambda t: 1.0 / (t - 2.0)),
                          contour, grid, on)
    # off the curve along the normal, the distance is the offset
    dz = complex(contour.dz(np.array([s]))[0])
    for d, verdict in ((1e-3, "outside"), (-1e-3, "inside")):
        cl = classify_point(contour, grid, on - 1j * d * dz / abs(dz))
        assert cl.verdict == verdict
        assert cl.distance == pytest.approx(1e-3, rel=1e-9)


def test_winding_is_integer_away_from_contour():
    contour, grid = build_unit_circle(128)
    rng = np.random.default_rng(7)
    margin = 10.0 * TWO_PI / grid.n
    for _ in range(50):
        r = rng.choice([rng.uniform(0.0, 1.0 - margin),
                        rng.uniform(1.0 + margin, 4.0)])
        z = r * np.exp(2j * np.pi * rng.random())
        cl = classify_point(contour, grid, z, 1e-10)
        assert abs(cl.winding_estimate - cl.winding) < 1e-6


def test_ellipse_trapezoid_weight_sums():
    ell = ellipse(1.0, 0.6)
    grid = periodic_trapezoid_grid(64)
    assert abs(contour_integral(lambda t: np.ones_like(t), ell, grid)) < 1e-13
    validate_contour(ell, grid)


def _fig8():
    return ClosedContour(
        z=lambda s: np.cos(np.asarray(s)) + 1j * np.sin(2.0 * np.asarray(s)),
        dz=lambda s: -np.sin(np.asarray(s)) + 2j * np.cos(2.0 * np.asarray(s)))


def test_validate_contour_catches_double_point():
    # figure-eight: passes through 0 twice
    with pytest.raises(DomainError):
        validate_contour(_fig8(), periodic_trapezoid_grid(128))


@pytest.mark.parametrize("n", [256, 1024, 2048])
def test_validate_contour_compares_pairs_across_row_blocks(n):
    # at n >= 1024 the nodes at s = pi/2 and 3 pi/2, where the figure-eight
    # crosses itself, fall in different row blocks of the pair search
    with pytest.raises(DomainError, match="self-intersects"):
        validate_contour(_fig8(), periodic_trapezoid_grid(n))
    validate_contour(ellipse(1.0, 0.6), periodic_trapezoid_grid(n))


def test_validate_contour_catches_clockwise():
    cw = circle(0.0, 1.0).reversed()
    with pytest.raises(DomainError):
        validate_contour(cw, periodic_trapezoid_grid(64))


def _c_shape():
    # simple and counterclockwise (signed area +1.51), but its node centroid
    # 0.455 lies outside the curve
    def z(s):
        s = np.asarray(s, dtype=float)
        return np.exp(1.6j * np.sin(s)) * (1.0 + 0.3 * np.cos(s))

    def dz(s):
        s = np.asarray(s, dtype=float)
        return np.exp(1.6j * np.sin(s)) * (
            1.6j * np.cos(s) * (1.0 + 0.3 * np.cos(s)) - 0.3 * np.sin(s))
    return ClosedContour(z, dz)


def _all_pairs_close(zs, h):
    d = zs[:, None] - zs[None, :]
    d2 = d.real ** 2 + d.imag ** 2
    d2[np.diag_indices(zs.size)] = np.inf
    return bool(d2.min() < h * h)


def test_close_pair_search_matches_all_pairs():
    rng = np.random.default_rng(11)
    verdicts = set()
    for size in (2, 50, 400):
        plane = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        line = rng.standard_normal(size) + 1e-9j * rng.standard_normal(size)
        for pts in (plane, line, 1e-3 * plane + 5.0):
            for h in (1e-4, 1e-3, 1e-2, 0.1):
                got = _has_close_pair(pts, h)
                assert got == _all_pairs_close(pts, h)
                verdicts.add(got)
    assert verdicts == {True, False}
    fig8 = _fig8()
    for n in (128, 1024, 2048):
        grid = periodic_trapezoid_grid(n)
        h = 0.1 * np.sum(np.abs(fig8.dz(grid.nodes))) * TWO_PI / n ** 2
        zs = fig8.z(grid.nodes)
        assert _has_close_pair(zs, h) == _all_pairs_close(zs, h)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_close_pair_search_at_the_threshold(factor):
    # two unit circles of 256 nodes each, whose closest nodes (angle 0 of
    # the left one, angle pi of the right one) are factor * h apart
    n = 256
    h = 0.1 * TWO_PI / n
    ring = np.exp(1j * periodic_trapezoid_grid(n).nodes)
    gap = factor * h
    zs = np.concatenate([ring - (1.0 + 0.5 * gap), ring + (1.0 + 0.5 * gap)])
    assert _has_close_pair(zs, h) == _all_pairs_close(zs, h) == (factor < 1.0)


@pytest.mark.parametrize("n", [64, 512, 2048])
def test_validate_contour_accepts_non_convex_contour(n):
    validate_contour(_c_shape(), periodic_trapezoid_grid(n))
    with pytest.raises(DomainError, match="not \\+1"):
        validate_contour(_c_shape().reversed(), periodic_trapezoid_grid(n))


@pytest.mark.parametrize("shape,n", [("limacon", 256), ("figure-eight", 130)])
def test_validate_contour_rejects_crossings_between_nodes(shape, n):
    # both crossings fall between nodes, where no node pair is close: the
    # limacon's inner loop turns its tangent twice, the figure-eight's not
    # at all
    if shape == "limacon":
        contour = ClosedContour(
            z=lambda s: (0.3 + np.cos(s)) * np.exp(1j * s),
            dz=lambda s: (1j * (0.3 + np.cos(s)) - np.sin(s)) * np.exp(1j * s))
    else:
        contour = _fig8()
    with pytest.raises(DomainError, match="turning number is not \\+1"):
        validate_contour(contour, periodic_trapezoid_grid(n))


@pytest.mark.parametrize("part", ["z", "dz"])
def test_validate_contour_rejects_non_finite_nodes(part):
    circ = circle(0.0, 1.0)

    def spoil(f):
        return lambda s: np.where(np.asarray(s) > 3.0, np.nan, f(s))
    bad = ClosedContour(spoil(circ.z) if part == "z" else circ.z,
                        spoil(circ.dz) if part == "dz" else circ.dz)
    with pytest.raises(DomainError, match="non-finite"):
        validate_contour(bad, periodic_trapezoid_grid(64))


def test_trapezoid_geometric_convergence_on_ellipse():
    ell = ellipse(1.0, 0.5)
    errs = []
    for n in (8, 16, 32, 64):
        grid = periodic_trapezoid_grid(n)
        errs.append(abs(contour_integral(lambda t: 1.0 / t, ell, grid)
                        - 2j * np.pi))
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert fine < 0.1 * coarse or fine < 1e-13


def test_gauss_panels_sum_to_interval():
    grid = gauss_panel_grid(10, 8, a=-1.0, b=3.0)
    assert grid.weights.sum() == pytest.approx(4.0)
    graded = gauss_panel_grid(10, 8, grade=12, a=0.0, b=1.0)
    assert graded.weights.sum() == pytest.approx(1.0)


def test_panels_match_per_panel_construction():
    rng = np.random.default_rng(5)
    for _ in range(50):
        breaks = np.cumsum(rng.uniform(1e-3, 5.0, rng.integers(2, 30))) - 7.0
        for order in (2, 12, 16):
            x0, w0 = np.polynomial.legendre.leggauss(order)
            h = [0.5 * (hi - lo) for lo, hi in zip(breaks[:-1], breaks[1:])]
            nodes = np.concatenate([lo + hh * (x0 + 1.0)
                                    for lo, hh in zip(breaks[:-1], h)])
            grid = panels_from_breakpoints(breaks, order)
            assert np.array_equal(grid.nodes, nodes)
            assert np.array_equal(grid.weights,
                                  np.concatenate([hh * w0 for hh in h]))
    with pytest.raises(InvalidGridError):
        panels_from_breakpoints([0.0, 1.0, 1.0])


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_circle_pv_route_matches_matrix_form(n):
    # the FFT route taken for kind="circle" against the difference-quotient
    # matrix on the same curve declared generic; the Nyquist mode included
    circ = circle(0.3 + 0.2j, 2.5)
    generic = ClosedContour(circ.z, circ.dz, circ.d2z)
    grid = periodic_trapezoid_grid(n)
    rng = np.random.default_rng(n)
    for samples in (rng.standard_normal(n) + 1j * rng.standard_normal(n),
                    np.cos(0.5 * n * grid.nodes)):
        fast = pv_at_all_nodes(samples, circ, grid)
        ref = pv_at_all_nodes(samples, generic, grid)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [64, 300, 1024])
def test_matrix_pv_blocks_match_full_matrix(n):
    # the matrix route is built in row blocks (the last one shorter at
    # n=300);
    # every row must equal the full n x n difference-quotient matrix, on
    # the ellipse, the non-convex C-shape and a circle declared generic
    circ = circle(0.3 + 0.2j, 2.5)
    grid = periodic_trapezoid_grid(n)
    for contour, pole in ((ellipse(1.0, 0.6), 2.0), (_c_shape(), 2.0 + 3.0j),
                          (ClosedContour(circ.z, circ.dz, circ.d2z),
                           2.0 + 3.0j)):
        zs, dzs = contour.z(grid.nodes), contour.dz(grid.nodes)
        samples = 1.0 / (zs - pole) + np.exp(zs)
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = (samples[None, :] - samples[:, None]) * dzs[None, :] \
                / (zs[None, :] - zs[:, None])
        quot[np.arange(n), np.arange(n)] = spectral_derivative(samples)
        ref = quot @ grid.weights + samples * (1j * np.pi)
        got = pv_at_all_nodes(samples, contour, grid)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [64, 300, 1024])
def test_matrix_pv_constant_offset_costs_only_its_rounding(n):
    # the principal value of a constant c is i*pi*c; a density with a large
    # mean keeps the absolute accuracy of its varying part, up to a few
    # ulps of c
    ell = ellipse(1.0, 0.6)
    grid = periodic_trapezoid_grid(n)
    zs = ell.z(grid.nodes)
    samples = 1.0 / (zs - 2.0) + np.exp(zs)
    base = pv_at_all_nodes(samples, ell, grid)
    for c in (1e3, 1e6):
        got = pv_at_all_nodes(c + samples, ell, grid)
        err = np.max(np.abs(got - base - 1j * np.pi * c))
        assert err <= 1e-14 * np.max(np.abs(base)) + 8 * np.finfo(float).eps * c


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matrix_pv_memory_bounded():
    # the full 4,096 x 4,096 matrix would take 268 MB
    f = BoundaryFunction(lambda t: 1.0 / (t - 2.0))
    ell, grid = ellipse(1.0, 0.6), periodic_trapezoid_grid(4096)
    assert _peak_bytes(
        lambda: vanishing_contour_integral(f, ell, grid)) < 2e6


def test_trig_interp_memory_bounded():
    # the full 20,000 x 4,096 exp(i s k) matrix would take 1.3 GB
    nodes = periodic_trapezoid_grid(4096).nodes
    samples = np.exp(3j * nodes) + np.cos(5.0 * nodes)
    s = np.linspace(0.0, TWO_PI, 20_000)
    out = []
    assert _peak_bytes(lambda: out.append(trig_interp(samples, s))) < 8e6
    exact = np.exp(3j * s) + np.cos(5.0 * s)
    assert np.max(np.abs(out[0] - exact)) < 1e-12


class TestPvSingularWeight:
    def test_unit_circle_location_independent(self):
        contour, _ = build_unit_circle(64)
        for t0 in (1.0 + 0.0j, 1j, np.exp(0.37j)):
            assert pv_singular_weight(contour, t0) == -1j * np.pi

    def test_off_contour_rejected(self):
        contour, _ = build_unit_circle(64)
        with pytest.raises(DomainError):
            pv_singular_weight(contour, 1.5 + 0.0j)

    def test_indentation_oracle_on_ellipse(self):
        # the analytic constant holds on any smooth contour; verify the
        # reversed-kernel value against the indentation limit
        ell = ellipse(1.3, 0.8)
        s0 = 0.7
        t0 = ell.z(np.array([s0]))[0]
        oracle = pv_closed_extrapolated(lambda t: np.ones_like(t), ell, s0)
        # oracle computes P.V. of dt/(t - t0) = +i*pi; the reversed kernel
        # dt/(t0 - t) is its negative
        assert abs(-oracle - pv_singular_weight(ell, t0)) < 1e-6


class TestPvContourIntegral:
    def test_constant_density(self):
        # P.V. of dt/(t - t0) = +i*pi (relation II with f = 1); note the
        # reversed-kernel constant -i*pi lives in pv_singular_weight
        contour, grid = build_unit_circle(256)
        val = pv_contour_integral(lambda t: np.ones_like(t), contour, grid,
                                  1.0 + 0.0j)
        assert abs(val - 1j * np.pi) < 1e-13

    def test_pole_density_matches_relation_two(self):
        contour, grid = build_unit_circle(256)
        f = lambda t: 1.0 / (t - 2.0)
        val = pv_contour_integral(f, contour, grid, 1.0 + 0.0j)
        assert abs(val - 1j * np.pi * f(1.0)) < 1e-12

    def test_identity_density_against_indentation_oracle(self):
        contour, grid = build_unit_circle(256)
        val = pv_contour_integral(lambda t: t, contour, grid, 1j)
        assert abs(val - (-np.pi)) < 1e-12
        oracle = pv_closed_extrapolated(lambda t: t, contour, np.pi / 2)
        assert abs(val - oracle) < 1e-6

    def test_off_node_target(self):
        contour, grid = build_unit_circle(256)
        t0 = np.exp(0.1234567j)
        f = lambda t: np.exp(t)
        val = pv_contour_integral(f, contour, grid, t0)
        assert abs(val - 1j * np.pi * f(t0)) < 1e-12

    def test_linearity(self):
        contour, grid = build_unit_circle(128)
        rng = np.random.default_rng(3)
        f = random_trig_poly(rng)
        g = random_trig_poly(rng)
        a, b = 1.3 - 0.2j, -0.7 + 0.9j
        t0 = np.exp(0.9j)
        combined = pv_contour_integral(
            lambda t: a * f(t) + b * g(t), contour, grid, t0)
        split = a * pv_contour_integral(f, contour, grid, t0) \
            + b * pv_contour_integral(g, contour, grid, t0)
        assert abs(combined - split) < 1e-12 * max(1.0, abs(combined))

    def test_node_count_invariance(self):
        f = lambda t: np.exp(t)
        vals = []
        for n in (64, 128, 256):
            contour, grid = build_unit_circle(n)
            vals.append(pv_contour_integral(f, contour, grid, 1j))
        assert abs(vals[0] - vals[2]) < 1e-10
        assert abs(vals[1] - vals[2]) < 1e-12

    def test_reparameterization_invariance_on_ellipse(self):
        ell = ellipse(1.3, 0.8)
        grid = periodic_trapezoid_grid(256)
        t0 = ell.z(np.array([0.7]))[0]
        val = pv_contour_integral(lambda t: t, ell, grid, t0)
        assert abs(val - 1j * np.pi * t0) < 1e-10

    def test_off_contour_target_rejected(self):
        contour, grid = build_unit_circle(64)
        with pytest.raises(DomainError):
            pv_contour_integral(lambda t: t, contour, grid, 1.5 + 0.0j)


def test_near_zone_width_scale():
    contour, grid = build_unit_circle(256)
    assert near_zone_width(contour, grid) == pytest.approx(
        10.0 * TWO_PI / 256)


def grid_length(curve, grid):
    return near_zone_width(curve, grid) * grid.n / NEAR_ZONE_FACTOR


def ellipse_perimeter():
    """Perimeter of ellipse(1, 0.6), 4 E(m) with m = 1 - 0.6^2."""
    mpmath = pytest.importorskip("mpmath")
    return float(4 * mpmath.ellipe(1 - 0.6 ** 2))


@pytest.mark.parametrize("n, lo, hi", [(8, 1e-4, 1e-3), (32, 1e-12, 1e-11),
                                       (64, 0.0, 1e-14), (256, 0.0, 1e-14),
                                       (1024, 0.0, 1e-14)])
def test_grid_length_against_the_length_sweep(n, lo, hi):
    # sum |z'| w on the grid is spectrally accurate: on ellipse(1, 0.6) it
    # matches the exact perimeter to rounding from n = 64; the bands of
    # smaller grids move by 2e-12 (n = 32) and 3e-4 (n = 8)
    e = ellipse(1.0, 0.6)
    rel = abs(grid_length(e, periodic_trapezoid_grid(n))
              / ellipse_perimeter() - 1.0)
    assert lo <= rel <= hi


def test_thresholds_come_from_the_grid_length():
    # the public width and default band are the ones the functionals apply
    e, g = ellipse(1.0, 0.6), periodic_trapezoid_grid(8)
    length = grid_length(e, g)
    assert length != pytest.approx(ellipse_perimeter(), rel=1e-4)
    z = 0.2 + 0.1j
    cl = classify_point(e, g, z)
    assert cl.delta == DELTA_FRACTION * length
    fv = cauchy_functional(BoundaryFunction(lambda t: 1.0 / (t - 2.0)),
                           e, g, z)
    assert fv.classification == cl
    assert fv.near_zone == (cl.distance < near_zone_width(e, g))
    # on an arc the same sum is the arc length
    assert grid_length(segment(0.0, 3.0 + 4.0j), gauss_panel_grid(4)) == \
        pytest.approx(5.0, rel=1e-15)


def parabola_arc(with_d2z):
    """z(s) = x + i x^2/2 with x = 2s - 1: curvature radius >= 1 on the arc."""
    return JordanArc(
        z=lambda s: (2 * s - 1) + 0.5j * (2 * s - 1) ** 2,
        dz=lambda s: 2.0 + 2j * (2 * s - 1),
        d2z=(lambda s: np.full(np.shape(s), 4j)) if with_d2z else None)


@pytest.mark.parametrize("with_d2z", [True, False])
@pytest.mark.parametrize("kind", ["ellipse", "arc"])
def test_locate_recovers_normal_offsets(kind, with_d2z):
    # a point offset by d along the unit normal at s, with |d| below the
    # radius of curvature, has its closest curve point at s, at distance |d|,
    # found by Newton from the nearest node of a grid of 16, 64 or 256 nodes
    if kind == "ellipse":
        e = ellipse(1.0, 0.6)
        curve = e if with_d2z else ClosedContour(z=e.z, dz=e.dz)
        params, offsets = (0.3, 1.2, 2.0, 3.5, 5.9), (-0.2, -0.05, 0.05, 0.3)
        grids = [periodic_trapezoid_grid(n) for n in (16, 64, 256)]
    else:
        curve = parabola_arc(with_d2z)
        params, offsets = (0.2, 0.35, 0.5, 0.7, 0.85), (-0.2, -0.05, 0.05, 0.3)
        grids = [gauss_panel_grid(p, 8) for p in (2, 8, 32)]
    for grid in grids:
        smp = _sample(curve, grid)
        for s in params:
            zs = curve.z(np.array([s]))[0]
            dz = curve.dz(np.array([s]))[0]
            normal = -1j * dz / abs(dz)
            for d in offsets:
                dist, (s0, on) = smp.closest(zs + d * normal)
                assert s0 == pytest.approx(s, abs=1e-10)
                assert dist == pytest.approx(abs(d), abs=1e-12)
                assert on == pytest.approx(zs, abs=1e-12)


def test_circle_exact_branch_matches_the_newton_branch():
    # the exact closest point of a circle and Newton from the nearest node
    # of the same circle wrapped as a generic contour agree, in the near
    # zone on both sides and on the contour between nodes
    exact = circle(0.3j, 1.2)
    generic = ClosedContour(z=exact.z, dz=exact.dz)
    grid = periodic_trapezoid_grid(64)
    smp_exact, smp_generic = _sample(exact, grid), _sample(generic, grid)
    for s in (0.0, 0.7 * TWO_PI / 64, 2.0, 4.1, TWO_PI - 1e-3):
        for d in (0.0, 1e-12, 1e-3, -1e-3, 0.2, -0.2):
            z = 0.3j + (1.2 + d) * np.exp(1j * s)
            cls = [classify_point(c, grid, z) for c in (exact, generic)]
            assert cls[0].verdict == cls[1].verdict
            assert cls[0].distance == pytest.approx(cls[1].distance,
                                                    abs=1e-14)
            located = [_classify(smp, z, cls[0].delta)[2]
                       for smp in (smp_exact, smp_generic)]
            (s_a, on_a), (s_b, on_b) = located
            assert abs((s_a - s_b + np.pi) % TWO_PI - np.pi) <= 1e-14
            assert abs(on_a - on_b) <= 1e-14
    # the exact branch calls no z beyond the grid sampling
    sizes = []
    counted = ClosedContour(z=lambda s: sizes.append(np.size(s)) or exact.z(s),
                            dz=exact.dz, kind="circle", center=0.3j,
                            radius=1.2)
    classify_point(counted, grid, 0.3j + 1.2 * np.exp(0.7j))
    assert sizes == [grid.n]


def test_segment_closest_point_is_the_projection():
    # Newton from the nearest node of a straight arc lands on the exact
    # projection, clamped to the arc's ends
    a, b = -0.4 + 0.2j, 1.3 - 0.5j
    smp = _sample(segment(a, b), gauss_panel_grid(4, 8))
    rng = np.random.default_rng(11)
    for p in list(a + (b - a) * rng.uniform(-0.3, 1.3, 20)
                  + 0.3 * (rng.standard_normal(20)
                           + 1j * rng.standard_normal(20))) + [a, b]:
        t = min(max(((p - a) * np.conj(b - a)).real / abs(b - a) ** 2, 0.0),
                1.0)
        dist, (s0, on) = smp.closest(p)
        assert s0 == pytest.approx(t, abs=1e-14)
        assert abs(on - (a + (b - a) * t)) <= 1e-14
        assert dist == pytest.approx(abs(p - (a + (b - a) * t)), abs=1e-14)
