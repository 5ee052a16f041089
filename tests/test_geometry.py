import tracemalloc
import warnings

import numpy as np
import pytest

from cauchykit import (AccuracyWarning, BoundaryFunction, CapabilityError,
                       DomainError, InvalidGridError, JordanArc,
                       NonFiniteError, OnContourError,
                       boundary_value, build_unit_circle, cauchy_functional,
                       circle, classify_point, contour_integral, ellipse,
                       gauss_panel_grid, periodic_trapezoid_grid,
                       pv_contour_integral, pv_singular_weight,
                       validate_contour, vanishing_contour_integral)
from cauchykit import geometry
from cauchykit.geometry import (_INVERSE_RESIDUAL, _NODE_BAND, _UNRESOLVED,
                                DELTA_FRACTION, NEAR_ZONE_FACTOR,
                                ClosedContour, _has_close_pair, _level,
                                _pair_sums, _pv_at_all_nodes, _pv_summands,
                                _sample, near_zone_width,
                                panels_from_breakpoints,
                                pv_at_all_nodes, segment, spectral_derivative,
                                trig_interp)

from oracles import (node_pv_integral_longdouble, pv_closed_extrapolated,
                     random_trig_poly)

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


@pytest.mark.parametrize("make", [
    lambda: circle(0.0, np.nan), lambda: circle(complex(np.nan, 0.0), 1.0),
    lambda: circle(0.0, np.inf), lambda: ellipse(np.inf, 1.0),
    lambda: ellipse(1.0, np.nan), lambda: segment(0.0, np.nan),
    lambda: segment(complex(np.inf, 0.0), 1.0)],
    ids=["circle-radius-nan", "circle-center-nan", "circle-radius-inf",
         "ellipse-inf", "ellipse-nan", "segment-nan", "segment-inf"])
def test_curves_refuse_non_finite_parameters(make):
    # circle(0, nan) classified every point "outside"
    with pytest.raises(DomainError, match="finite"):
        make()


@pytest.mark.parametrize("breaks", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf],
                                    [np.nan, 1.0]],
                         ids=["inner-nan", "end-inf", "start-nan"])
def test_breakpoints_must_be_finite(breaks):
    # np.diff(breaks) <= 0 is False for NaN
    with pytest.raises(InvalidGridError):
        panels_from_breakpoints(breaks)


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
    inside = classify_point(contour, grid, 0.0 + 0.0j)
    assert inside.verdict == "inside" and inside.winding == 1
    outside = classify_point(contour, grid, 2.0 + 0.0j)
    assert outside.verdict == "outside" and outside.winding == 0
    on = classify_point(contour, grid, 1.0 + 0.0j)
    assert on.verdict == "on-contour"
    with pytest.raises(DomainError):
        classify_point(contour, grid, complex("nan"))


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
        cl = classify_point(contour, grid, z)
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
    # no pair is closer than 0, repeated points neither: a zero cell side
    # once cast inf and NaN to int64
    repeated = np.repeat(rng.standard_normal(20) + 1j, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (0.0, np.zeros(repeated.size)):
            assert not _has_close_pair(repeated, h)
            assert not _pairs_close_per_point(repeated, h)
        assert _has_close_pair(repeated, 1e-3)


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


def _pairs_close_per_point(zs, h):
    # all pairs, each held to the larger of its two points' thresholds
    h = np.zeros(zs.shape) + h
    d = zs[:, None] - zs[None, :]
    d2 = d.real ** 2 + d.imag ** 2
    d2[np.diag_indices(zs.size)] = np.inf
    return bool(np.any(d2 < np.maximum(h[:, None], h[None, :]) ** 2))


def test_close_pair_search_matches_all_pairs_on_random_clouds():
    # 2,000 clouds (planes, dense clusters, near-lines, lattices with
    # repeated points), each at a scalar threshold near its closest gap and
    # at per-point thresholds spread over 1.6 decades
    rng = np.random.default_rng(36)
    verdicts = {True: 0, False: 0}
    for k in range(2000):
        size = int(rng.integers(2, 120))
        noise = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        pts = [noise,
               rng.choice(rng.standard_normal(3) * (1 + 1j), size)
               + 1e-2 * noise,
               noise.real + 1e-9j * noise.imag,
               0.1 * (rng.integers(0, 8, size)
                      + 1j * rng.integers(0, 8, size)),
               ][k % 4]
        gaps = np.abs(pts[:, None] - pts[None, :])
        gaps[np.diag_indices(size)] = np.inf
        closest = gaps.min() if gaps.min() > 0 else 0.05
        for h in (closest * rng.uniform(0.8, 1.25),
                  closest * 10 ** rng.uniform(-1.5, 0.1, size)):
            want = _pairs_close_per_point(pts, h)
            assert _has_close_pair(pts, h) == want
            verdicts[want] += 1
    assert min(verdicts.values()) > 500
    # a hexagonal lattice of spacing just above h packs more than four
    # points in some three cells without a closer pair
    a, b = np.meshgrid(np.arange(12), np.arange(12))
    hexagonal = (a + 0.5 * b + 0.5j * np.sqrt(3.0) * b).ravel()
    for turn in rng.random(50):
        pts = hexagonal * np.exp(2j * np.pi * turn) + turn
        assert not _has_close_pair(pts, 1.0 - 1e-9)
        assert _has_close_pair(pts, 1.0 + 1e-9)


def _peanut(width):
    # simple and counterclockwise, mirror-symmetric in the real axis, with a
    # waist at x = 0 where its two arcs run level, 2*width apart
    def z(s):
        s = np.asarray(s, dtype=float)
        return np.cos(s) + 1j * np.sin(s) * (width
                                             + (1 - width) * np.cos(s) ** 2)

    def dz(s):
        s = np.asarray(s, dtype=float)
        c, si = np.cos(s), np.sin(s)
        return -si + 1j * (c * (width + (1 - width) * c ** 2)
                           - 2 * (1 - width) * si ** 2 * c)
    return ClosedContour(z, dz)


@pytest.mark.parametrize("contour,grid", [
    (ellipse(1.0, b), periodic_trapezoid_grid(n))
    for b in (0.06, 0.05) for n in (32, 256, 1024)] + [
    (ellipse(1.0, 0.6), gauss_panel_grid(8, 24, a=0.0, b=TWO_PI))] + [
    (c, gauss_panel_grid(8, m, a=0.0, b=TWO_PI))
    for m in (28, 32, 48) for c in (circle(), ClosedContour(circle().z,
                                                            circle().dz))],
    ids=[f"ellipse-{b}-n{n}" for b in (0.06, 0.05) for n in (32, 256, 1024)]
    + ["ellipse-panels-8x24"] + [f"{kind}-panels-8x{m}" for m in (28, 32, 48)
                                 for kind in ("circle", "generic-circle")])
def test_validate_contour_holds_each_pair_to_its_own_spacing(contour, grid):
    # these simple contours have neighbouring nodes closer than a tenth of
    # the mean gap (length/n), which read as a self-intersection
    validate_contour(contour, grid)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_validate_contour_refuses_arcs_within_the_local_gap(n):
    # the peanut's two arcs pass 0.05 of the local node gap 2*pi/n apart at
    # its waist, without crossing: refused at sample resolution; 0.2 apart
    # they pass
    with pytest.raises(DomainError, match="self-intersects"):
        validate_contour(_peanut(0.025 * TWO_PI / n),
                         periodic_trapezoid_grid(n))
    validate_contour(_peanut(0.1 * TWO_PI / n), periodic_trapezoid_grid(n))


def test_circles_are_checked_on_their_samples():
    # a circle's shape checks read its rounded samples, as any contour's:
    # on a grid whose phases fail them every circle is refused, with the
    # generic contour's message, and so is a circle whose nodes round to
    # within a tenth of their spacing (1e-9 is below ulp(1e5)*1024/2 pi)
    tiny = circle(1e5, 1e-9)
    for c in (tiny, ClosedContour(tiny.z, tiny.dz)):
        with pytest.raises(DomainError, match="self-intersects"):
            validate_contour(c, periodic_trapezoid_grid(1024))
    validate_contour(circle(0.0, 1e-9), periodic_trapezoid_grid(1024))
    n = 64
    half = geometry.QuadratureGrid(np.pi * np.arange(n) / n,
                                   np.full(n, TWO_PI / n),
                                   "periodic-trapezoid")
    nodes = TWO_PI * np.arange(n) / n
    doubled = geometry.QuadratureGrid(np.append(nodes, nodes[5]),
                                      np.full(n + 1, TWO_PI / (n + 1)),
                                      "periodic-trapezoid")
    for bad, match in ((half, "turning number"), (doubled, "self-intersects")):
        for c in (circle(), circle(0.3j, 1.2),
                  ClosedContour(circle().z, circle().dz)):
            with pytest.raises(DomainError, match=match):
                validate_contour(c, bad)


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


CIRCLE_GRIDS = [periodic_trapezoid_grid(n) for n in (8, 16, 64, 256, 1024,
                                                     4096)]


@pytest.mark.parametrize("grid", CIRCLE_GRIDS
                         + [CIRCLE_GRIDS[2]._shifted, CIRCLE_GRIDS[3]._shifted,
                            gauss_panel_grid(16, 16, a=0.0, b=TWO_PI)],
                         ids=["n8", "n16", "n64", "n256", "n1024", "n4096",
                              "n64-shifted", "n256-shifted", "panels"])
def test_circle_samples_equal_its_callables_bit_for_bit(grid):
    # a circle is sampled from the grid's phases by its callables' own
    # expressions, so every sample and the length keep their bits
    for center, radius in ((0.0, 1.0), (0.3j, 1.2), (2.0 - 1.0j, 0.01),
                           (-1e3 + 5.0j, 500.0), (-0.0 - 0.0j, 3.7)):
        c = circle(center, radius)
        smp = _sample(c, grid)
        dz = c.dz(grid.nodes)
        for got, want in ((smp.zs, c.z(grid.nodes)), (smp.dzs, dz),
                          (smp.dzw, dz * grid.weights)):
            assert got.tobytes() == want.tobytes()
        assert smp.length == float((np.abs(dz) * grid.weights).sum())


def test_grid_phase_is_built_once_and_read_only():
    grid = periodic_trapezoid_grid(64)
    phase = grid._phase
    assert grid._phase is phase
    assert phase.tobytes() == np.exp(1j * grid.nodes).tobytes()
    with pytest.raises(ValueError):
        phase[0] = 0.0
    # the shifted rule has phases of its own
    assert grid._shifted._phase.tobytes() == np.exp(
        1j * grid._shifted.nodes).tobytes()


@pytest.mark.parametrize("grid", CIRCLE_GRIDS,
                         ids=["n8", "n16", "n64", "n256", "n1024", "n4096"])
def test_validate_contour_checks_the_circle_contract(grid):
    # kind "circle" declares z = center + radius*exp(i s), which the phase
    # samples read in place of z and z': a curve that is not that is refused.
    # A reversed circle is generic, sampled by its callables, and refused
    # as clockwise only
    for c in (circle(), circle(0.3j, 1.2), circle(-1e3 + 5.0j, 500.0)):
        validate_contour(c, grid)
        with pytest.raises(DomainError, match="turning number"):
            validate_contour(c.reversed(), grid)
    ell, c = ellipse(1.0, 0.6), circle(0.3j, 1.2)
    declared = [ClosedContour(ell.z, ell.dz, kind="circle", radius=1.0),
                ClosedContour(lambda s: c.z(np.asarray(s) + 0.1),
                              lambda s: c.dz(np.asarray(s) + 0.1),
                              kind="circle", center=0.3j, radius=1.2)]
    for bad in declared:
        with pytest.raises(DomainError, match="kind 'circle'"):
            validate_contour(bad, grid)


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


def test_panel_grids_record_their_breaks():
    breaks = np.array([0.0, 0.1, 0.5, 1.0])
    grid = panels_from_breakpoints(breaks, 8)
    breaks[1] = 0.2                     # the grid keeps its own copy
    assert grid.breaks.tolist() == [0.0, 0.1, 0.5, 1.0]
    assert np.array_equal(gauss_panel_grid(4, 12, a=-1.0, b=3.0).breaks,
                          np.linspace(-1.0, 3.0, 5))
    assert periodic_trapezoid_grid(8).breaks is None


def test_grids_compare_and_hash_by_identity():
    a, b = periodic_trapezoid_grid(8), periodic_trapezoid_grid(8)
    assert a == a and a != b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)
    panels = gauss_panel_grid(4, 8)
    assert {panels: 1}[panels] == 1


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
    ell, grid = ellipse(1.0, 0.6), periodic_trapezoid_grid(4096)
    samples = 1.0 / (ell.z(grid.nodes) - 2.0)
    assert _peak_bytes(lambda: pv_at_all_nodes(samples, ell, grid)) < 2e6


@pytest.mark.parametrize("n", [8, 64, 300, 1024])
def test_pair_sums_match_the_dense_matrix(n):
    # each pair is formed once, in row blocks (the last one shorter at
    # n=300), against R @ cols with the full R_ij = 1/(z_j - z_i), 0 on its
    # diagonal, for one column and for two
    zs = _c_shape().z(periodic_trapezoid_grid(n).nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        dense = 1.0 / (zs[None, :] - zs[:, None])
    dense[np.arange(n), np.arange(n)] = 0.0
    rng = np.random.default_rng(n)
    cols = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    for c in (cols[:, :1], cols):
        ref = dense @ c
        got = _pair_sums(zs, c)
        assert got.shape == c.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _vanishing_cases(pole, inner):
    """(density, order, complement): a density regular inside at orders
    0-2, the same offset by 1e6, and a complement density at orders 0-2."""
    derivs = (lambda t: -1.0 / (t - pole) ** 2 + np.exp(t),
              lambda t: 2.0 / (t - pole) ** 3 + np.exp(t))
    f = BoundaryFunction(lambda t: 1.0 / (t - pole) + np.exp(t), derivs)
    offset = BoundaryFunction(lambda t: 1e6 + f.func(t), derivs)
    F = BoundaryFunction(lambda t: 1.0 / (t - inner) ** 2, decay=2)
    return ([(f, k, False) for k in range(3)] + [(offset, 0, False)]
            + [(F, k, True) for k in range(3)])


@pytest.mark.parametrize("n", [64, 300, 1024])
def test_vanishing_integral_matches_the_long_double_sum(n):
    # the density-free pair sum of vanishing_contour_integral against the
    # discrete double sum formed term by term in long double: it reads as
    # close as pv_at_all_nodes summed against z'w does, both within 4 eps
    # of sum_i |z'_i w_i f_i| (at most 1.4 eps of it seen), with the 1e6
    # offset about 3e-10
    circ = circle(0.3 + 0.2j, 2.5)
    grid = periodic_trapezoid_grid(n)
    for contour, pole, inner in (
            (ellipse(1.0, 0.6), 2.0, 0.2j), (_c_shape(), 2.0 + 3.0j, -0.7),
            (ClosedContour(circ.z, circ.dz, circ.d2z), 2.0 + 3.0j, 0.3)):
        cases = _vanishing_cases(pole, inner)
        smp = _sample(contour, grid)
        samples = np.stack([f.samples(contour, grid, k) for f, k, _ in cases],
                           axis=1)
        diag = np.stack([grid.weights * spectral_derivative(s)
                         for s in samples.T], axis=1)
        exact = node_pv_integral_longdouble(samples, diag, smp.zs, smp.dzw)
        for (f, k, complement), s, ref in zip(cases, samples.T, exact):
            ref = -ref if complement else ref
            got = vanishing_contour_integral(f, contour, grid, k, complement)
            summed = np.sum(pv_at_all_nodes(s, contour, grid) / (1j * np.pi)
                            * smp.dzw)
            summed = -summed if complement else summed
            bar = 4 * np.finfo(float).eps * np.sum(np.abs(smp.dzw * s))
            assert abs(got - ref) <= bar
            assert abs(summed - ref) <= bar


def _generic_circle():
    circ = circle(0.3 + 0.2j, 2.5)
    return ClosedContour(circ.z, circ.dz, circ.d2z)


def _pair_sum_longdouble(zs, u):
    """a_i = sum_(j != i) u_j/(z_j - z_i), formed in np.clongdouble, 64
    rows at a time."""
    z, u = (np.asarray(v, dtype=np.clongdouble) for v in (zs, u))
    out = np.empty(z.size, dtype=np.clongdouble)
    for lo in range(0, z.size, 64):
        rows = np.arange(lo, min(lo + 64, z.size))
        gap = z[None, :] - z[rows, None]
        gap[rows - lo, rows] = 1.0
        quot = u / gap
        quot[rows - lo, rows] = 0.0
        out[rows] = quot.sum(axis=1)
    return out


@pytest.mark.parametrize("n", [128, 300, 1024])
@pytest.mark.parametrize("contour", [ellipse(1.0, 0.6), _c_shape(),
                                     _generic_circle()],
                         ids=["ellipse", "c-shape", "generic-circle"])
def test_punctured_pair_sum_reads_its_closed_form(contour, n):
    # the density-free pair sum a = R z'w of _pv_summands, read back from
    # its summands of g = exp(i s), is i*pi - w z''/(2 z') within the
    # trapezoid error of the smooth remainder, against the pair sum itself
    # in long double (5e-13 seen at n = 1,024)
    grid = periodic_trapezoid_grid(n)
    smp = _sample(contour, grid)
    g = np.exp(1j * grid.nodes)
    plain = g * (1j * np.pi) + grid.weights * spectral_derivative(g)
    a = (plain - _pv_summands(g, smp)) / (2.0 * (g - np.mean(g)))
    ref = _pair_sum_longdouble(smp.zs, smp.dzw)
    assert np.max(np.abs(a - ref)) <= 1e-12


def test_vanishing_integral_enters_no_pair_sum(monkeypatch):
    def entered(zs, cols):
        raise AssertionError("the pair sum was entered")
    monkeypatch.setattr(geometry, "_pair_sums", entered)
    grid = periodic_trapezoid_grid(256)
    for contour, pole, inner in ((ellipse(1.0, 0.6), 2.0, 0.2j),
                                 (_c_shape(), 2.0 + 3.0j, -0.7)):
        u = _sample(contour, grid).dzw
        for f, k, complement in _vanishing_cases(pole, inner):
            got = vanishing_contour_integral(f, contour, grid, k, complement)
            s = f.samples(contour, grid, k)
            assert abs(got) <= 4 * np.finfo(float).eps * np.sum(np.abs(u * s))


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
    # zone on both sides and on the contour between nodes, one target at a
    # time and as one array of targets
    exact = circle(0.3j, 1.2)
    generic = ClosedContour(z=exact.z, dz=exact.dz)
    grid = periodic_trapezoid_grid(64)
    smp_exact, smp_generic = _sample(exact, grid), _sample(generic, grid)
    zs = [0.3j + (1.2 + d) * np.exp(1j * s)
          for s in (0.0, 0.7 * TWO_PI / 64, 2.0, 4.1, TWO_PI - 1e-3)
          for d in (0.0, 1e-12, 1e-3, -1e-3, 0.2, -0.2)]
    for z in zs:
        cls = [classify_point(c, grid, z) for c in (exact, generic)]
        assert cls[0].verdict == cls[1].verdict
        assert cls[0].distance == pytest.approx(cls[1].distance, abs=1e-14)
        located = [smp.closest(z, smp.near_zone)[1]
                   for smp in (smp_exact, smp_generic)]
        (s_a, on_a), (s_b, on_b) = located
        assert abs((s_a - s_b + np.pi) % TWO_PI - np.pi) <= 1e-14
        assert abs(on_a - on_b) <= 1e-14
    dist, (s0, on) = smp_generic.closest(np.array(zs), smp_generic.near_zone)
    for i, z in enumerate(zs):
        d, (s, o) = smp_generic.closest(z, smp_generic.near_zone)
        assert (dist[i], s0[i], on[i]) == (d[0], s[0], o[0])
    # the exact branch calls no z, and a circle is sampled from the grid's
    # phases, so z is never called
    sizes = []
    counted = ClosedContour(z=lambda s: sizes.append(np.size(s)) or exact.z(s),
                            dz=exact.dz, kind="circle", center=0.3j,
                            radius=1.2)
    classify_point(counted, grid, 0.3j + 1.2 * np.exp(0.7j))
    assert sizes == []


def test_circle_locates_only_the_points_below_the_bound():
    # as on every other curve, s0 and z(s0) are NaN at a point that is not
    # below ``below``, even when another point of the array is
    c, grid = circle(0.3j, 1.2), periodic_trapezoid_grid(64)
    smp = _sample(c, grid)
    points = np.array([0.3j + 1.2005j, 0.3j + 4.0])
    dist, (s0, on) = smp.closest(points, 0.01)
    assert dist == pytest.approx([5e-4, 2.8], abs=1e-14)
    assert s0[0] == pytest.approx(np.pi / 2, abs=1e-15)
    assert on[0] == pytest.approx(1.5j, abs=1e-15)
    assert np.isnan(s0[1]) and np.isnan(on[1])
    _, (s_one, on_one) = smp.closest(points[:1], 0.01)
    assert (s0[0], on[0]) == (s_one[0], on_one[0])


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


def _square():
    """The square with corners +-1 +-i, each side a quarter of [0, 2*pi):
    z' jumps at the four corners."""
    corners = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])

    def side(s):
        u = (np.asarray(s, dtype=float) % TWO_PI) / (np.pi / 2)
        return u, np.minimum(u.astype(int), 3)

    def z(s):
        u, j = side(s)
        return corners[j] + (u - j) * (corners[j + 1] - corners[j])

    def dz(s):
        _, j = side(s)
        return (corners[j + 1] - corners[j]) / (np.pi / 2)
    return ClosedContour(z, dz)


def _quarter_arc(t):
    """Indicator of the quarter arc 0 <= arg t < pi/2 of the unit circle."""
    return (np.angle(t) % TWO_PI < np.pi / 2).astype(complex)


def _pole_times_dz(contour):
    return lambda s: contour.dz(s) / (contour.z(s) - 2.0)


# top-mode levels at n = 64 / 256 / 1,024; a level marked "<=" is rounding
RESOLUTION_TABLE = {
    "square z'": (_square().dz, (4.7e-2, 1.2e-2, 3.0e-3)),
    "quarter-arc jump": (lambda s: _quarter_arc(np.exp(1j * s)),
                         (1.6e-2, 4.2e-3, 1.1e-3)),
    "1/(t - 1.06)": (lambda s: 1.0 / (np.exp(1j * s) - 1.06),
                     (1.4e-2, 2.1e-4, 1.1e-11)),
    "1/(t - 2) z', circle": (_pole_times_dz(circle(0.0, 1.0)),
                             (6.0e-8, "<=3e-17", "<=6e-17")),
    "1/(t - 2) z', ellipse": (_pole_times_dz(ellipse(1.0, 0.6)),
                              (1.3e-9, "<=3e-17", "<=6e-17")),
}


@pytest.mark.parametrize("name", RESOLUTION_TABLE)
@pytest.mark.parametrize("col,n", enumerate((64, 256, 1024)))
def test_resolution_level_pins_the_table(name, col, n):
    func, levels = RESOLUTION_TABLE[name]
    level = _level(func(periodic_trapezoid_grid(n).nodes))
    want = levels[col]
    if isinstance(want, str):
        assert level <= 2.0 * float(want[2:]) < _UNRESOLVED
    else:
        assert want / 2.0 <= level <= 2.0 * want
        assert (level > _UNRESOLVED) == (want > _UNRESOLVED)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_validate_contour_warns_on_corners(n):
    with pytest.warns(AccuracyWarning, match="z' is not resolved"):
        validate_contour(_square(), periodic_trapezoid_grid(n))


@pytest.mark.parametrize("contour,n", [(_square(), 64), (_square(), 256),
                                       (_square(), 1024), (_c_shape(), 16)],
                         ids=["square-64", "square-256", "square-1024",
                              "c-shape-16"])
def test_vanishing_integral_warns_on_an_unresolved_contour(contour, n):
    # off the circle the route assumes a smooth contour; the square reads
    # 1.2e-2 at n = 64 and 7.4e-4 at n = 1,024 for a density that vanishes
    f = BoundaryFunction(lambda t: 1.0 / (t - 3.0))
    with pytest.warns(AccuracyWarning, match="z' is not resolved") as log:
        vanishing_contour_integral(f, contour, periodic_trapezoid_grid(n))
    assert log[0].filename == __file__


@pytest.mark.parametrize("n", [16, 32, 64, 1024])
def test_vanishing_integral_is_silent_on_resolved_contours(n):
    f = BoundaryFunction(lambda t: 1.0 / (t - 3.0))
    grid = periodic_trapezoid_grid(n)
    contours = [ellipse(1.0, 0.6), ellipse(0.6, 0.45), _generic_circle()]
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        for contour in contours + ([_c_shape()] if n >= 32 else []):
            vanishing_contour_integral(f, contour, grid)


@pytest.mark.parametrize("s0", [np.pi / 2, np.pi / 2 + 1e-3, 1.0])
def test_pv_of_a_jump_warns(s0):
    # on a node, next to a node and far from the jump alike
    contour, grid = build_unit_circle(256)
    with pytest.warns(AccuracyWarning, match="density is not resolved"):
        pv_contour_integral(_quarter_arc, contour, grid, np.exp(1j * s0))


class TestPanelGrids:
    """Closed contours on Gauss panels: a principal value is the subtracted
    sum, next to a node on the rule with one more node per panel
    (grid._shifted), exact on and next to a node and across s = 0;
    pv_at_all_nodes is a product integral on the panels (_arc_pv_rows); a
    step that assumes equispaced periodic nodes raises CapabilityError
    (TestPanelGridDerivatives, test_cauchy)."""

    GRID = gauss_panel_grid(16, 16, a=0.0, b=TWO_PI)
    CONTOURS = pytest.mark.parametrize(
        "contour", [circle(0.0, 1.0), ellipse(1.0, 0.6)],
        ids=["circle", "ellipse"])

    @staticmethod
    def pole(t):
        return 1.0 / (t - 2.0)

    @CONTOURS
    def test_pv_between_nodes_is_exact(self, contour):
        t0 = contour.z(np.array([0.7]))[0]
        val = pv_contour_integral(self.pole, contour, self.GRID, t0)
        assert abs(val - 1j * np.pi * self.pole(t0)) <= 1e-13

    @CONTOURS
    @pytest.mark.parametrize("node", [0, 5, 100])
    def test_pv_on_a_node_raises(self, contour, node):
        # named for the CapabilityError it once pinned; now exact
        t0 = contour.z(self.GRID.nodes[node:node + 1])[0]
        val = pv_contour_integral(self.pole, contour, self.GRID, t0)
        assert abs(val - 1j * np.pi * self.pole(t0)) <= 1e-13

    @CONTOURS
    def test_pv_at_all_nodes_raises(self, contour):
        # named for the CapabilityError it once pinned; now exact
        samples = self.pole(contour.z(self.GRID.nodes))
        pv = pv_at_all_nodes(samples, contour, self.GRID)
        assert np.max(np.abs(pv - 1j * np.pi * samples)) <= 1e-13

    @CONTOURS
    @pytest.mark.parametrize("grid", [
        GRID, gauss_panel_grid(16, 16, a=-np.pi, b=np.pi),
        panels_from_breakpoints(0.3 - np.pi + TWO_PI * (
            np.linspace(0.0, 1.0, 17)
            + 0.08 * np.sin(TWO_PI * np.linspace(0.0, 1.0, 17))), 16),
        gauss_panel_grid(16, 8, a=0.0, b=TWO_PI),
        panels_from_breakpoints(
            -np.pi + TWO_PI * (np.arange(17) / 16.0) ** 1.5, 16)],
        ids=["from-0", "from-minus-pi", "graded-from-0.3-minus-pi",
             "order-8", "graded-1.5-from-minus-pi"])
    def test_next_to_nodes_breaks_and_s0_zero(self, contour, grid):
        # f is analytic inside: P.V. of f(t)/(t - t0) dt is i*pi*f(t0) and
        # K_n[f](t0) is f^(n)(t0), at s = 0 and beside it, on every break,
        # on and next to nodes at panel ends and inside panels, and across
        # the contour; t0's s0 lies in [0, 2*pi) whatever interval the grid
        # spans
        f = BoundaryFunction(lambda t: 1.0 / (t - 2.0) + t ** 3, derivs=(
            lambda t: -1.0 / (t - 2.0) ** 2 + 3.0 * t ** 2,))
        order = grid.n // (grid.breaks.size - 1)
        nodes = grid.nodes[[0, 1, order - 1, order, 100, -1], None]
        offsets = np.array([0.0, 1e-12, 1e-9, 1e-6])
        s0 = np.concatenate(([0.0, 0.01, TWO_PI - 0.01], grid.breaks,
                             (nodes + offsets).ravel(),
                             (nodes - offsets[1:]).ravel(),
                             np.linspace(0.0, TWO_PI, 48, endpoint=False)
                             + 0.05)) % TWO_PI
        for t0 in contour.z(s0):
            want = f(t0)
            pv = pv_contour_integral(f.func, contour, grid, t0)
            assert abs(pv - 1j * np.pi * want) <= 1e-13
            assert abs(boundary_value(f, contour, grid, t0) - want) \
                <= 1e-13
            assert abs(boundary_value(f, contour, grid, t0, 1)
                       - f.derivs[0](t0)) <= 1e-13

    @CONTOURS
    def test_coarse_panels(self, contour):
        # eight panels turn by up to 75 degrees each on the ellipse: a near
        # panel's end beyond t0's own panel is never held at the break band
        grid = gauss_panel_grid(8, 16, a=0.0, b=TWO_PI)
        f = lambda t: 1.0 / (t - 2.0) + t ** 3
        s0 = np.concatenate((np.linspace(0.0, TWO_PI, 97, endpoint=False)
                             + 0.0123, grid.nodes, grid.nodes + 1e-9))
        for t0 in contour.z(s0):
            pv = pv_contour_integral(f, contour, grid, t0)
            assert abs(pv - 1j * np.pi * f(t0)) <= 1e-11
        samples = f(contour.z(grid.nodes))
        pv = pv_at_all_nodes(samples, contour, grid)
        assert np.max(np.abs(pv - 1j * np.pi * samples)) <= 1e-11

    @CONTOURS
    def test_two_panels_refuse_next_to_a_node(self, contour):
        # named for the CapabilityError it once pinned next to a node: two
        # panels limit the rule itself, on and next to a node as between
        # nodes; the product integral of pv_at_all_nodes needs three
        # distinct near panels
        grid = gauss_panel_grid(2, 16, a=0.0, b=TWO_PI)
        f = lambda t: 1.0 / (t - 2.0) + t ** 3
        s0 = np.concatenate(([0.5 * (grid.nodes[3] + grid.nodes[4])],
                             grid.nodes[[0, 3, 31]],
                             grid.nodes[[0, 3, 31]] + 1e-9))
        for t0 in contour.z(s0):
            pv = pv_contour_integral(f, contour, grid, t0)
            assert abs(pv - 1j * np.pi * f(t0)) <= 1e-8
        with pytest.raises(CapabilityError, match="three panels"):
            pv_at_all_nodes(f(contour.z(grid.nodes)), contour, grid)

    @CONTOURS
    def test_band_edges_where_a_small_panel_meets_a_large_one(self, contour):
        # the band is a node's weight, not the gap across a break, which on
        # this grid reaches past nodes of the moved rule: targets on those
        # and at the band's edge either side of every node, in the smallest
        # panel and in the largest, which it meets across s = pi
        grid = panels_from_breakpoints(
            -np.pi + TWO_PI * (np.arange(17) / 16.0) ** 1.5, 20)
        ends = np.r_[:20, -20:0]
        edge = 0.999 * _NODE_BAND * grid.weights[ends]
        f = lambda t: 1.0 / (t - 2.0) + t ** 3
        for t0 in contour.z(np.concatenate((
                grid._shifted.nodes[np.r_[:21, -21:0]],
                grid.nodes[ends] - edge, grid.nodes[ends] + edge)) % TWO_PI):
            pv = pv_contour_integral(f, contour, grid, t0)
            assert abs(pv - 1j * np.pi * f(t0)) <= 1e-13

    def test_shifted_rule_keeps_off_the_nodes(self):
        # Gauss nodes of orders m and m + 1 interlace: on equal and graded
        # panels alike each node of grid._shifted keeps 0.7/(m + 2) of the
        # nearest grid node's weight from that node, beyond the band in
        # which _pv takes the shifted rule, and to m = 22 beyond twice the
        # band, so that a target in the band is as far from every shifted
        # node as a target outside it from every grid node
        for order in range(2, 41):
            for grid in (gauss_panel_grid(3, order, a=0.0, b=TWO_PI),
                         panels_from_breakpoints(-np.pi + TWO_PI * (
                             np.arange(17) / 16.0) ** 1.5, order)):
                (ring, w), s = grid._ring, grid._shifted.nodes
                j = np.searchsorted(ring, s)
                gap = np.minimum((s - ring[j - 1]) / w[j - 1],
                                 (ring[j] - s) / w[j])
                assert gap.min() >= 0.7 / (order + 2)
                assert gap.min() > (2 if order <= 22 else 1) * _NODE_BAND

    @CONTOURS
    def test_on_moved_nodes_at_order_48(self, contour):
        # from order 48 a node of grid._shifted lies within the band of a
        # grid node: a target on it stays on the grid's rule, whose node it
        # is farther from, and reads the value, not 0/0 and a RuntimeWarning
        grid = gauss_panel_grid(4, 48, a=0.0, b=TWO_PI)
        moved = grid._shifted.nodes
        f = lambda t: 1.0 / (t - 2.0) + t ** 3
        for t0 in contour.z(np.concatenate((moved, moved[:8] + 1e-9,
                                            moved[-8:] - 1e-9))):
            pv = pv_contour_integral(f, contour, grid, t0)
            assert abs(pv - 1j * np.pi * f(t0)) <= 1e-13

    @CONTOURS
    @pytest.mark.parametrize("n_panels, order, trusted", [
        (16, 16, True), (16, 24, True), (8, 32, False), (4, 40, False)])
    def test_panel_record_warns_when_its_inverses_are_off(
            self, contour, n_panels, order, trusted):
        # pv_at_all_nodes reads each panel's inverse Legendre-Vandermonde
        # matrix from the samples' record, which past order 24 loses digits
        # (8 x 32 errs by 5e-9 on the circle): each call on such a record
        # warns, whether it built the record or found it built
        grid = gauss_panel_grid(n_panels, order, a=0.0, b=TWO_PI)
        smp = _sample(contour, grid)
        samples = 1.0 / (smp.zs - 2.0) + smp.zs ** 3
        for _ in range(2):
            if trusted:
                pv = _pv_at_all_nodes(samples, smp)
                assert np.max(np.abs(pv - 1j * np.pi * samples)) <= 1e-12
            else:
                with pytest.warns(AccuracyWarning, match="Vandermonde"):
                    _pv_at_all_nodes(samples, smp)
        assert (smp.panels.residual <= _INVERSE_RESIDUAL) == trusted


@pytest.mark.parametrize("turn", [0.0, 0.5, 1.0, 1.9])
def test_order_12_arc_panels_are_trusted(turn):
    # the arcs' own panels (plemelj, airfoil) have order 12 and from 8 per
    # arc up: on a segment and on circular arcs turning up to 1.9 pi their
    # record reads far below the bound at which it warns
    arc = segment(-1.0, 1.0) if not turn else JordanArc(
        z=lambda s: np.exp(1j * np.pi * turn * np.asarray(s)),
        dz=lambda s: 1j * np.pi * turn * np.exp(1j * np.pi * turn
                                                * np.asarray(s)))
    for n_panels in (8, 16, 24, 37):
        record = _sample(arc, gauss_panel_grid(n_panels, 12)).panels
        assert record.residual <= 1e-3 * _INVERSE_RESIDUAL


def test_arc_endpoints_are_its_ends():
    arc = segment(1.0 + 1.0j, 2.0)
    assert (arc.a, arc.b) == (1.0 + 1.0j, 2.0 + 0.0j)
    quarter = JordanArc(z=lambda s: np.exp(0.5j * np.pi * np.asarray(s)),
                        dz=lambda s: 0.5j * np.pi
                        * np.exp(0.5j * np.pi * np.asarray(s)))
    assert quarter.a == 1.0 and quarter.b == pytest.approx(1j, abs=1e-16)
