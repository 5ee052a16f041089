"""Command-line front end: verification suites, airfoil tables, and the
inverse-probe and transform utilities.

Exit codes: 0 all checks pass, 1 a numeric check failed, 2 usage, parse or
--out write error.  Output is CSV (default) or JSON tagged "cauchy-kit/1"
(``probe`` always writes JSON), byte-identical across runs for a fixed
configuration and seed.  Each subcommand accepts only the options it reads.

``CHECKS`` is the one registry of checks, run by ``verify`` and asserted by
the acceptance tests.  A check maps a grid size n and a fresh random
generator to a residual that passes at or below its fixed tolerance; n
counts trapezoid nodes on the unit circle or periodic samples, and the
plemelj suite takes 3n/32 order-12 panels (24 at the default n = 256).  A
check that an acceptance criterion asserts carries its number and covers
its inputs at the criterion's n and seed.  Each tolerance is fixed for
that grid size: a coarser ``--n`` fails rows in every suite at n = 8, and
in ``convergence`` and ``direct-problem`` at n = 64.
"""

import argparse
import functools
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

from . import (ArcDensity, BoundaryFunction, CauchyKitError, FlowConfig,
               ParseError, PeriodicFunction, RealLineFunction,
               SingularityPrescription, __version__, arc_cauchy_integral,
               boundary_value, build_unit_circle, catalog_function,
               circulation, complement_boundary_value, contour_integral,
               derivative_bound_check, ellipse, exterior_annihilation_check,
               far_field_circulation, flat_plate_complex_velocity,
               gauss_panel_grid, hilbert_circular,
               hilbert_circular_complementary,
               hilbert_circular_complementary_inverse,
               hilbert_circular_inverse, hilbert_complementary, hilbert_line,
               hilbert_line_inverse, leading_edge_suction, lift,
               mean_value_check, normal_force, normalization_check,
               one_sided_limit, pade_pole_probe, parseval_check,
               periodic_trapezoid_grid, plemelj_limits,
               poincare_bertrand_residual, pressure_jump, pv_singular_weight,
               reconstruct_from_jump, segment, surface_velocities,
               taylor_coefficients, uniform_convergence_residuals,
               vanishing_contour_integral)

SCHEMA = "cauchy-kit/1"

# transform kind -> function; the circular kinds take a PeriodicFunction,
# the line kinds a RealLineFunction and targets
TRANSFORM_KINDS = {
    "circular": hilbert_circular,
    "circular-inverse": hilbert_circular_inverse,
    "circular-complementary": hilbert_circular_complementary,
    "circular-complementary-inverse": hilbert_circular_complementary_inverse,
    "line": hilbert_line,
    "line-inverse": hilbert_line_inverse,
    "line-complementary": hilbert_complementary,
}


# ---------------------------------------------------------------------------
# the check registry

Check = namedtuple("Check", "id suite criterion residual tolerance")
CHECKS = []                     # in suite and row order


def _suite(suite):
    def add(check_id, tolerance, residual, criterion=None):
        CHECKS.append(Check(check_id, suite, criterion, residual, tolerance))
    return add


def _circle(value):
    """value(contour, grid) on the unit circle at n nodes."""
    return lambda n, rng: value(*build_unit_circle(n))


def _points(value):
    """The largest |value(contour, grid, t0)| at 32 points of the circle."""
    t0s = np.exp(2j * np.pi * np.arange(32) / 32)
    return _circle(lambda c, g: max(abs(value(c, g, t0)) for t0 in t0s))


def _periodic(value):
    """The largest |value(theta)| at n equispaced angles from -pi."""
    return lambda n, rng: np.abs(value(-np.pi + 2.0 * np.pi
                                       * np.arange(n) / n)).max()


def _uniform(f, order, inside):
    """J_n residual at 50 seeded targets inside radius 0.85 or in 1.35..3.35"""
    def residual(n, rng):
        a, b, c, d = rng.random((4, 50))
        z = 0.85 * np.sqrt(a) * np.exp(2j * np.pi * b) if inside \
            else (1.35 + 2.0 * c) * np.exp(2j * np.pi * d)
        rep = uniform_convergence_residuals(f, *build_unit_circle(n), z, order)
        return rep.max_inside if inside else rep.max_outside
    return residual


def _trapezoid_ratio(n, rng):
    """0 when the error for 1/t on an ellipse falls tenfold per doubling."""
    errs = [abs(contour_integral(lambda t: 1.0 / t, ellipse(1.0, 0.6),
                                 periodic_trapezoid_grid(m)) - 2j * np.pi)
            for m in (8, 16, 32)]
    return float(not all(b < max(0.1 * a, 1e-13)
                         for a, b in zip(errs, errs[1:])))


def _cauchy_inequality():
    """(bound, actual, holds) for t^k at 0 on radius 1, k = 1..4: equality."""
    return [derivative_bound_check(BoundaryFunction(
        lambda t, k=k: t ** k, derivs=tuple(
            lambda t, k=k, m=m: math.perm(k, m) * t ** (k - m)
            for m in range(1, k + 1))), 0j, 1.0, k, 0) for k in (1, 2, 3, 4)]


def _hc(samples):
    return hilbert_circular(PeriodicFunction(samples)).samples


def _grid(panels):
    return gauss_panel_grid(max(1, panels), 12)


def _plemelj(identity):
    """The largest |identity(x0, f+(x0), f-(x0))| at 16 points x0."""
    def residual(n, rng):
        grid, x0s = _grid(3 * n // 32), np.linspace(-0.9, 0.9, 16)
        return max(abs(identity(x0, *(s.value for s in plemelj_limits(
            _G, _ARC, grid, complex(x0))))) for x0 in x0s)
    return residual


def _reconstruction(n, rng):
    """f(z) and f rebuilt from its jump against the closed form
    [(1 - z^2) log((z - 1)/(z + 1)) - 2z]/(2 pi i) of the integral of _G on
    _ARC, at three fixed and 20 seeded targets."""
    grid = _grid(3 * n // 32)
    zs = np.append([2j, 1.5 + 0.5j, -0.3 - 2.0j], (1.5 + 2.0 * rng.random(20))
                   * np.exp(2j * np.pi * rng.random(20)))
    exact = ((1.0 - zs ** 2) * np.log((zs - 1.0) / (zs + 1.0)) - 2.0 * zs) \
        / (2j * np.pi)
    return max(abs(fn(_G, _ARC, grid, z) - f) for z, f in zip(zs, exact)
               for fn in (arc_cauchy_integral, reconstruct_from_jump))


def _pole_taylor(n, count):
    """Samples of 1/(t - 2) at n nodes and min(count, n/2 - 1) coefficients."""
    c, g = build_unit_circle(n)
    samples = catalog_function(SingularityPrescription("pole", 2.0 + 0.0j))(
        c.z(g.nodes))
    return samples, taylor_coefficients(samples, min(count, n // 2 - 1))


def _probe(n, rng):
    """|pole - 2| of (0, 1) Pade fits to 8 and 63 Taylor coefficients."""
    samples, coeffs = _pole_taylor(n, 63)
    return max(abs(r.locations[0] - 2.0) if r.locations else 1.0 for r in (
        pade_pole_probe(coeffs[:8], degrees=(0, 1)),
        pade_pole_probe(coeffs, degrees=(0, 1), boundary_samples=samples)))


_POLE = BoundaryFunction(lambda t: 1.0 / (t - 2.0), derivs=(
    lambda t: -1.0 / (t - 2.0) ** 2, lambda t: 2.0 / (t - 2.0) ** 3))
_EXP = BoundaryFunction(np.exp, derivs=(np.exp, np.exp))

# boundary relations I and II (criterion 01)
add = _suite("boundary-relations")
for name, f in (("pole-exterior", _POLE), ("entire-exp", _EXP)):
    add(f"relation-I-{name}", 1e-8, _points(lambda c, g, t, f=f:
        one_sided_limit(f, c, g, t, "interior") - f(t)), 1)
    add(f"relation-I-exterior-{name}", 1e-8, _points(
        lambda c, g, t, f=f: one_sided_limit(f, c, g, t, "exterior")))
    add(f"relation-II-{name}", 1e-8, _points(
        lambda c, g, t, f=f: boundary_value(f, c, g, t, 0) - f(t)), 1)
_F = BoundaryFunction(lambda t: t ** -2.0, decay=2,
                      derivs=(lambda t: -2.0 * t ** -3.0,))
add("complement-relation-II", 1e-8, _points(
    lambda c, g, t: complement_boundary_value(_F, c, g, t, 0) - _F(t)))

add = _suite("convergence")
for name, f, k, tol in (("pole", _POLE, 0, 1e-9), ("exp-n2", _EXP, 2, 1e-8)):
    add(f"uniform-residual-{name}-interior", tol, _uniform(f, k, True))
    add(f"uniform-residual-{name}-exterior", tol, _uniform(f, k, False))
add("trapezoid-geometric-convergence", 0.5, _trapezoid_ratio)

# vanishing K_n (criterion 04); the mean-value identity and Cauchy's
# inequality (criterion 13)
add = _suite("integral-theorems")
add("cauchy-theorem-t2", 1e-13, _circle(
    lambda c, g: abs(contour_integral(lambda t: t ** 2, c, g))))
add("pv-singular-weight", 1e-15, _circle(
    lambda c, g: abs(pv_singular_weight(c, 1.0 + 0j) + 1j * np.pi)))
for order in (0, 1):
    add(f"vanishing-K{order}", 1e-8, _circle(lambda c, g, order=order: abs(
        vanishing_contour_integral(_POLE, c, g, order))), 4)
for order, center, radius in ((0, 0.2 + 0.1j, 0.5), (1, 0.3 + 0.0j, 0.4)):
    add(f"mean-value-exp-n{order}", 1e-10, _circle(
        lambda c, g, o=order, z=center, r=radius:
        mean_value_check(_EXP, z, r, g, n=o)[2]), 13)
add("cauchy-inequality-monomial", 1e-9, lambda n, rng: max(
    abs(actual - bound) for bound, actual, _ in _cauchy_inequality()), 13)
add("cauchy-inequality-satisfied", 0.5, lambda n, rng: float(
    not all(ok for _, _, ok in _cauchy_inequality())), 13)

# the line pair (criterion 05), the circular transform (06), Parseval (07)
add = _suite("hilbert")
_V = RealLineFunction(lambda x: -1.0 / (x ** 2 + 1.0), decay=2, window=50.0)
_U = RealLineFunction(lambda x: x / (x ** 2 + 1.0), decay=1, window=50.0)
_XI81, _XI41 = np.linspace(-5.0, 5.0, 81), np.linspace(-5.0, 5.0, 41)
add("line-example-pole", 1e-12, lambda n, rng: np.abs(
    hilbert_line(_V, _XI81).values - _XI81 / (_XI81 ** 2 + 1.0)).max(), 5)
add("line-complementary-negation", 1e-14, lambda n, rng: np.abs(
    hilbert_complementary(_V, _XI41).values
    + hilbert_line(_V, _XI41).values).max())
add("circular-sin-to-cos", 1e-10, _periodic(
    lambda th: _hc(np.sin(th)) - np.cos(th)), 6)
add("circular-complementary-negation", 1e-15, _periodic(
    lambda th: _hc(np.sin(th)) + hilbert_circular_complementary(
        PeriodicFunction(np.sin(th))).samples), 6)
add("circular-fourier-modes-k16", 1e-9, _periodic(lambda th: [
    np.concatenate([_hc(np.sin(k * th)) - np.cos(k * th),
                    _hc(np.cos(k * th)) + np.sin(k * th)])
    for k in range(1, 17)]), 6)
add("normalization-example", 1e-12, _periodic(
    lambda th: normalization_check(np.exp(1j * th))))
add("parseval-circle", 1e-8, _periodic(lambda th: parseval_check(
    PeriodicFunction(np.cos(th)), PeriodicFunction(np.sin(th)))[2]), 7)
add("parseval-line", 1e-5, lambda n, rng: parseval_check(_U, _V)[2], 7)

# Plemelj at 16 points of [-1, 1] (criterion 08); Poincare-Bertrand at two
# grid levels, 16 and 24 panels at n = 256 (criterion 09)
add = _suite("plemelj")
_ARC, _G = segment(-1.0, 1.0), ArcDensity(lambda t: 1.0 - t ** 2)
add("plemelj-jump-identity", 1e-8, _plemelj(
    lambda x0, plus, minus: plus - minus - (1.0 - x0 ** 2)), 8)
add("plemelj-sum-identity", 1e-8, _plemelj(
    lambda x0, plus, minus: plus + minus - (-2.0 * x0 + (1.0 - x0 ** 2)
                                            * np.log((1.0 - x0) / (1.0 + x0)))
    / (1j * np.pi)))
add("plemelj-reconstruction", 1e-12, _reconstruction, 8)
for name, f2 in (
        ("const", lambda t, tp: np.ones_like(np.asarray(t, dtype=complex))),
        ("bilinear", lambda t, tp: np.asarray(t) * tp),
        ("quadratic", lambda t, tp: np.asarray(t) ** 2 + np.asarray(tp) ** 2)):
    add(f"poincare-bertrand-{name}", 1e-9, lambda n, rng, f2=f2: max(
        poincare_bertrand_residual(f2, _ARC, _grid(panels), 0.2 + 0.0j,
                                   cross_check=False)
        for panels in (n // 16, 3 * n // 32)), 9)

# exterior annihilation at 50 targets of radius 1.1..5 (criterion 02); the
# Taylor coefficients of a pole and its Pade probe (criterion 12)
add = _suite("direct-problem")
for name, kind in (("pole", "pole"), ("branch", "algebraic-branch"),
                   ("constant", "constant")):
    add(f"annihilation-{name}", 1e-9, lambda n, rng, kind=kind:
        exterior_annihilation_check(
            SingularityPrescription(kind, 2.0 + 0.0j), *build_unit_circle(n),
            (1.1 + 3.9 * rng.random(50)) * np.exp(2j * np.pi * rng.random(50)),
            orders=(0, 1, 2)), 2)
add("taylor-geometric", 1e-12, lambda n, rng: np.abs(
    _pole_taylor(n, 48)[1] + 2.0 ** -(np.arange(min(49, n // 2)) + 1.0)).max())
add("probe-single-pole", 1e-4, _probe, 12)

SUITES = tuple(dict.fromkeys(check.suite for check in CHECKS))


# ---------------------------------------------------------------------------
# output and the verify command


def _emit(text, out_path):
    """Write text to out_path or stdout; the exit code, 2 if unwritable."""
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    return 0


def _dumps(obj, pad="\n"):
    """json.dumps(obj, indent=2, sort_keys=True) byte for byte, indented by
    pad.  Leaves, and each list of plain floats in one call, go to the C
    encoder, which json.dumps skips given an indent (a float's repr holds no
    ", ")."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        return "{" + inner + ("," + inner).join(
            json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": "
            + _dumps(v, inner) for k, v in sorted(obj.items())) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if all(type(x) is float for x in obj):
            body = json.dumps(obj)[1:-1].replace(", ", "," + inner)
        else:
            body = ("," + inner).join(_dumps(v, inner) for v in obj)
        return "[" + inner + body + pad + "]"
    return json.dumps(obj)


def _emit_json(doc, out_path):
    return _emit(_dumps(doc) + "\n", out_path)


def _csv(header, *columns):
    """The header line, then one line of %.12e fields per row of columns."""
    row = ",".join(["%.12e"] * len(columns))
    return [header] + [row % values for values in zip(*columns)]


def cmd_verify(args) -> int:
    rows = []
    for check in (c for c in CHECKS if c.suite == args.suite):
        rng = np.random.default_rng(args.seed)
        residual = float(check.residual(args.n, rng))
        tol = check.tolerance if args.tol is None else args.tol
        rows.append({"check": check.id, "residual": residual,
                     "tolerance": tol, "pass": bool(residual <= tol)})
    all_pass = all(r["pass"] for r in rows)
    if args.format == "json":
        status = _emit_json({"schema": SCHEMA, "command": "verify",
                             "suite": args.suite, "n": args.n,
                             "seed": args.seed, "checks": rows,
                             "all_pass": all_pass}, args.out)
    else:
        status = _emit("check,residual,tolerance,pass\n" + "".join(
            f"{r['check']},{r['residual']:.6e},{r['tolerance']:.6e},"
            f"{int(r['pass'])}\n" for r in rows), args.out)
    return status or (0 if all_pass else 1)


# ---------------------------------------------------------------------------
# airfoil command


def cmd_airfoil(args) -> int:
    try:
        flow = FlowConfig(args.u, args.alpha, args.rho)
    except CauchyKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n = args.n
    l_vec, l_mag = lift(flow, n)
    scalars = {
        "circulation": circulation(flow, n),
        "circulation_far_field": far_field_circulation(flow),
        "lift_magnitude": l_mag,
        "lift_vector": [l_vec[0], l_vec[1], l_vec[2]],
        "normal_force": normal_force(flow, n),
        "leading_edge_suction": leading_edge_suction(flow, n),
    }
    xs = np.cos(np.pi * (np.arange(n) + 0.5) / n)[::-1]
    u_p, v_p = surface_velocities(flow, xs, "+")
    u_m, _ = surface_velocities(flow, xs, "-")
    gamma_x = u_p - u_m
    dp = pressure_jump(flow, xs)
    # plot-ready field of w(z) on a coarse exterior grid
    zz = (np.linspace(-3.0, 3.0, 25)[None, :]
          + 1j * np.linspace(-2.0, 2.0, 17)[:, None]).ravel()
    zz = zz[~((np.abs(zz.imag) < 1e-12) & (np.abs(zz.real) <= 1.0))]
    ww = flat_plate_complex_velocity(flow, zz)
    if args.format == "json":
        return _emit_json({
            "schema": SCHEMA, "command": "airfoil",
            "config": {"speed": args.u, "alpha": args.alpha, "rho": args.rho,
                       "n": n},
            "scalars": scalars,
            "chord_table": {
                "x": xs.tolist(), "u_plus": u_p.tolist(),
                "u_minus": u_m.tolist(), "v": v_p.tolist(),
                "gamma": gamma_x.tolist(), "dp": dp.tolist()},
            "field": {"z_re": zz.real.tolist(), "z_im": zz.imag.tolist(),
                      "w_re": ww.real.tolist(), "w_im": ww.imag.tolist()},
        }, args.out)
    lines = [f"# schema={SCHEMA}", "# command=airfoil",
             f"# U={args.u:.12e} alpha={args.alpha:.12e} rho={args.rho:.12e} n={n}"]
    lines += [f"# {key}=" + ",".join(f"{x:.12e}" for x in np.atleast_1d(val))
              for key, val in sorted(scalars.items())]
    lines += _csv("x,u_plus,u_minus,v,gamma,dp",
                  xs, u_p, u_m, v_p, gamma_x, dp)
    lines += _csv("z_re,z_im,w_re,w_im", zz.real, zz.imag, ww.real, ww.imag)
    return _emit("\n".join(lines) + "\n", args.out)


# ---------------------------------------------------------------------------
# probe command


def parse_boundary_file(path):
    """Rows (theta, Re f, Im f) on an equispaced grid covering [-pi, pi)."""
    rows = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 3:
            raise ParseError(
                f"line {lineno}: expected 3 fields (theta, Re f, Im f), "
                f"got {len(parts)}", line=lineno)
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ParseError(f"line {lineno}: fields are not numeric",
                             line=lineno)
        if not all(map(math.isfinite, rows[-1])):
            raise ParseError(f"line {lineno}: fields are not finite",
                             line=lineno)
    n = len(rows)
    if n < 8 or n % 2:
        raise ParseError(f"need an even number of samples >= 8, got {n}")
    thetas, re_f, im_f = np.array(rows).T
    expected = -np.pi + 2.0 * np.pi * np.arange(n) / n
    if np.max(np.abs(thetas - expected)) > 1e-6:
        raise ParseError("samples must be equispaced on [-pi, pi) starting "
                         "at -pi")
    return thetas, re_f + 1j * im_f


def cmd_probe(args) -> int:
    _, samples = parse_boundary_file(args.data)
    n = samples.size
    # re-order to start at theta = 0 so the FFT sees z = exp(i s), s in [0, 2pi)
    samples_from_zero = np.roll(samples, -n // 2)
    n_max = min(args.coeffs, n // 2) - 1
    coeffs = taylor_coefficients(samples_from_zero, n_max)
    report = pade_pole_probe(coeffs, degrees=args.degrees,
                             boundary_samples=samples_from_zero)
    return _emit_json({"schema": SCHEMA, "command": "probe", "samples": n,
                       "report": report.to_dict()}, args.out)


# ---------------------------------------------------------------------------
# transform command


def cmd_transform(args) -> int:
    thetas, samples = parse_boundary_file(args.data)
    column = np.real(samples) if args.column == "re" else np.imag(samples)
    op = TRANSFORM_KINDS[args.kind]
    if args.kind.startswith("circular"):
        result = op(PeriodicFunction(column)).samples
    else:
        rlf = RealLineFunction(
            lambda x: np.interp(x, thetas, column, left=0.0, right=0.0),
            decay=2.0, window=float(np.max(np.abs(thetas))))
        result = op(rlf, 0.9 * thetas).values
        thetas = 0.9 * thetas
    if args.format == "json":
        return _emit_json({"schema": SCHEMA, "command": "transform",
                           "kind": args.kind, "theta": thetas.tolist(),
                           "values": result.tolist()}, args.out)
    return _emit("\n".join(_csv("theta,value", thetas, result)) + "\n",
                 args.out)


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser():
    """One parser per process: it keeps no state between parse_args calls."""
    parser = argparse.ArgumentParser(
        prog="cauchykit",
        description="Singular-integral toolkit: theorem verification suites, "
                    "flat-plate airfoil tables, and inverse-probe utilities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # argparse types: a bad value is a usage error naming its option
    def grid_size(text):
        n = int(text)
        if n < 8 or n % 2:
            raise argparse.ArgumentTypeError(f"must be even and >= 8, got {n}")
        return n

    def at_least(low):
        def count(text):
            n = int(text)
            if n < low:
                raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
            return n
        return count

    class DegreePair(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            if values[1] < 1:
                parser.error(f"argument {option_string}: K must be >= 1, "
                             f"got {values[1]}")
            setattr(namespace, self.dest, tuple(values))

    def tolerance(text):
        tol = float(text)
        if not (np.isfinite(tol) and tol > 0):
            raise argparse.ArgumentTypeError(
                f"must be finite and positive, got {text}")
        return tol

    def add_n(p, default, note=""):
        p.add_argument("--n", type=grid_size, default=default,
                       help="grid size, even and >= 8 (default %(default)s)"
                       + note)

    def add_out(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def add_format_out(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        add_out(p)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    add_n(p_verify, 256, "; tolerances are fixed for 256, and a coarser "
                         "grid can fail rows")
    p_verify.add_argument("--tol", type=tolerance, default=None,
                          help="override every check tolerance")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for randomized suites")
    add_format_out(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_air = sub.add_parser("airfoil", help="flat-plate airfoil tables")
    p_air.add_argument("--u", type=float, default=1.0, help="free-stream speed")
    p_air.add_argument("--alpha", type=float, default=np.pi / 6,
                       help="incidence angle in radians")
    p_air.add_argument("--rho", type=float, default=1.0, help="fluid density")
    add_n(p_air, 128)
    add_format_out(p_air)
    p_air.set_defaults(func=cmd_airfoil)

    p_probe = sub.add_parser("probe",
                             help="estimate exterior poles from boundary data "
                                  "(writes JSON)")
    p_probe.add_argument("data", help="file of rows: theta, Re f, Im f")
    p_probe.add_argument("--degrees", type=at_least(0), nargs=2,
                         action=DegreePair, default=None, metavar=("M", "K"),
                         help="Pade degree pair, M >= 0 and K >= 1")
    p_probe.add_argument("--coeffs", type=at_least(1), default=64,
                         help="number of Taylor coefficients, >= 1")
    add_out(p_probe)
    p_probe.set_defaults(func=cmd_probe)

    p_tr = sub.add_parser("transform", help="apply a Hilbert-family transform "
                                            "to a boundary-data column")
    p_tr.add_argument("data", help="file of rows: theta, Re f, Im f")
    p_tr.add_argument("--kind", choices=TRANSFORM_KINDS, default="circular")
    p_tr.add_argument("--column", choices=("re", "im"), default="re")
    add_format_out(p_tr)
    p_tr.set_defaults(func=cmd_transform)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)    # refused before any work is done
    if out and (os.path.isdir(out) or not os.access(out if os.path.exists(
            out) else os.path.dirname(out) or ".", os.W_OK)):
        print(f"error: cannot write {out}: unwritable path", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CauchyKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
