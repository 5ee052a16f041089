"""Command-line front end: verification suites, airfoil tables, and the
inverse-probe and transform utilities.

Exit codes: 0 all checks pass, 1 a numeric check failed, 2 usage or parse
error.  Output is CSV (default) or JSON tagged "cauchy-kit/1" (``probe``
always writes JSON); files are byte-identical across runs for a fixed
configuration and seed.  Each subcommand accepts only the options it reads.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .airfoil import (FlowConfig, circulation, far_field_circulation,
                      flat_plate_complex_velocity, leading_edge_suction,
                      lift, normal_force, pressure_jump, surface_velocities)
from .cauchy import (BoundaryFunction, boundary_value,
                     complement_boundary_value, derivative_bound_check,
                     mean_value_check, one_sided_limit,
                     uniform_convergence_residuals, vanishing_contour_integral)
from .errors import CauchyKitError, ParseError
from .geometry import (build_unit_circle, contour_integral, ellipse,
                       gauss_panel_grid, periodic_trapezoid_grid,
                       pv_singular_weight, segment)
from .hilbert import (PeriodicFunction, RealLineFunction, hilbert_circular,
                      hilbert_circular_complementary,
                      hilbert_circular_complementary_inverse,
                      hilbert_circular_inverse, hilbert_complementary,
                      hilbert_line, hilbert_line_inverse, normalization_check,
                      parseval_check)
from .plemelj import (ArcDensity, arc_cauchy_integral, plemelj_limits,
                      poincare_bertrand_residual, reconstruct_from_jump)
from .singularities import (SingularityPrescription, catalog_function,
                            exterior_annihilation_check, pade_pole_probe,
                            taylor_coefficients)

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
# verification suites: each check is (id, residual, tolerance)


def _suite_boundary_relations(n, rng):
    c, g = build_unit_circle(n)
    thetas = 2.0 * np.pi * np.arange(32) / 32
    points = np.exp(1j * thetas)
    checks = []
    cases = {
        "pole-exterior": BoundaryFunction(lambda t: 1.0 / (t - 2.0),
                                          derivs=(lambda t: -1.0 / (t - 2.0) ** 2,)),
        "entire-exp": BoundaryFunction(np.exp, derivs=(np.exp,)),
    }
    for name, f in cases.items():
        r1 = max(abs(one_sided_limit(f, c, g, t0, "interior") - f(t0))
                 for t0 in points)
        r1x = max(abs(one_sided_limit(f, c, g, t0, "exterior"))
                  for t0 in points)
        r2 = max(abs(boundary_value(f, c, g, t0, 0) - f(t0)) for t0 in points)
        checks.append((f"relation-I-{name}", float(r1), 1e-8))
        checks.append((f"relation-I-exterior-{name}", float(r1x), 1e-8))
        checks.append((f"relation-II-{name}", float(r2), 1e-8))
    F = BoundaryFunction(lambda t: t ** -2.0,
                         derivs=(lambda t: -2.0 * t ** -3.0,), decay=2)
    rc = max(abs(complement_boundary_value(F, c, g, t0, 0) - F(t0))
             for t0 in points)
    checks.append(("complement-relation-II", float(rc), 1e-8))
    return checks


def _seeded_targets(rng, count):
    inner = 0.85 * np.sqrt(rng.random(count // 2)) \
        * np.exp(2j * np.pi * rng.random(count // 2))
    outer = (1.35 + 2.0 * rng.random(count - count // 2)) \
        * np.exp(2j * np.pi * rng.random(count - count // 2))
    return np.concatenate([inner, outer])


def _suite_convergence(n, rng):
    c, g = build_unit_circle(n)
    targets = _seeded_targets(rng, 100)
    f = BoundaryFunction(lambda t: 1.0 / (t - 2.0),
                         derivs=(lambda t: -1.0 / (t - 2.0) ** 2,
                                 lambda t: 2.0 / (t - 2.0) ** 3))
    rep0 = uniform_convergence_residuals(f, c, g, targets, 0)
    fe = BoundaryFunction(np.exp, derivs=(np.exp, np.exp))
    rep2 = uniform_convergence_residuals(fe, c, g, targets, 2)
    checks = [
        ("uniform-residual-pole-interior", rep0.max_inside, 1e-9),
        ("uniform-residual-pole-exterior", rep0.max_outside, 1e-9),
        ("uniform-residual-exp-n2-interior", rep2.max_inside, 1e-8),
        ("uniform-residual-exp-n2-exterior", rep2.max_outside, 1e-8),
    ]
    # geometric convergence of the trapezoid rule on an eccentric ellipse
    ell = ellipse(1.0, 0.6)
    errs = []
    for m in (8, 16, 32):
        gm = periodic_trapezoid_grid(m)
        errs.append(abs(contour_integral(lambda t: 1.0 / t, ell, gm)
                        - 2j * np.pi))
    ratio_ok = all(errs[i + 1] < max(0.1 * errs[i], 1e-13)
                   for i in range(len(errs) - 1))
    checks.append(("trapezoid-geometric-convergence",
                   0.0 if ratio_ok else 1.0, 0.5))
    return checks


def _suite_integral_theorems(n, rng):
    c, g = build_unit_circle(n)
    checks = []
    reg = lambda t: t ** 2
    checks.append(("cauchy-theorem-t2",
                   abs(contour_integral(reg, c, g)), 1e-13))
    checks.append(("pv-singular-weight",
                   abs(pv_singular_weight(c, 1.0 + 0j) + 1j * np.pi), 1e-15))
    f = BoundaryFunction(lambda t: 1.0 / (t - 2.0),
                         derivs=(lambda t: -1.0 / (t - 2.0) ** 2,))
    for order in (0, 1):
        checks.append((f"vanishing-K{order}",
                       abs(vanishing_contour_integral(f, c, g, order)), 1e-8))
    fe = BoundaryFunction(np.exp, derivs=(np.exp,))
    _, _, gap = mean_value_check(fe, 0.3 + 0.0j, 0.4, g, n=1)
    checks.append(("mean-value-exp-n1", gap, 1e-10))
    mono = BoundaryFunction(lambda t: t ** 3,
                            derivs=(lambda t: 3 * t ** 2,
                                    lambda t: 6 * t,
                                    lambda t: 6 * np.ones_like(t)))
    bound, actual, ok = derivative_bound_check(mono, 0.0 + 0j, 1.0, 3, 0)
    checks.append(("cauchy-inequality-monomial",
                   abs(actual - bound), 1e-9))
    checks.append(("cauchy-inequality-satisfied", 0.0 if ok else 1.0, 0.5))
    return checks


def _suite_hilbert(n, rng):
    checks = []
    v = RealLineFunction(lambda x: -1.0 / (x ** 2 + 1.0), decay=2, window=50.0)
    xi = np.linspace(-5.0, 5.0, 41)
    u = hilbert_line(v, xi)
    checks.append(("line-example-pole",
                   float(np.max(np.abs(u.values - xi / (xi ** 2 + 1.0)))),
                   5e-6))
    ubar = hilbert_complementary(v, xi)
    checks.append(("line-complementary-negation",
                   float(np.max(np.abs(ubar.values + u.values))), 1e-14))
    pf = PeriodicFunction.from_function(np.sin, n)
    uc = hilbert_circular(pf)
    checks.append(("circular-sin-to-cos",
                   float(np.max(np.abs(uc.samples - np.cos(pf.thetas)))),
                   1e-10))
    worst = 0.0
    for k in range(1, 17):
        pk = PeriodicFunction.from_function(lambda t: np.sin(k * t), n)
        ck_ = hilbert_circular(pk)
        worst = max(worst, float(np.max(np.abs(ck_.samples
                                               - np.cos(k * pk.thetas)))))
        qk = PeriodicFunction.from_function(lambda t: np.cos(k * t), n)
        sk = hilbert_circular(qk)
        worst = max(worst, float(np.max(np.abs(sk.samples
                                               + np.sin(k * qk.thetas)))))
    checks.append(("circular-fourier-modes-k16", worst, 1e-9))
    th = pf.thetas
    checks.append(("normalization-example",
                   abs(normalization_check(np.exp(1j * th))), 1e-12))
    lhs, rhs, gap = parseval_check(PeriodicFunction(np.cos(th)),
                                   PeriodicFunction(np.sin(th)), "circle")
    checks.append(("parseval-circle", gap, 1e-8))
    uline = RealLineFunction(lambda x: x / (x ** 2 + 1.0), decay=1, window=50.0)
    lhs, rhs, gap = parseval_check(uline, v, "line")
    checks.append(("parseval-line", gap, 1e-5))
    return checks


def _suite_plemelj(n, rng):
    checks = []
    arc = segment(-1.0, 1.0)
    grid = gauss_panel_grid(24, 12)
    gdens = ArcDensity(lambda t: 1.0 - t ** 2)
    worst_jump = 0.0
    worst_sum = 0.0
    for x0 in np.linspace(-0.9, 0.9, 16):
        plus, minus = plemelj_limits(gdens, arc, grid, complex(x0))
        worst_jump = max(worst_jump,
                         abs(plus.value - minus.value - (1.0 - x0 ** 2)))
        exact_pv = -2.0 * x0 + (1.0 - x0 ** 2) * np.log((1.0 - x0) / (1.0 + x0))
        worst_sum = max(worst_sum, abs(plus.value + minus.value
                                       - exact_pv / (1j * np.pi)))
    checks.append(("plemelj-jump-identity", worst_jump, 1e-8))
    checks.append(("plemelj-sum-identity", worst_sum, 1e-8))
    worst_rec = 0.0
    for z in (2j, 1.5 + 0.5j, -0.3 - 2.0j):
        direct = arc_cauchy_integral(gdens, arc, grid, z)
        rebuilt = reconstruct_from_jump(gdens, arc, grid, z)
        worst_rec = max(worst_rec, abs(direct - rebuilt))
    checks.append(("plemelj-reconstruction", worst_rec, 1e-12))
    for name, f2 in (("const", lambda t, tp: np.ones_like(np.asarray(t))),
                     ("bilinear", lambda t, tp: np.asarray(t) * tp)):
        res = poincare_bertrand_residual(f2, arc, grid, 0.2 + 0.0j)
        checks.append((f"poincare-bertrand-{name}", res, 1e-5))
    return checks


def _suite_direct_problem(n, rng):
    c, g = build_unit_circle(n)
    radii = 1.1 + 3.0 * rng.random(50)
    angles = 2.0 * np.pi * rng.random(50)
    targets = radii * np.exp(1j * angles)
    checks = []
    cases = {
        "pole": SingularityPrescription("pole", 2.0 + 0.0j),
        "branch": SingularityPrescription("algebraic-branch", 2.0 + 0.0j),
        "constant": SingularityPrescription("constant", strength=1.0),
    }
    for name, pres in cases.items():
        worst = exterior_annihilation_check(pres, c, g, targets, orders=(0, 1, 2))
        checks.append((f"annihilation-{name}", worst, 1e-9))
    f = catalog_function(cases["pole"])
    samples = f(c.z(g.nodes))
    coeffs = taylor_coefficients(samples, 48)
    exact = -(2.0 ** -(np.arange(49) + 1.0))
    checks.append(("taylor-geometric",
                   float(np.max(np.abs(coeffs - exact))), 1e-12))
    report = pade_pole_probe(coeffs[:8], degrees=(0, 1))
    err = abs(report.locations[0] - 2.0) if report.locations else 1.0
    checks.append(("probe-single-pole", float(err), 1e-4))
    return checks


SUITE_RUNNERS = {
    "boundary-relations": _suite_boundary_relations,
    "convergence": _suite_convergence,
    "integral-theorems": _suite_integral_theorems,
    "hilbert": _suite_hilbert,
    "plemelj": _suite_plemelj,
    "direct-problem": _suite_direct_problem,
}

SUITES = tuple(SUITE_RUNNERS)


# ---------------------------------------------------------------------------
# output and the verify command


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, out_path):
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)


def cmd_verify(args) -> int:
    checks = SUITE_RUNNERS[args.suite](args.n, np.random.default_rng(args.seed))
    rows = []
    for check_id, residual, tol in checks:
        tol = args.tol if args.tol is not None else tol
        rows.append({"check": check_id, "residual": residual,
                     "tolerance": tol, "pass": bool(residual <= tol)})
    all_pass = all(r["pass"] for r in rows)
    if args.format == "json":
        _emit_json({"schema": SCHEMA, "command": "verify", "suite": args.suite,
                    "n": args.n, "seed": args.seed, "checks": rows,
                    "all_pass": all_pass}, args.out)
    else:
        lines = ["check,residual,tolerance,pass"]
        for r in rows:
            lines.append(f"{r['check']},{r['residual']:.6e},"
                         f"{r['tolerance']:.6e},{int(r['pass'])}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# airfoil command


def cmd_airfoil(args) -> int:
    try:
        flow = FlowConfig(args.u, args.alpha, args.rho)
    except CauchyKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n = args.n
    gamma_total = circulation(flow, n)
    l_vec, l_mag = lift(flow, n)
    scalars = {
        "circulation": gamma_total,
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
    gx = np.linspace(-3.0, 3.0, 25)
    gy = np.linspace(-2.0, 2.0, 17)
    zz = (gx[None, :] + 1j * gy[:, None]).ravel()
    keep = ~((np.abs(zz.imag) < 1e-12) & (np.abs(zz.real) <= 1.0))
    zz = zz[keep]
    ww = flat_plate_complex_velocity(flow, zz)
    if args.format == "json":
        _emit_json({
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
        return 0
    lines = [f"# schema={SCHEMA}", "# command=airfoil",
             f"# U={args.u:.12e} alpha={args.alpha:.12e} rho={args.rho:.12e} n={n}"]
    for key in sorted(scalars):
        val = scalars[key]
        if isinstance(val, list):
            lines.append(f"# {key}=" + ",".join(f"{x:.12e}" for x in val))
        else:
            lines.append(f"# {key}={val:.12e}")
    lines.append("x,u_plus,u_minus,v,gamma,dp")
    for i in range(xs.size):
        lines.append(",".join(f"{q:.12e}" for q in
                              (xs[i], u_p[i], u_m[i], v_p[i], gamma_x[i], dp[i])))
    lines.append("z_re,z_im,w_re,w_im")
    for i in range(zz.size):
        lines.append(",".join(f"{q:.12e}" for q in
                              (zz[i].real, zz[i].imag, ww[i].real, ww[i].imag)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# probe command


def parse_boundary_file(path):
    """Rows (theta, Re f, Im f) on an equispaced grid covering [-pi, pi)."""
    thetas, re_f, im_f = [], [], []
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
            th, re_v, im_v = (float(p) for p in parts)
        except ValueError:
            raise ParseError(f"line {lineno}: fields are not numeric",
                             line=lineno)
        thetas.append(th)
        re_f.append(re_v)
        im_f.append(im_v)
    n = len(thetas)
    if n < 8 or n % 2:
        raise ParseError(f"need an even number of samples >= 8, got {n}")
    thetas = np.asarray(thetas)
    expected = -np.pi + 2.0 * np.pi * np.arange(n) / n
    if np.max(np.abs(thetas - expected)) > 1e-6:
        raise ParseError("samples must be equispaced on [-pi, pi) starting "
                         "at -pi")
    return thetas, np.asarray(re_f) + 1j * np.asarray(im_f)


def cmd_probe(args) -> int:
    _, samples = parse_boundary_file(args.data)
    n = samples.size
    # re-order to start at theta = 0 so the FFT sees z = exp(i s), s in [0, 2pi)
    samples_from_zero = np.roll(samples, -n // 2)
    n_max = min(args.coeffs, n // 2 - 1)
    coeffs = taylor_coefficients(samples_from_zero, n_max)
    degrees = tuple(args.degrees) if args.degrees else None
    report = pade_pole_probe(coeffs, degrees=degrees,
                             boundary_samples=samples_from_zero)
    _emit_json({"schema": SCHEMA, "command": "probe", "samples": n,
                "report": report.to_dict()}, args.out)
    return 0


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
        _emit_json({"schema": SCHEMA, "command": "transform", "kind": args.kind,
                    "theta": thetas.tolist(), "values": result.tolist()},
                   args.out)
        return 0
    lines = ["theta,value"]
    for th, val in zip(thetas, result):
        lines.append(f"{th:.12e},{val:.12e}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
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

    def tolerance(text):
        tol = float(text)
        if tol <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return tol

    def add_n(p, default):
        p.add_argument("--n", type=grid_size, default=default,
                       help="grid size, even and >= 8 (default %(default)s)")

    def add_out(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def add_format_out(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        add_out(p)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    add_n(p_verify, 256)
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
    p_probe.add_argument("--degrees", type=int, nargs=2, default=None,
                         metavar=("M", "K"), help="Pade degree pair")
    p_probe.add_argument("--coeffs", type=int, default=64,
                         help="number of Taylor coefficients")
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
    try:
        return args.func(args)
    except CauchyKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
