"""Seeded inputs, library calls and reference checks of the workloads.

Each workload class has

* ``generate(seed, size)``: the seeded inputs, plain numbers and arrays
  computed without the library, so the same seed gives the same inputs;
* ``build(ck, spec, sampling, workdir)``: the library objects (contours,
  grids, densities, generated input files) and the list of :class:`Op`;
  ``sampling`` wraps every contour and density callable the benchmark
  hands to the library (identity in timed runs, counters in traced runs);
* ``properties(spec)``: the input properties later changes cite.

References are closed forms computed here with numpy, or, where none
exists, a consistency identity named at the check.  Tolerances are fixed
per operation class and taken from the acceptance criteria where one
covers the same check.
"""

import json
import math
import os
from collections import Counter

import numpy as np

from harness import Op, Outcome, cli_call, flag, scaled_error

TWO_PI = 2.0 * np.pi

# fixed tolerances, on |out - ref| / max(1, |ref|)
TOL_FUNCTIONAL = 1e-8       # criterion 01 / convergence suite
TOL_UNIFORM = 1e-9          # convergence suite, pole density at n = 0
TOL_ANNIHILATION = 1e-9     # criterion 02
TOL_VANISHING = 1e-8        # criterion 04
TOL_TAYLOR = 1e-12          # direct-problem suite, taylor-geometric
TOL_PROBE_ONE = 1e-4        # criterion 12, single pole (relative)
TOL_PROBE_TWO = 1e-3        # criterion 12, two poles (relative)
TOL_LINE = 5e-6             # criterion 05
TOL_CIRCULAR = 1e-9         # criterion 06, Fourier-mode table
TOL_CLI_ECHO = 1e-12        # CLI output against the same library call
TOL_PLEMELJ = 1e-8          # criterion 08
TOL_PB = 1e-5               # criterion 09
TOL_AIRFOIL_SCALAR = 1e-8   # criterion 10, circulation and lift
TOL_AIRFOIL_POINT = 1e-10   # criterion 10, surface velocity closed form
TOL_FINITE_HILBERT = 1e-8   # criterion 11


def _seeded(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _json_rows(text):
    return json.loads(text) if text.strip().startswith("{") else None


def _check_verify(out):
    """Every row of a ``verify --format json`` run within its own tolerance."""
    rc, text, _ = out
    doc = _json_rows(text)
    if rc not in (0, 1) or doc is None:
        return [Outcome("cli.verify", np.array([np.inf]), 0.0, value=False,
                        graded=False)]
    res = np.array([row["residual"] for row in doc["checks"]], dtype=float)
    tol = np.array([row["tolerance"] for row in doc["checks"]], dtype=float)
    return [Outcome("cli.verify", res, tol, value=False)]


def _verify_op(ck, suite, seed):
    return Op("cli", "cli", "verify",
              lambda: cli_call(ck.cli.main, ["verify", suite, "--format",
                                             "json", "--seed", str(seed)]),
              _check_verify)


# ---------------------------------------------------------------------------
# closed forms


def cut_sqrt(zeta, beta):
    """Square root with its branch cut along the ray arg = beta."""
    rot = np.exp(-1j * (beta + np.pi))
    return np.sqrt(np.asarray(zeta, dtype=complex) * rot) \
        * np.exp(0.5j * (beta + np.pi))


def pole_derivative(strength, a, m, t):
    """m-th derivative of strength / (t - a)."""
    t = np.asarray(t, dtype=complex)
    return strength * (-1.0) ** m * math.factorial(m) / (t - a) ** (m + 1)


def branch_derivative(strength, a, m, t):
    """m-th derivative of strength / sqrt(t - a), cut along the outward ray."""
    t = np.asarray(t, dtype=complex)
    coef = strength * math.prod(-0.5 - j for j in range(m))
    return coef * (t - a) ** (-m) / cut_sqrt(t - a, float(np.angle(a)))


def catalog_derivative(kind, strength, a, m, t):
    if kind == "pole":
        return pole_derivative(strength, a, m, t)
    return branch_derivative(strength, a, m, t)


def curve(kind, p, s):
    s = np.asarray(s, dtype=float)
    if kind == "circle":
        return p["center"] + p["radius"] * np.exp(1j * s)
    return p["a"] * np.cos(s) + 1j * p["b"] * np.sin(s)


def curve_normal(kind, p, s):
    """Outward unit normal of the counterclockwise curve."""
    s = np.asarray(s, dtype=float)
    if kind == "circle":
        return np.exp(1j * s)
    dz = -p["a"] * np.sin(s) + 1j * p["b"] * np.cos(s)
    return -1j * dz / np.abs(dz)


def curve_scaled(kind, p, rho, phi):
    """Point at relative radius rho: inside for rho < 1, outside above."""
    if kind == "circle":
        return p["center"] + p["radius"] * rho * np.exp(1j * phi)
    return rho * (p["a"] * np.cos(phi) + 1j * p["b"] * np.sin(phi))


def trig_poly(modes, a0, a, b, theta):
    th = np.asarray(theta, dtype=float)[..., None]
    return a0 + np.sum(a * np.cos(modes * th) + b * np.sin(modes * th),
                       axis=-1)


def trig_conjugate(modes, a, b, theta):
    """Hc of the trigonometric polynomial: sin k -> cos k, cos k -> -sin k."""
    th = np.asarray(theta, dtype=float)[..., None]
    return np.sum(b * np.cos(modes * th) - a * np.sin(modes * th), axis=-1)


def poly_quotient(coef, x):
    """Coefficients q_k(x) of (p(t) - p(x)) / (t - x) = sum_k q_k(x) t^k."""
    x = np.asarray(x, dtype=complex)
    deg = len(coef) - 1
    q = []
    for k in range(deg):
        q.append(sum(coef[j] * x ** (j - 1 - k)
                     for j in range(k + 1, deg + 1)))
    return q


def chord_weight_moment(k):
    """int_-1^1 sqrt((1-t)/(1+t)) t^k dt = I_k - I_(k+1), I_k = int cos^k."""
    def i_cos(m):
        if m % 2:
            return 0.0
        return np.pi * math.prod(range(m - 1, 0, -2)) / math.prod(
            range(m, 0, -2)) if m else np.pi
    return i_cos(k) - i_cos(k + 1)


def chord_moment(k):
    """int_-1^1 t^k dt."""
    return 2.0 / (k + 1) if k % 2 == 0 else 0.0


def arc_log(z_of_s, z):
    """int_L dt / (t - z) for z off the arc, the log continued along L."""
    ts = z_of_s(np.linspace(0.0, 1.0, 4001))
    ang = np.unwrap(np.angle(ts[:, None] - np.atleast_1d(z)[None, :]), axis=0)
    return (np.log(np.abs(ts[-1][None] - z) / np.abs(ts[0][None] - z))
            + 1j * (ang[-1] - ang[0]))


def arc_pv_log(z_of_s, dz_of_s, s0):
    """P.V. int_L dt / (t - t0) at t0 = z(s0) on a circular arc or segment."""
    a, b = z_of_s(np.array([0.0]))[0], z_of_s(np.array([1.0]))[0]
    t0 = z_of_s(np.asarray(s0))
    tau = dz_of_s(np.asarray(s0))
    tau = tau / np.abs(tau)
    return (np.log(np.abs(b - t0) / np.abs(a - t0))
            + 1j * (np.angle((b - t0) / tau) + np.angle(-tau / (a - t0))))


def quad_integral(coef, a, b, x):
    """int_L (g(t) - g(x)) / (t - x) dt for quadratic g, endpoints a, b."""
    c1, c2 = coef[1], coef[2]
    return c1 * (b - a) + c2 * ((b * b - a * a) / 2.0 + x * (b - a))


def _bf(ck, sampling, func, derivs, decay=None):
    return ck.BoundaryFunction(sampling.density(func),
                               tuple(sampling.density(d) for d in derivs),
                               decay=decay)


def _rewrap_catalog(ck, sampling, bf):
    return ck.BoundaryFunction(sampling.density(bf.func),
                               tuple(sampling.density(d) for d in bf.derivs),
                               bf.smoothness, bf.decay)


def _contour(ck, sampling, kind, p):
    base = ck.circle(p["center"], p["radius"]) if kind == "circle" \
        else ck.ellipse(p["a"], p["b"])
    # a circle keeps kind, centre and radius, so the library takes the same
    # exact-location path with and without counting wrappers
    return ck.ClosedContour(z=sampling.contour(base.z),
                            dz=sampling.contour(base.dz),
                            d2z=sampling.contour(base.d2z), kind=base.kind,
                            center=base.center, radius=base.radius)


def _n_hist(ns):
    edges = (64, 128, 256, 512, 1024, 4097)
    return {f"[{lo},{hi})": int(np.count_nonzero((ns >= lo) & (ns < hi)))
            for lo, hi in zip(edges[:-1], edges[1:]) if np.any(
                (ns >= lo) & (ns < hi))}


# ---------------------------------------------------------------------------
# contour-many-targets


class ContourManyTargets:
    """Few fixed discretizations, many targets: per-target sampling, the
    length() sweeps and point classification dominate."""

    NAME = "contour-many-targets"
    DISCS = (("circle256", "circle", 256), ("ellipse256", "ellipse", 256),
             ("circle1024", "circle", 1024))
    GEOMETRY = {"circle": {"center": 0j, "radius": 1.0},
                "ellipse": {"a": 1.0, "b": 0.6}}
    # far targets: inside rho <= FAR_IN, outside rho in FAR_OUT, well clear
    # of the library's near-zone width at n = 256
    FAR_IN = {"circle": 0.7, "ellipse": 0.6}
    FAR_OUT = {"circle": (1.35, 3.0), "ellipse": (1.5, 3.0)}
    DENSITIES = ("pole", "exp", "branch", "complement")
    BRANCH = ("algebraic-branch", 1.6 + 1.2j)
    NEAR_DIST = (1e-3, 1e-1)
    SIZES = {"full": {"near": 12, "far": 36, "on": 8, "uniform": 48},
             "tiny": {"near": 2, "far": 3, "on": 1, "uniform": 6}}

    @classmethod
    def generate(cls, seed, size):
        cfg = cls.SIZES[size]
        rng = _seeded(seed, 1)
        blocks = {}
        lo, hi = np.log10(cls.NEAR_DIST[0]), np.log10(cls.NEAR_DIST[1])
        for disc, kind, n in cls.DISCS:
            p = cls.GEOMETRY[kind]
            for dens in cls.DENSITIES:
                k = cfg["near"]
                rows = []
                for side in (-1.0, 1.0):
                    # stratified log-uniform distances: the near-zone mix is
                    # the same for every seed
                    d = 10.0 ** (lo + (hi - lo)
                                 * (np.arange(k) + rng.random(k)) / k)
                    s = TWO_PI * rng.random(k)
                    z = curve(kind, p, s) + side * d * curve_normal(kind, p, s)
                    rows += [(zz, side > 0, True) for zz in z]
                kf = cfg["far"]
                rho_in = cls.FAR_IN[kind] * np.sqrt(rng.random(kf))
                lo_o, hi_o = cls.FAR_OUT[kind]
                rho_out = lo_o + (hi_o - lo_o) * rng.random(kf)
                for rho, outside in ((rho_in, False), (rho_out, True)):
                    z = curve_scaled(kind, p, rho, TWO_PI * rng.random(kf))
                    rows += [(zz, outside, False) for zz in z]
                order = rng.permutation(len(rows))
                rows = [rows[i] for i in order]
                on_s = TWO_PI * rng.random(cfg["on"])
                blocks[(disc, dens)] = {
                    "targets": np.array([r[0] for r in rows]),
                    "outside": np.array([r[1] for r in rows]),
                    "near": np.array([r[2] for r in rows]),
                    "on": curve(kind, p, on_s)}
        ku = cfg["uniform"] // 2
        p = cls.GEOMETRY["circle"]
        uniform = np.concatenate([
            curve_scaled("circle", p, 0.7 * np.sqrt(rng.random(ku)),
                         TWO_PI * rng.random(ku)),
            curve_scaled("circle", p, 1.35 + 1.65 * rng.random(ku),
                         TWO_PI * rng.random(ku)),
            curve("circle", p, TWO_PI * rng.random(max(ku // 6, 1)))])
        return {"seed": int(seed), "size": size, "blocks": blocks,
                "uniform": uniform}

    @staticmethod
    def _densities(ck, sampling):
        pole = _bf(ck, sampling, lambda t: 1.0 / (t - 2.0),
                   (lambda t: -1.0 / (t - 2.0) ** 2,
                    lambda t: 2.0 / (t - 2.0) ** 3))
        exp = _bf(ck, sampling, np.exp, (np.exp, np.exp))
        kind, at = ContourManyTargets.BRANCH
        branch = _rewrap_catalog(ck, sampling, ck.catalog_function(
            ck.SingularityPrescription(kind, at)))
        comp = _bf(ck, sampling, lambda t: t ** -2.0,
                   (lambda t: -2.0 * t ** -3.0, lambda t: 6.0 * t ** -4.0),
                   decay=2)
        refs = {
            "pole": lambda m, t: pole_derivative(1.0, 2.0, m, t),
            "exp": lambda m, t: np.exp(np.asarray(t, dtype=complex)),
            "branch": lambda m, t: branch_derivative(1.0, at, m, t),
            "complement": lambda m, t: (-1.0) ** m * math.factorial(m + 1)
            * np.asarray(t, dtype=complex) ** (-m - 2),
        }
        return {"pole": pole, "exp": exp, "branch": branch,
                "complement": comp}, refs

    @classmethod
    def build(cls, ck, spec, sampling, workdir):
        dens, refs = cls._densities(ck, sampling)
        ops = []
        for disc, kind, n in cls.DISCS:
            contour = _contour(ck, sampling, kind, cls.GEOMETRY[kind])
            grid = ck.periodic_trapezoid_grid(n)
            for name in cls.DENSITIES:
                block = spec["blocks"][(disc, name)]
                ops += cls._target_ops(ck, disc, name, contour, grid, n,
                                       dens[name], refs[name], block)
                ops += cls._boundary_ops(ck, disc, name, contour, grid, n,
                                         dens[name], refs[name], block["on"])
        c256, g256 = _contour(ck, sampling, "circle",
                              cls.GEOMETRY["circle"]), \
            ck.periodic_trapezoid_grid(256)
        ops.append(cls._uniform_op(ck, c256, g256, dens["pole"],
                                   spec["uniform"]))
        for suite in ("boundary-relations", "convergence",
                      "integral-theorems"):
            ops.append(_verify_op(ck, suite, spec["seed"]))
        return ops

    @staticmethod
    def _target_ops(ck, disc, name, contour, grid, n, f, ref, block):
        group = f"{disc}/{name}/targets"
        comp = name == "complement"
        func = ck.complement_functional if comp else ck.cauchy_functional
        fname = "complement_functional" if comp else "cauchy_functional"
        ops = []
        for z, outside, near in zip(block["targets"], block["outside"],
                                    block["near"]):
            z = complex(z)
            expect = "outside" if outside else "inside"

            def check_class(out, expect=expect, near=near):
                return [Outcome("geometry.classify_point",
                                flag(out.verdict == expect), 0.5,
                                value=False, graded=False, known=bool(near))]
            ops.append(Op(group, "geometry", "classify_point",
                          lambda z=z: ck.classify_point(contour, grid, z),
                          check_class, size=n, known=bool(near)))
            for m in (0, 1, 2):
                # J_n reproduces f^(n) on its own side and vanishes across
                vanishes = outside != comp
                expected = 0.0 if vanishes else complex(ref(m, z))

                def check(out, expected=expected, near=near):
                    return [Outcome(f"cauchy.{fname}",
                                    scaled_error(out.value, expected),
                                    TOL_FUNCTIONAL, known=bool(near))]
                ops.append(Op(group, "cauchy", fname,
                              lambda z=z, m=m: func(f, contour, grid, z, m),
                              check, size=n, known=bool(near)))
        return ops

    @staticmethod
    def _boundary_ops(ck, disc, name, contour, grid, n, f, ref, points):
        group = f"{disc}/{name}/boundary"
        ops = []

        def add(fname, call, expected):
            def check(out, expected=expected):
                return [Outcome(f"cauchy.{fname}",
                                scaled_error(out, expected), TOL_FUNCTIONAL)]
            ops.append(Op(group, "cauchy", fname, call, check, size=n))

        for t0 in points:
            t0 = complex(t0)
            if name == "complement":
                for m in (0, 1, 2):
                    add("complement_boundary_value",
                        lambda t0=t0, m=m: ck.complement_boundary_value(
                            f, contour, grid, t0, m), complex(ref(m, t0)))
                continue
            for m in (0, 1, 2):
                add("boundary_value",
                    lambda t0=t0, m=m: ck.boundary_value(f, contour, grid,
                                                         t0, m),
                    complex(ref(m, t0)))
            add("one_sided_limit",
                lambda t0=t0: ck.one_sided_limit(f, contour, grid, t0,
                                                 "interior"),
                complex(ref(0, t0)))
            add("one_sided_limit",
                lambda t0=t0: ck.one_sided_limit(f, contour, grid, t0,
                                                 "exterior"), 0.0)
        return ops

    @staticmethod
    def _uniform_op(ck, contour, grid, f, targets):
        expect = tuple("on-contour" if abs(abs(z) - 1.0) < 1e-12 else
                       ("inside" if abs(z) < 1.0 else "outside")
                       for z in targets)

        def check(out):
            ok = tuple(out.verdicts) == expect
            errs = np.asarray(out.residuals, dtype=float) if ok else \
                np.full(len(expect), np.inf)
            return [Outcome("cauchy.uniform_convergence_residuals", errs,
                            TOL_UNIFORM)]
        return Op("uniform/circle256/pole", "cauchy",
                  "uniform_convergence_residuals",
                  lambda: ck.uniform_convergence_residuals(
                      f, contour, grid, list(targets), 0),
                  check, n=len(expect), size=256)

    @classmethod
    def properties(cls, spec):
        near = np.concatenate([b["near"] for b in spec["blocks"].values()])
        outside = np.concatenate([b["outside"] for b in
                                  spec["blocks"].values()])
        dists = []
        for (disc, _), b in spec["blocks"].items():
            kind = dict((d, k) for d, k, _ in cls.DISCS)[disc]
            if kind == "circle":
                dists.append(np.abs(np.abs(b["targets"][b["near"]]) - 1.0))
        dists = np.concatenate(dists)
        return {
            "discretizations": [f"{d} (n={n})" for d, _, n in cls.DISCS],
            "densities": list(cls.DENSITIES),
            "off_contour_targets": int(near.size),
            "orders_per_target": [0, 1, 2],
            "near_zone_share": float(np.mean(near)),
            "near_zone_inside": int(np.count_nonzero(near & ~outside)),
            "near_zone_outside": int(np.count_nonzero(near & outside)),
            "near_zone_distance_range": [float(dists.min()),
                                         float(dists.max())],
            "on_contour_points": int(sum(b["on"].size for b in
                                         spec["blocks"].values())),
            "n_distribution": {"256": 2 * len(cls.DENSITIES),
                               "1024": len(cls.DENSITIES)},
            "pole_branch_mix": {"pole": 1, "branch": 1, "entire": 1,
                                "complement": 1},
        }


# ---------------------------------------------------------------------------
# contour-many-problems


class ContourManyProblems:
    """Hundreds of distinct small problems: per-problem set-up dominates and
    the Pade probe does its main work here."""

    NAME = "contour-many-problems"
    SIZES = {"full": 200, "tiny": 4}
    N_RANGE = (64, 1024)
    PROBE_SAMPLES = 256
    # the CLI probe's branch files sit at fixed branch points: 2.0 is the
    # criterion-12 case; at 2.5 the rank-deficient Pade fit makes
    # ``cauchykit probe`` raise TypeError (a numpy bool in its JSON).  That
    # known defect is counted in every pass, not in a seed-dependent share.
    PROBE_BRANCHES = {"branch": 2.0, "branch-json-defect": 2.5}

    @classmethod
    def generate(cls, seed, size):
        rng = _seeded(seed, 2)
        count = cls.SIZES[size]
        # contour kinds, density kinds and target counts are balanced and
        # shuffled, so the result mix per pass is the same for every seed
        kinds = np.tile(["circle", "ellipse"], count // 2)
        dkinds = np.repeat(["pole", "algebraic-branch"], count // 2)
        per = np.tile([1, 2, 3, 4], count // 4)
        if size != "tiny":
            kinds, dkinds, per = (rng.permutation(kinds),
                                  rng.permutation(dkinds),
                                  rng.permutation(per))
        # grid sizes are log-uniform on N_RANGE, one draw per stratum; the
        # strata keep one fixed order, so the sequence of array sizes (and
        # with it the allocator's peak memory) barely depends on the seed
        lo, hi = np.log(cls.N_RANGE[0]), np.log(cls.N_RANGE[1])
        strata = np.random.default_rng(0).permutation(count)
        ns = 2 * np.round(np.exp(lo + (hi - lo) * (strata + rng.random(count))
                                 / count) / 2).astype(int)
        problems = []
        for i in range(count):
            kind, dkind = str(kinds[i]), str(dkinds[i])
            if kind == "circle":
                rc = 0.3 * np.sqrt(rng.random())
                c = rc * np.exp(TWO_PI * 1j * rng.random())
                p = {"center": complex(c),
                     "radius": float(0.3 + (0.5 - rc) * rng.random())}
            else:
                major = 0.4 + 0.4 * rng.random()
                minor = major * (0.6 + 0.4 * rng.random())
                a, b = (major, minor) if rng.random() < 0.5 else (minor, major)
                p = {"a": float(a), "b": float(b)}
            n = int(ns[i])
            loc = (1.5 + 1.5 * rng.random()) \
                * np.exp(TWO_PI * 1j * rng.random())
            strength = (0.5 + 1.5 * rng.random()) \
                * np.exp(TWO_PI * 1j * rng.random())
            k = int(per[i])
            outside = rng.random(k) < 0.5
            rho = np.where(outside, 2.0 + rng.random(k),
                           0.35 * np.sqrt(rng.random(k)))
            targets = curve_scaled(kind, p, rho, TWO_PI * rng.random(k))
            orders = rng.integers(0, 3, size=k)
            ext = curve_scaled(kind, p, 2.0 + rng.random(2),
                               TWO_PI * rng.random(2))
            problems.append({
                "kind": kind, "geom": p, "n": n, "density": dkind,
                "location": complex(loc), "strength": complex(strength),
                "targets": targets, "outside": outside, "orders": orders,
                "boundary_s": float(TWO_PI * rng.random()),
                "boundary_order": int(rng.integers(0, 3)),
                "exterior": ext})

        def ring(k):
            r = 1.5 + 1.5 * rng.random(k)
            ang = rng.random() * TWO_PI + np.pi * (0.5 + rng.random(k)) \
                * np.arange(k)
            return r * np.exp(1j * ang)
        probes = {"pole": ring(1), "two-poles": ring(2),
                  "strengths": (0.5 + rng.random(3))
                  * np.exp(TWO_PI * 1j * rng.random(3))}
        return {"seed": int(seed), "size": size, "problems": problems,
                "probes": probes}

    @classmethod
    def _probe_files(cls, ck, spec, workdir):
        pr = spec["probes"]
        theta = -np.pi + TWO_PI * np.arange(cls.PROBE_SAMPLES) \
            / cls.PROBE_SAMPLES
        t = np.exp(1j * theta)
        s1, s2, s3 = pr["strengths"]
        data = {
            "pole": s1 / (t - pr["pole"][0]),
            "two-poles": s2 / (t - pr["two-poles"][0])
            + s3 / (t - pr["two-poles"][1]),
        }
        for name, at in cls.PROBE_BRANCHES.items():
            data[name] = catalog_derivative("algebraic-branch", s1, at, 0, t)
        paths = {}
        for name, vals in data.items():
            path = os.path.join(workdir, f"{cls.NAME}-{spec['seed']}-"
                                f"{spec['size']}-{name}.txt")
            with open(path, "w") as fh:
                fh.write("# theta Re f Im f\n")
                for th, v in zip(theta, vals):
                    fh.write(f"{th:.17g} {v.real:.17g} {v.imag:.17g}\n")
            paths[name] = path
        return paths

    @classmethod
    def build(cls, ck, spec, sampling, workdir):
        ops = []
        for i, pb in enumerate(spec["problems"]):
            ops += cls._problem_ops(ck, i, pb, sampling)
        ops.append(_verify_op(ck, "direct-problem", spec["seed"]))
        paths = cls._probe_files(ck, spec, workdir)
        truth = spec["probes"]
        for name, path in paths.items():
            ops.append(Op("cli/probe", "cli", "probe",
                          lambda path=path: cli_call(
                              ck.cli.main, ["probe", path]),
                          lambda out, name=name: cls._check_probe(
                              out, name, truth),
                          known=name == "branch-json-defect"))
        return ops

    @staticmethod
    def _check_probe(out, name, truth):
        rc, text, _ = out
        doc = _json_rows(text)
        if rc != 0 or doc is None:
            return [Outcome("cli.probe", np.array([np.inf]), 0.0,
                            graded=False)]
        rep = doc["report"]
        locs = np.array([complex(*z) for z in rep["locations"]])
        asserted = rep["poles_asserted"]
        if name.startswith("branch"):
            # branch-type data must come back without asserted poles
            return [Outcome("cli.probe", flag(not asserted), 0.5,
                            graded=False)]
        want = truth[name]
        tol = TOL_PROBE_ONE if name == "pole" else TOL_PROBE_TWO
        errs = np.array([np.min(np.abs(locs - w)) / abs(w) if locs.size
                         else np.inf for w in want])
        return [Outcome("cli.probe", errs, tol),
                Outcome("cli.probe", flag(asserted), 0.5, graded=False)]

    @staticmethod
    def _problem_ops(ck, i, pb, sampling):
        group = f"problem/{i}"
        kind, p, n = pb["kind"], pb["geom"], pb["n"]
        contour = _contour(ck, sampling, kind, p)
        grid = ck.periodic_trapezoid_grid(n)
        pres = ck.SingularityPrescription(pb["density"], pb["location"],
                                          pb["strength"])
        f = _rewrap_catalog(ck, sampling, ck.catalog_function(pres))

        def ref(m, t):
            return catalog_derivative(pb["density"], pb["strength"],
                                      pb["location"], m, t)

        ops = [Op(group, "geometry", "validate_contour",
                  lambda: ck.validate_contour(contour, grid),
                  lambda out: [Outcome("geometry.validate_contour", flag(True),
                                       0.5, value=False, graded=False)],
                  size=n)]
        for z, outside, m in zip(pb["targets"], pb["outside"], pb["orders"]):
            z, m = complex(z), int(m)
            expected = 0.0 if outside else complex(ref(m, z))
            ops.append(Op(group, "cauchy", "cauchy_functional",
                          lambda z=z, m=m: ck.cauchy_functional(
                              f, contour, grid, z, m),
                          lambda out, e=expected: [Outcome(
                              "cauchy.cauchy_functional",
                              scaled_error(out.value, e), TOL_FUNCTIONAL)],
                          size=n))
        t0 = complex(curve(kind, p, pb["boundary_s"]))
        mb = pb["boundary_order"]
        ops.append(Op(group, "cauchy", "boundary_value",
                      lambda: ck.boundary_value(f, contour, grid, t0, mb),
                      lambda out, e=complex(ref(mb, t0)): [Outcome(
                          "cauchy.boundary_value", scaled_error(out, e),
                          TOL_FUNCTIONAL)], size=n))
        ops.append(Op(group, "cauchy", "vanishing_contour_integral",
                      lambda: ck.vanishing_contour_integral(f, contour, grid),
                      lambda out: [Outcome("cauchy.vanishing_contour_integral",
                                           scaled_error(out, 0.0),
                                           TOL_VANISHING)], size=n))
        ext = pb["exterior"]
        ops.append(Op(group, "singularities", "exterior_annihilation_check",
                      lambda: ck.exterior_annihilation_check(
                          f, contour, grid, ext, orders=(0, 1, 2)),
                      lambda out: [Outcome(
                          "singularities.exterior_annihilation_check",
                          np.array([abs(out)]), TOL_ANNIHILATION)], size=n))
        if kind != "circle":
            return ops

        # Taylor coefficients of g(w) = f(c + r w) from the boundary samples,
        # then the Pade probe on them
        c, r = p["center"], p["radius"]
        samples = catalog_derivative(pb["density"], pb["strength"],
                                     pb["location"], 0,
                                     curve(kind, p, TWO_PI * np.arange(n) / n))
        n_max = min(47, n // 2 - 1)
        kk = np.arange(7)
        want = np.array([complex(ref(int(k), c)) * r ** k / math.factorial(k)
                         for k in kk])
        box = {}

        def taylor():
            box["c"] = None
            box["c"] = ck.taylor_coefficients(samples, n_max)
            return box["c"]
        ops.append(Op(group, "singularities", "taylor_coefficients", taylor,
                      lambda out: [Outcome(
                          "singularities.taylor_coefficients",
                          scaled_error(out[:7], want), TOL_TAYLOR)],
                      n=7, size=n))
        if pb["density"] == "pole":
            pole_w = (pb["location"] - c) / r

            def check_pole(out):
                if not out.locations:
                    return [Outcome("singularities.pade_pole_probe",
                                    np.array([np.inf]), TOL_PROBE_ONE)]
                err = abs(out.locations[0] - pole_w) / abs(pole_w)
                return [Outcome("singularities.pade_pole_probe",
                                np.array([err]), TOL_PROBE_ONE)]
            ops.append(Op(group, "singularities", "pade_pole_probe",
                          lambda: ck.pade_pole_probe(box["c"][:8],
                                                     degrees=(0, 1)),
                          check_pole, size=n))
        else:
            ops.append(Op(group, "singularities", "pade_pole_probe",
                          lambda: ck.pade_pole_probe(
                              box["c"], boundary_samples=samples),
                          lambda out: [Outcome(
                              "singularities.pade_pole_probe",
                              flag(not out.poles_asserted), 0.5,
                              graded=False)], size=n))
        return ops

    @classmethod
    def properties(cls, spec):
        probs = spec["problems"]
        ns = np.array([p["n"] for p in probs])
        kinds = Counter(p["kind"] for p in probs)
        dens = Counter(p["density"] for p in probs)
        orders = Counter(int(m) for p in probs for m in p["orders"])
        targets = sum(len(p["targets"]) for p in probs)
        outside = sum(int(np.count_nonzero(p["outside"])) for p in probs)
        return {
            "problems": len(probs),
            "contour_kinds": dict(kinds),
            "n_distribution": {"min": int(ns.min()),
                               "median": float(np.median(ns)),
                               "max": int(ns.max()), "hist": _n_hist(ns)},
            "pole_branch_mix": dict(dens),
            "targets": targets, "targets_outside": outside,
            "target_orders": {str(k): v for k, v in sorted(orders.items())},
            "near_zone_share": 0.0,
            "probe_files": ["pole", "two-poles"] + list(cls.PROBE_BRANCHES),
        }


# ---------------------------------------------------------------------------
# transforms-and-arcs


class TransformsAndArcs:
    """Circular and line transforms (periodic half) and open-arc Plemelj,
    Poincare-Bertrand and airfoil work (open-arc half)."""

    NAME = "transforms-and-arcs"
    # 8 segment and 40 arc points put the median call inside the block of
    # curved-arc plemelj_limits calls and the p90 call inside the n = 1024
    # circular transforms, away from a gap between call classes, where the
    # percentile would jump between classes from run to run
    SIZES = {"full": {"circular_n": (256, 1024, 4096), "modes": 8,
                      "line_targets": 41, "segment_points": 8,
                      "arc_points": 40, "off_arc": 8,
                      "chord_targets": 33, "field": 48,
                      "airfoil_n": (64, 128, 256), "pb_panels": 24,
                      "verify": ("hilbert", "plemelj")},
             "tiny": {"circular_n": (32, 64), "modes": 3,
                      "line_targets": 5, "segment_points": 2,
                      "arc_points": 2, "off_arc": 2,
                      "chord_targets": 4, "field": 4, "airfoil_n": (32,),
                      "pb_panels": 8, "verify": ("hilbert",)}}
    LINE_WINDOW = 50.0
    CLI_SAMPLES = 256

    @classmethod
    def generate(cls, seed, size):
        cfg = cls.SIZES[size]
        rng = _seeded(seed, 3)

        def trig(max_mode, modes):
            k = np.sort(rng.choice(np.arange(1, max_mode + 1), size=modes,
                                   replace=False))
            return {"modes": k, "a0": float(rng.normal()),
                    "a": rng.normal(size=modes) / np.sqrt(modes),
                    "b": rng.normal(size=modes) / np.sqrt(modes)}

        circular = {n: trig(min(24, n // 4), cfg["modes"])
                    for n in cfg["circular_n"]}
        period = float(1.0 + 2.0 * rng.random())
        periodic = dict(trig(12, min(4, cfg["modes"])), period=period,
                        targets=period * (2.0 * rng.random(
                            cfg["line_targets"]) - 1.0))
        line_a = float(0.5 + 1.5 * rng.random())
        line_targets = np.sort(10.0 * rng.random(cfg["line_targets"]) - 5.0)
        cli_trig = trig(20, min(6, cfg["modes"]))
        cli_line_a = float(0.3 + 0.4 * rng.random())
        seg = {"coef": rng.normal(size=3) + 1j * rng.normal(size=3),
               "x0": np.sort(-0.9 + 1.8 * rng.random(cfg["segment_points"]))}
        off = cfg["off_arc"]
        seg["off"] = np.where(rng.random(off) < 0.5, 1.0, -1.0) \
            * (0.5 + rng.random(off)) * 1j + (3.0 * rng.random(off) - 1.5)
        arc = {"theta0": float(TWO_PI * rng.random()),
               "span": float(1.0 + rng.random()),
               "coef": rng.normal(size=3) + 1j * rng.normal(size=3),
               "s0": np.sort(0.1 + 0.8 * rng.random(cfg["arc_points"]))}
        rad = np.where(rng.random(off) < 0.5, 0.5 * rng.random(off),
                       1.5 + rng.random(off))
        arc["off"] = rad * np.exp(TWO_PI * 1j * rng.random(off))
        pb = {"x0": -0.5 + rng.random(2)}
        chord = {"phi": rng.normal(size=4),
                 "x": np.sort(-0.95 + 1.9 * rng.random(cfg["chord_targets"]))}
        fx = 5.0 * rng.random(cfg["field"]) - 2.5
        fy = np.where(rng.random(cfg["field"]) < 0.5, 1.0, -1.0) \
            * (0.4 + 1.1 * rng.random(cfg["field"]))
        sheet = {"q": rng.normal(size=3), "gamma": rng.normal(size=3),
                 "z": fx + 1j * fy}
        airfoil = [{"u": float(0.5 + 1.5 * rng.random()),
                    "alpha": float((0.05 + 0.45 * rng.random())
                                   * (1 if rng.random() < 0.5 else -1)),
                    "rho": float(0.5 + 1.5 * rng.random()), "n": int(n)}
                   for n in cfg["airfoil_n"]]
        return {"seed": int(seed), "size": size, "circular": circular,
                "periodic": periodic, "line_a": line_a,
                "line_targets": line_targets, "cli_trig": cli_trig,
                "cli_line_a": cli_line_a, "segment": seg, "arc": arc,
                "pb": pb, "chord": chord, "sheet": sheet, "airfoil": airfoil}

    # -- periodic half ------------------------------------------------------

    @classmethod
    def _circular_ops(cls, ck, spec):
        ops = []
        transforms = (("hilbert_circular", 1.0),
                      ("hilbert_circular_inverse", -1.0),
                      ("hilbert_circular_complementary", -1.0),
                      ("hilbert_circular_complementary_inverse", 1.0))
        for n, tp in spec["circular"].items():
            theta = -np.pi + TWO_PI * np.arange(n) / n
            pf = ck.PeriodicFunction(trig_poly(tp["modes"], tp["a0"], tp["a"],
                                               tp["b"], theta))
            conj = trig_conjugate(tp["modes"], tp["a"], tp["b"], theta)
            for name, sign in transforms:
                fn = getattr(ck, name)
                ops.append(Op(f"circular/n{n}", "hilbert", name,
                              lambda fn=fn, pf=pf: fn(pf),
                              lambda out, want=sign * conj: [Outcome(
                                  "hilbert.circular",
                                  scaled_error(out.samples, want),
                                  TOL_CIRCULAR)], n=n, size=n))
        return ops

    @classmethod
    def _line_ops(cls, ck, spec, sampling):
        ops = []
        pr = spec["periodic"]
        period = pr["period"]

        def vper(x):
            return trig_poly(pr["modes"], pr["a0"], pr["a"], pr["b"],
                             TWO_PI * np.asarray(x) / period)
        rlf = ck.RealLineFunction(sampling.density(vper), decay=0.0,
                                  period=period)
        xi = pr["targets"]
        conj = trig_conjugate(pr["modes"], pr["a"], pr["b"],
                              TWO_PI * xi / period)
        for name, sign in (("hilbert_line", 1.0),
                           ("hilbert_line_inverse", -1.0)):
            fn = getattr(ck, name)
            ops.append(Op("line/periodic", "hilbert", name,
                          lambda fn=fn, xi=xi: fn(rlf, xi),
                          lambda out, w=sign * conj: [Outcome(
                              "hilbert.line_periodic",
                              scaled_error(out.values, w), TOL_CIRCULAR)],
                          n=xi.size))
        a = spec["line_a"]
        xi = spec["line_targets"]
        v = ck.RealLineFunction(sampling.density(
            lambda x: -a / (x ** 2 + a ** 2)), decay=2,
            window=cls.LINE_WINDOW)
        u = ck.RealLineFunction(sampling.density(
            lambda x: x / (x ** 2 + a ** 2)), decay=1, window=cls.LINE_WINDOW)
        for name, fn, arg, want in (
                ("hilbert_line", ck.hilbert_line, v, xi / (xi ** 2 + a * a)),
                ("hilbert_line_inverse", ck.hilbert_line_inverse, u,
                 -a / (xi ** 2 + a * a)),
                ("hilbert_complementary", ck.hilbert_complementary, v,
                 -xi / (xi ** 2 + a * a))):
            ops.append(Op("line/decaying", "hilbert", name,
                          lambda fn=fn, arg=arg, xi=xi: fn(arg, xi),
                          lambda out, w=want: [Outcome(
                              "hilbert.line_decaying",
                              scaled_error(out.values, w), TOL_LINE)],
                          n=xi.size))
        return ops

    @classmethod
    def _transform_cli_ops(cls, ck, spec, workdir):
        n = cls.CLI_SAMPLES
        theta = -np.pi + TWO_PI * np.arange(n) / n
        tp = spec["cli_trig"]
        circ = trig_poly(tp["modes"], tp["a0"], tp["a"], tp["b"], theta)
        a = spec["cli_line_a"]
        line = -a / (theta ** 2 + a * a)
        ops = []
        for kind, col in (("circular", circ), ("line", line)):
            path = os.path.join(workdir, f"{cls.NAME}-{spec['seed']}-"
                                f"{spec['size']}-{kind}.txt")
            with open(path, "w") as fh:
                for th, val in zip(theta, col):
                    fh.write(f"{th:.17g} {val:.17g} 0.0\n")
            if kind == "circular":
                want = trig_conjugate(tp["modes"], tp["a"], tp["b"], theta)
                tol, cls_name = TOL_CIRCULAR, "cli.transform_circular"
            else:
                # no closed form for the CLI's interpolated, window-truncated
                # column: the consistency identity is that the CLI returns
                # the library's line transform of the same data
                rlf = ck.RealLineFunction(
                    lambda x, col=col: np.interp(x, theta, col, left=0.0,
                                                 right=0.0),
                    decay=2.0, window=float(np.max(np.abs(theta))))
                want = ck.hilbert_line(rlf, 0.9 * theta).values
                tol, cls_name = TOL_CLI_ECHO, "cli.transform_line"

            def check(out, want=want, tol=tol, cls_name=cls_name):
                rc, text, _ = out
                doc = _json_rows(text)
                if rc != 0 or doc is None:
                    return [Outcome(cls_name, np.full(want.size, np.inf), tol)]
                return [Outcome(cls_name, scaled_error(doc["values"], want),
                                tol)]
            ops.append(Op("cli/transform", "cli", "transform",
                          lambda path=path, kind=kind: cli_call(
                              ck.cli.main, ["transform", path, "--kind", kind,
                                            "--format", "json"]),
                          check, n=n))
        return ops

    # -- open-arc half ------------------------------------------------------

    @classmethod
    def _arc_ops(cls, ck, spec, sampling):
        ops = []
        grid = ck.gauss_panel_grid(24, 12)
        seg = ck.segment(-1.0, 1.0)
        ar = spec["arc"]
        th0, span = ar["theta0"], ar["span"]

        def arc_z(s):
            return np.exp(1j * (th0 + span * np.asarray(s, dtype=float)))

        def arc_dz(s):
            return 1j * span * arc_z(s)

        def arc_d2z(s):
            return -span * span * arc_z(s)

        def seg_z(s):
            return -1.0 + 2.0 * np.asarray(s, dtype=float) + 0j

        def seg_dz(s):
            return np.full(np.shape(np.asarray(s)), 2.0 + 0j)

        arcs = {
            "segment": (ck.JordanArc(z=sampling.contour(seg.z),
                                     dz=sampling.contour(seg.dz),
                                     d2z=sampling.contour(seg.d2z)),
                        seg_z, seg_dz, spec["segment"]["coef"],
                        (spec["segment"]["x0"] + 1.0) / 2.0,
                        spec["segment"]["off"]),
            "circular-arc": (ck.JordanArc(z=sampling.contour(arc_z),
                                          dz=sampling.contour(arc_dz),
                                          d2z=sampling.contour(arc_d2z)),
                             arc_z, arc_dz, ar["coef"], ar["s0"], ar["off"]),
        }
        for name, (arc, z_of, dz_of, coef, s0s, off) in arcs.items():
            def g_plain(t, coef=coef):
                t = np.asarray(t, dtype=complex)
                return coef[0] + coef[1] * t + coef[2] * t * t
            g = ck.ArcDensity(sampling.density(g_plain))
            a, b = z_of(np.array([0.0]))[0], z_of(np.array([1.0]))[0]
            for s0 in s0s:
                t0 = complex(z_of(np.array([s0]))[0])
                pv = g_plain(t0) * arc_pv_log(z_of, dz_of, s0) \
                    + quad_integral(coef, a, b, t0)
                plus = 0.5 * g_plain(t0) + pv / (2j * np.pi)
                minus = -0.5 * g_plain(t0) + pv / (2j * np.pi)
                ops.append(Op(f"{name}/plemelj", "plemelj", "plemelj_limits",
                              lambda t0=t0, arc=arc, g=g: ck.plemelj_limits(
                                  g, arc, grid, t0),
                              lambda out, w=np.array([plus, minus]): [Outcome(
                                  "plemelj.plemelj_limits",
                                  scaled_error([out[0].value, out[1].value],
                                               w), TOL_PLEMELJ)], n=2))
            logs = arc_log(z_of, off)
            want = (g_plain(off) * logs + quad_integral(coef, a, b, off)) \
                / (2j * np.pi)
            for z, w in zip(off, want):
                z = complex(z)
                for fname in ("arc_cauchy_integral", "reconstruct_from_jump"):
                    fn = getattr(ck, fname)
                    ops.append(Op(f"{name}/field", "plemelj", fname,
                                  lambda fn=fn, z=z, arc=arc, g=g: fn(
                                      g, arc, grid, z),
                                  lambda out, w=w: [Outcome(
                                      "plemelj.arc_integral",
                                      scaled_error(out, w), TOL_PLEMELJ)]))
        pb_grid = ck.gauss_panel_grid(cls.SIZES[spec["size"]]["pb_panels"], 12)
        f2s = {"const": lambda t, tp: np.ones_like(np.asarray(t,
                                                              dtype=complex)),
               "bilinear": lambda t, tp: np.asarray(t) * tp}
        pb_arc = arcs["segment"][0]
        for (name, f2), x0 in zip(f2s.items(), spec["pb"]["x0"]):
            f2w = sampling.density(f2)
            ops.append(Op("segment/poincare-bertrand", "plemelj",
                          "poincare_bertrand_residual",
                          lambda f2w=f2w, x0=complex(x0):
                          ck.poincare_bertrand_residual(f2w, pb_arc, pb_grid,
                                                        x0),
                          lambda out: [Outcome(
                              "plemelj.poincare_bertrand_residual",
                              np.array([abs(out)]), TOL_PB)]))
        return ops

    @classmethod
    def _airfoil_ops(cls, ck, spec, sampling):
        ops = []
        ch = spec["chord"]
        phi_c = ch["phi"]
        x = ch["x"]

        def phi(t):
            return np.polyval(phi_c[::-1], np.asarray(t, dtype=float))
        gamma = ck.SheetDensity(weight_coef=sampling.density(phi))
        q = poly_quotient(list(phi_c), x)
        want_v = (-np.pi * phi(x) + sum(qk * chord_weight_moment(k)
                                        for k, qk in enumerate(q))) \
            / (2.0 * np.pi)
        ops.append(Op("chord/finite-hilbert", "airfoil",
                      "finite_hilbert_transform",
                      lambda: ck.finite_hilbert_transform(gamma, x, n=128),
                      lambda out: [Outcome("airfoil.finite_hilbert_transform",
                                           scaled_error(out, want_v),
                                           TOL_FINITE_HILBERT)], n=x.size))

        def round_trip():
            dens = ck.finite_hilbert_inverse(
                lambda t: ck.finite_hilbert_transform(gamma, t, n=128), n=128)
            return dens.weight_coef(x)
        ops.append(Op("chord/finite-hilbert", "airfoil",
                      "finite_hilbert_inverse", round_trip,
                      lambda out: [Outcome("airfoil.finite_hilbert_inverse",
                                           scaled_error(out, phi(x)),
                                           TOL_FINITE_HILBERT)], n=x.size))

        sh = spec["sheet"]
        z = sh["z"]
        qc, gc = sh["q"], sh["gamma"]

        def q_smooth(t):
            return np.polyval(qc[::-1], np.asarray(t, dtype=float))

        def g_weight(t):
            return np.polyval(gc[::-1], np.asarray(t, dtype=float))
        src = ck.SheetDensity(smooth=sampling.density(q_smooth))
        vort = ck.SheetDensity(weight_coef=sampling.density(g_weight))
        zq = np.polyval(qc[::-1], z)
        zg = np.polyval(gc[::-1], z)
        q_int = zq * np.log((z + 1.0) / (z - 1.0)) - sum(
            qk * chord_moment(k) for k, qk in enumerate(poly_quotient(
                list(qc), z)))
        g_int = zg * np.pi * (1.0 - np.sqrt((z - 1.0) / (z + 1.0))) - sum(
            qk * chord_weight_moment(k) for k, qk in enumerate(poly_quotient(
                list(gc), z)))
        want_w = (q_int + 1j * g_int) / (2.0 * np.pi)
        ops.append(Op("chord/sheet-field", "airfoil", "sheet_velocity_field",
                      lambda: ck.sheet_velocity_field(src, vort, z),
                      lambda out: [Outcome("airfoil.sheet_velocity_field",
                                           scaled_error(out, want_w),
                                           TOL_FINITE_HILBERT)], n=z.size))

        for cfg in spec["airfoil"]:
            argv = ["airfoil", "--u", repr(cfg["u"]), "--alpha",
                    repr(cfg["alpha"]), "--rho", repr(cfg["rho"]), "--n",
                    str(cfg["n"]), "--format", "json"]
            ops.append(Op("cli/airfoil", "cli", "airfoil",
                          lambda argv=argv: cli_call(ck.cli.main, argv),
                          lambda out, cfg=cfg: cls._check_airfoil(out, cfg)))
        return ops

    @staticmethod
    def _check_airfoil(out, cfg):
        rc, text, _ = out
        doc = _json_rows(text)
        if rc != 0 or doc is None:
            return [Outcome("cli.airfoil", np.array([np.inf]), 0.0,
                            graded=False)]
        u, al, rho = cfg["u"], cfg["alpha"], cfg["rho"]
        amp = u * np.sin(al)
        lift = 2.0 * np.pi * rho * u * u * abs(np.sin(al))
        normal = 2.0 * np.pi * rho * u * u * np.sin(al) * np.cos(al)
        sc = doc["scalars"]
        got = np.array([sc["circulation"], sc["circulation_far_field"],
                        sc["lift_magnitude"], sc["normal_force"],
                        sc["leading_edge_suction"]])
        want = np.array([TWO_PI * amp, TWO_PI * amp, lift, abs(normal),
                         lift * abs(np.sin(al))])
        # normal force carries the sign of alpha
        got[3] = abs(got[3])
        tab = doc["chord_table"]
        xc = np.array(tab["x"])
        s = np.sqrt((1.0 - xc) / (1.0 + xc))
        chord_err = np.max(np.array([
            scaled_error(tab["u_plus"], amp * s),
            scaled_error(tab["u_minus"], -amp * s),
            scaled_error(tab["v"], np.full(xc.size, -amp)),
            scaled_error(tab["gamma"], 2.0 * amp * s),
            scaled_error(tab["dp"], 2.0 * rho * u * np.cos(al) * amp * s)]),
            axis=0)
        fld = doc["field"]
        zf = np.array(fld["z_re"]) + 1j * np.array(fld["z_im"])
        wf = np.array(fld["w_re"]) + 1j * np.array(fld["w_im"])
        w_ref = 1j * amp * (1.0 - np.sqrt((zf - 1.0) / (zf + 1.0)))
        return [Outcome("cli.airfoil_scalars", scaled_error(got, want),
                        TOL_AIRFOIL_SCALAR),
                Outcome("cli.airfoil_chord", chord_err, TOL_AIRFOIL_POINT),
                Outcome("cli.airfoil_field", scaled_error(wf, w_ref),
                        TOL_AIRFOIL_POINT)]

    @classmethod
    def build(cls, ck, spec, sampling, workdir):
        cfg = cls.SIZES[spec["size"]]
        ops = cls._circular_ops(ck, spec)
        ops += cls._line_ops(ck, spec, sampling)
        ops += cls._transform_cli_ops(ck, spec, workdir)
        ops.append(_verify_op(ck, "hilbert", spec["seed"]))
        ops += cls._arc_ops(ck, spec, sampling)
        ops += cls._airfoil_ops(ck, spec, sampling)
        if "plemelj" in cfg["verify"]:
            ops.append(_verify_op(ck, "plemelj", spec["seed"]))
        # a pass takes seconds while the machine's speed drifts; shuffled, the
        # calls of each class sample the whole pass, not one short stretch
        order = _seeded(spec["seed"], 4).permutation(len(ops))
        return [ops[i] for i in order]

    @classmethod
    def properties(cls, spec):
        cfg = cls.SIZES[spec["size"]]
        return {
            "circular_n": list(cfg["circular_n"]),
            "circular_transforms_per_n": 4,
            "trig_modes": {str(n): tp["modes"].tolist()
                           for n, tp in spec["circular"].items()},
            "line_decaying_a": spec["line_a"],
            "periodic_period": spec["periodic"]["period"],
            "plemelj_points": {"segment": int(spec["segment"]["x0"].size),
                               "circular-arc": int(spec["arc"]["s0"].size)},
            "arc_span_rad": spec["arc"]["span"],
            "pb_panels": cfg["pb_panels"],
            "pb_x0": spec["pb"]["x0"].tolist(),
            "airfoil_configs": spec["airfoil"],
            "near_zone_share": 0.0,
            "n_distribution": {"circular": list(cfg["circular_n"]),
                               "airfoil": list(cfg["airfoil_n"]),
                               "arc_grid": 288},
            "pole_branch_mix": {},
        }


WORKLOADS = {w.NAME: w for w in (ContourManyTargets, ContourManyProblems,
                                 TransformsAndArcs)}
