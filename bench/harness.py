"""Measurement machinery for the cauchykit benchmark.

A workload is a list of :class:`Op` objects: one top-level call into a
cauchykit module (or into ``cauchykit.cli.main``) plus the check that
compares its output with a reference.  A pass issues every op back to back
from a single caller (closed loop), timing each call; the checks run after
the pass, outside the timed region.

The timed run (``trace=False``) reports the end-to-end metrics.  The traced
run (``trace=True``) rebuilds the ops over counting wrappers on the
benchmark's own contour and density callables, alternates untraced and
traced passes, and reports the per-layer metrics plus the tracing overhead.
"""

import contextlib
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

LAYERS = ("cli", "cauchy", "geometry", "hilbert", "plemelj", "airfoil",
          "singularities")

# log10(tol / max(err, floor)): errors below this relative floor are
# rounding noise and all grade the same.
ACCURACY_FLOOR = 1e-14

# call_tail_ms is read, per pass, at the highest of these percentiles that
# leaves at least TAIL_MIN_BEYOND calls of the pass beyond it; the metric is
# the median over passes, so one burst of host noise moves it little.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

MIN_PASSES = 2
SETUP_REPEATS = 9

# On a shared virtual machine (measured: 2-vCPU Xeon guest) the speed drifts
# by 20-30% over tens of seconds, far beyond any useful regression bound.
# Every time the benchmark reports is therefore in reference seconds: the
# raw time scaled by CAL_REFERENCE_S over the median time of a calibration
# loop measured every CAL_INTERVAL_S during the same pass.  The loop is the
# geometric mean of a pure-Python loop and a loop of small numpy array
# operations, the two instruction mixes of the library; neither touches
# cauchykit, so a faster library still reads faster.  The raw times and the
# calibration medians are kept in the report.
CAL_REFERENCE_S = 3.2e-3
CAL_INTERVAL_S = 0.2
_CAL_X = np.linspace(0.0, 1.0, 512) + 0j


def calibration_loop():
    """Geometric mean of the seconds taken by the two calibration loops."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i * 0.5) % 7.0
    t1 = time.perf_counter()
    for i in range(120):
        acc += float(np.sum(np.exp(1j * i * _CAL_X) / (_CAL_X + 2.0)).real)
    t2 = time.perf_counter()
    return float(np.sqrt((t1 - t0) * (t2 - t1)))


@dataclass
class Outcome:
    """Checked results of one op: scaled errors against their tolerance."""

    cls: str
    errs: np.ndarray
    tol: Any                    # float, or an array matching errs
    value: bool = True          # counts toward evals_per_s
    graded: bool = True         # enters accuracy_digits
    known: bool = False         # declared known-defect class (near zone)

    @property
    def missed(self):
        errs = np.asarray(self.errs, dtype=float)
        return ~(errs <= np.asarray(self.tol, dtype=float))


@dataclass
class Op:
    """One top-level library call of a pass and the check of its output."""

    group: str                  # workload operation, the parent span
    layer: str
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    n: int = 1                  # results the op yields (failed if it raises)
    size: Optional[int] = None  # grid size, for the by-n layer rows
    known: bool = False


def scaled_error(out, ref):
    """|out - ref| / max(1, |ref|), elementwise."""
    out = np.asarray(out, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        err = np.abs(out - ref) / np.maximum(1.0, np.abs(ref))
    return np.where(np.isfinite(err), err, np.inf)


def flag(ok):
    """Pass/fail result as an error of 0 or 1 against a tolerance of 0.5."""
    return np.array([0.0 if ok else 1.0])


# ---------------------------------------------------------------------------
# sampling layer: counting wrappers on the benchmark's own callables


class Plain:
    """Leaves callables untouched (timed runs)."""

    def contour(self, fn):
        return fn

    def density(self, fn):
        return fn


class Counting:
    """Counts calls and points of contour and density callables."""

    def __init__(self):
        self.counts = {"contour_calls": 0, "contour_points": 0,
                       "density_calls": 0, "density_points": 0}

    def _wrap(self, fn, kind):
        if fn is None:
            return None
        counts = self.counts

        def counted(*args):
            counts[kind + "_calls"] += 1
            counts[kind + "_points"] += (np.size(args[0]) if len(args) == 1
                                         else np.broadcast(*args).size)
            return fn(*args)
        return counted

    def contour(self, fn):
        return self._wrap(fn, "contour")

    def density(self, fn):
        return self._wrap(fn, "density")

    def snapshot_and_reset(self):
        snap = dict(self.counts)
        for key in self.counts:
            self.counts[key] = 0
        return snap


# ---------------------------------------------------------------------------
# helpers shared by the workloads


def fresh_import():
    """Import cauchykit and its CLI module from scratch (part of set-up)."""
    for name in [m for m in sys.modules
                 if m == "cauchykit" or m.startswith("cauchykit.")]:
        del sys.modules[name]
    ck = importlib.import_module("cauchykit")
    importlib.import_module("cauchykit.cli")
    return ck


def cli_call(main, argv):
    """Run the CLI entry point, capturing (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def digest(obj, h=None):
    """Bit-level fingerprint of a (nested) library output."""
    top = h is None
    if top:
        h = hashlib.blake2b(digest_size=16)
    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, int, float, complex, np.number)):
        h.update(type(obj).__name__.encode())
        h.update(np.asarray(obj).tobytes())
    elif isinstance(obj, str):
        h.update(obj.encode())
    elif isinstance(obj, (tuple, list)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            digest(item, h)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            digest(key, h)
            digest(obj[key], h)
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            digest(getattr(obj, f.name), h)
    elif obj is None:
        h.update(b"None")
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


# ---------------------------------------------------------------------------
# one pass


@dataclass
class PassResult:
    wall: float
    latency: np.ndarray
    start: np.ndarray
    raised: np.ndarray
    warned: np.ndarray
    outcomes: Optional[list]    # per op: list of Outcome (checked passes)
    fingerprint: str
    cli_bytes: int
    cal_s: float                # median calibration loop time in the pass
    sampling: Optional[dict] = None

    @property
    def speed(self):
        """Factor from raw to reference seconds for this pass."""
        return CAL_REFERENCE_S / self.cal_s


def run_pass(ops, sampling=None, check=True):
    """Issue every op once; check the outputs only when ``check`` is set
    (later passes are compared with the first by fingerprint)."""
    count = len(ops)
    outs = [None] * count
    latency = np.empty(count)
    start = np.empty(count)
    warned = np.zeros(count, dtype=int)
    clock = time.perf_counter
    cal = []
    # as timeit does: collect before the pass, no collector pauses inside it
    gc.collect()
    gc.disable()
    try:
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            cal.append(calibration_loop())
            t_pass = last_cal = clock()
            for i, op in enumerate(ops):
                seen = len(log)
                t0 = clock()
                try:
                    out = op.call()
                except Exception as exc:        # counted as an op failure
                    out = exc
                t1 = clock()
                outs[i] = out
                start[i] = t0 - t_pass
                latency[i] = t1 - t0
                warned[i] = len(log) - seen
                if t1 - last_cal >= CAL_INTERVAL_S:
                    cal.append(calibration_loop())
                    last_cal = clock()
            # calibration time inside the pass is not part of the pass
            wall = clock() - t_pass - sum(cal[1:])
    finally:
        gc.enable()
    snap = sampling.snapshot_and_reset() if isinstance(sampling, Counting) \
        else None
    raised = np.array([isinstance(o, Exception) for o in outs], dtype=bool)
    outcomes = [] if check else None
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for op, out in zip(ops, outs if check else ()):
            if isinstance(out, Exception):
                outcomes.append([Outcome(f"{op.layer}.{op.name}",
                                         np.full(op.n, np.inf), 0.0,
                                         graded=False, known=op.known)])
            else:
                outcomes.append(op.check(out))
    fingerprint = digest([o if not isinstance(o, Exception) else repr(o)
                          for o in outs])
    cli_bytes = sum(len(out[1].encode()) for op, out in zip(ops, outs)
                    if op.layer == "cli" and isinstance(out, tuple))
    return PassResult(wall, latency, start, raised, warned, outcomes,
                      fingerprint, cli_bytes, float(np.median(cal)), snap)


def tally(ops, res: PassResult):
    """Per-pass result counts and accuracy grades."""
    attempted = hard = known = values = 0
    digits = []
    layer_misses = dict.fromkeys(LAYERS, 0)
    classes = {}
    for op, outcomes in zip(ops, res.outcomes):
        for oc in outcomes:
            errs = np.asarray(oc.errs, dtype=float).ravel()
            errs = np.where(np.isnan(errs), np.inf, errs)
            miss = np.asarray(oc.missed).ravel()
            n_miss = int(np.count_nonzero(miss))
            attempted += errs.size
            if oc.known:
                known += n_miss
            else:
                hard += n_miss
            if oc.value:
                values += errs.size
            layer_misses[op.layer] += n_miss
            row = classes.setdefault(oc.cls, [0, 0])
            row[0] += errs.size
            row[1] += n_miss
            if oc.graded:
                tol = np.broadcast_to(np.asarray(oc.tol, dtype=float),
                                      errs.shape)
                digits.append(np.log10(tol / np.clip(errs, ACCURACY_FLOOR,
                                                     1e300)))
    digits = np.concatenate(digits) if digits else np.array([0.0])
    return {"attempted": attempted, "hard_misses": hard,
            "known_misses": known, "values": values,
            "accuracy_digits": float(np.median(digits)),
            "layer_misses": layer_misses, "classes": classes}


def tail_percentile(calls_per_pass):
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if calls_per_pass * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            best = p
    return best


# ---------------------------------------------------------------------------
# environment record


def environment(threads):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


# ---------------------------------------------------------------------------
# run


def _setup(workload, seed, size, workdir, sampling):
    ck = fresh_import()
    spec = workload.generate(seed, size)
    ops = workload.build(ck, spec, sampling, workdir)
    return ck, spec, ops


def run_workload(workload, seed, seconds, trace, size="full", workdir=".",
                 threads=None):
    """Run one workload; returns (result line dict, report dict, spans)."""
    os.makedirs(workdir, exist_ok=True)
    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        cal = float(np.median([calibration_loop() for _ in range(3)]))
        t0 = time.perf_counter()
        ck, spec, ops = _setup(workload, seed, size, workdir, Plain())
        setup_raw.append(time.perf_counter() - t0)
        setup_times.append(setup_raw[-1] * CAL_REFERENCE_S / cal)
    traced_ops = None
    counting = None
    if trace:
        counting = Counting()
        traced_ops = workload.build(ck, spec, counting, workdir)

    plain_runs, traced_runs = [], []
    t_begin = time.perf_counter()
    while True:
        plain_runs.append(run_pass(ops, check=not plain_runs))
        if trace:
            traced_runs.append(run_pass(traced_ops, counting,
                                        check=not traced_runs))
        elapsed = time.perf_counter() - t_begin
        if len(plain_runs) >= MIN_PASSES and elapsed >= seconds:
            break

    first = tally(ops, plain_runs[0])
    fingerprints = {r.fingerprint for r in plain_runs + traced_runs}
    problems = []
    if first["hard_misses"]:
        problems.append(f"{first['hard_misses']} results outside tolerance "
                        "outside the known-defect class")
    if len(fingerprints) != 1:
        problems.append("checked results differ between passes"
                        + (" or between traced and untraced passes"
                           if trace else ""))
    if trace:
        snaps = [r.sampling for r in traced_runs]
        if any(s != snaps[0] for s in snaps):
            problems.append("sampling counts differ between traced passes")

    walls = np.array([r.wall * r.speed for r in plain_runs])
    wall_s = float(np.median(walls))
    calls_per_pass = len(ops)
    report = {
        "workload": workload.NAME, "seed": seed, "size": size,
        "trace": bool(trace), "passes": len(plain_runs),
        "calls_per_pass": calls_per_pass,
        "results_per_pass": first["attempted"],
        "values_per_pass": first["values"],
        "known_defect_misses_per_pass": first["known_misses"],
        "hard_misses_per_pass": first["hard_misses"],
        "result_classes": {k: {"attempted": v[0], "missed": v[1]}
                           for k, v in sorted(first["classes"].items())},
        "input_properties": workload.properties(spec),
        "op_counts": dict(sorted(Counter(f"{op.layer}.{op.name}"
                                         for op in ops).items())),
        "environment": environment(threads),
        "raw_wall_s": [r.wall for r in plain_runs],
        "calibration_ms": [r.cal_s * 1e3 for r in plain_runs],
        "calibration_reference_ms": CAL_REFERENCE_S * 1e3,
        "raw_setup_s": setup_raw,
        "problems": problems,
    }
    correct = not problems
    attempted = first["attempted"] * len(plain_runs)
    failed = first["hard_misses"] * len(plain_runs)

    if not trace:
        per_pass = [r.latency * r.speed for r in plain_runs]
        lat = np.concatenate(per_pass)
        pct = tail_percentile(calls_per_pass)
        metrics = {
            "wall_s": (wall_s, "s"),
            "evals_per_s": (float(np.median(first["values"] / walls)), "1/s"),
            "call_p50_ms": (float(np.median(lat)) * 1e3, "ms"),
            "call_tail_ms": (float(np.median([np.percentile(p, pct)
                                              for p in per_pass])) * 1e3,
                             "ms"),
            "setup_s": (float(np.median(setup_times)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            # add-one estimate, so a clean workload reads 1/(N+1), not 0
            "fail_ratio": ((first["hard_misses"] + first["known_misses"] + 1)
                           / (first["attempted"] + 1), "1"),
            "accuracy_digits": (first["accuracy_digits"], "digits"),
        }
        report["samples"] = {"wall_s": len(walls), "evals_per_s": len(walls),
                             "call_p50_ms": int(lat.size),
                             "call_tail_ms": int(lat.size),
                             "setup_s": len(setup_times),
                             "peak_rss_mb": 1, "fail_ratio": 1,
                             "accuracy_digits": 1}
        report["call_tail_percentile"] = pct
        spans = None
    else:
        metrics = layer_metrics(traced_ops, traced_runs)
        metrics["trace.overhead"] = (
            float(np.median([r.wall * r.speed for r in traced_runs]))
            / wall_s, "1")
        report["traced_passes"] = len(traced_runs)
        spans = build_spans(traced_ops, traced_runs)

    line = {"correct": correct, "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    return line, report, spans


def layer_metrics(ops, runs):
    """Per-layer rows from the traced passes (medians over passes)."""
    layer = np.array([op.layer for op in ops])
    name = np.array([op.name for op in ops])
    size = np.array([op.size or 0 for op in ops])
    lat = np.array([r.latency * r.speed for r in runs])  # passes x ops
    first = tally(ops, runs[0])

    def per_pass_time(mask):
        return float(np.median(lat[:, mask].sum(axis=1)))

    def per_call_us(mask, per=1):
        count = int(np.count_nonzero(mask))
        if count == 0:
            return 0.0
        return per_pass_time(mask) / (count * per) * 1e6

    m = {}
    for lay in LAYERS:
        mask = layer == lay
        m[f"{lay}.time_s"] = (per_pass_time(mask), "s")
        m[f"{lay}.calls"] = (int(np.count_nonzero(mask)), "count")
        m[f"{lay}.errors"] = (int(np.count_nonzero(runs[0].raised[mask])),
                              "count")
        m[f"{lay}.warnings"] = (int(runs[0].warned[mask].sum()), "count")
        m[f"{lay}.misses"] = (first["layer_misses"][lay], "count")

    targets = (layer == "cauchy") & np.isin(
        name, ["cauchy_functional", "complement_functional"])
    m["cauchy.us_per_target"] = (per_call_us(targets), "us")
    m["cauchy.us_per_target_n256"] = (per_call_us(targets & (size == 256)),
                                      "us")
    m["singularities.probe_time_s"] = (
        per_pass_time(name == "pade_pole_probe"), "s")
    circ = (layer == "hilbert") & np.char.startswith(name, "hilbert_circular")
    m["hilbert.circular_time_s"] = (per_pass_time(circ), "s")
    for n in (256, 1024, 4096):
        m[f"hilbert.circular_us_per_sample_n{n}"] = (
            per_call_us(circ & (size == n), per=n), "us")
    m["hilbert.line_time_s"] = (per_pass_time((layer == "hilbert") & ~circ),
                                "s")
    pb = name == "poincare_bertrand_residual"
    m["plemelj.pb_time_s"] = (per_call_us(pb) * 1e-6, "s")
    for sub in ("verify", "probe", "transform", "airfoil"):
        m[f"cli.{sub}_s"] = (per_pass_time((layer == "cli") & (name == sub)),
                             "s")
    m["cli.bytes_out"] = (runs[0].cli_bytes, "bytes")
    counts = runs[0].sampling or {}
    for key in ("contour_calls", "contour_points", "density_calls",
                "density_points"):
        m[f"sampling.{key}"] = (int(counts.get(key, 0)), "count")
    m["sampling.points_per_result"] = (
        counts.get("contour_points", 0) / max(first["attempted"], 1),
        "count")
    return m


def build_spans(ops, runs):
    """Spans of the traced passes: one per call and one per workload
    operation (consecutive ops sharing a group), parents linked by id."""
    spans = []
    next_id = 0
    for p, r in enumerate(runs):
        group_id, group_name = None, None
        for i, op in enumerate(ops):
            if op.group != group_name:
                next_id += 1
                group_id, group_name = next_id, op.group
                spans.append({"id": group_id, "parent": None, "pass": p,
                              "name": "workload." + op.group,
                              "start": r.start[i], "end": None})
                group_span = spans[-1]
            next_id += 1
            end = r.start[i] + r.latency[i]
            spans.append({"id": next_id, "parent": group_id, "pass": p,
                          "op": i, "name": f"{op.layer}.{op.name}",
                          "start": r.start[i], "end": end,
                          "raised": bool(r.raised[i]),
                          "warnings": int(r.warned[i])})
            group_span["end"] = end
    return spans


def write_json_lines(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
