"""Benchmark of cauchykit: three seeded workloads, each result checked.

Run from the root of a source checkout:

    python3 bench/run.py --workload contour-many-targets --seed 1 \\
        --seconds 30 --trace 0

It imports cauchykit from ``src/`` of that checkout, runs the workload in
this single process with BLAS/OpenMP pinned to one thread, prints every
metric by name with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics and the tracing overhead.  Times are in reference seconds: raw
times scaled by the speed of a fixed pure-Python calibration loop measured
during the same pass (see ``harness.CAL_REFERENCE_S``), because the speed
of a shared virtual machine can drift by 20-30% over tens of seconds.  The
report (environment, input properties, sample counts, raw times) and, for
traced runs, the spans are written under ``.bench_out/`` in the checkout.
The exit code is 0 whenever the result line is printed ("correct" is false
when a check failed) and 2 when the checkout has no cauchykit sources.
"""

import os
import sys

# pinned before numpy loads; one closed-loop caller, one BLAS thread
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the benchmark's tests")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cauchykit" / "__init__.py").is_file():
        print(f"error: no cauchykit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cauchykit
    here = Path(cauchykit.__file__).resolve().parent
    if here != (SRC / "cauchykit").resolve():
        print(f"error: cauchykit imported from {cauchykit.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    from harness import run_workload, write_json_lines
    from workloads import WORKLOADS
    out_dir = ROOT / ".bench_out"
    line, report, spans = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        size=args.size, workdir=str(out_dir / "inputs"),
        threads=BLAS_THREADS)

    stem = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    with open(out_dir / f"report-{stem}.json", "w") as fh:
        json.dump({"result": line, "report": report}, fh, indent=1,
                  default=str)
    if spans is not None:
        write_json_lines(out_dir / f"spans-{stem}.jsonl", spans)

    for problem in report["problems"]:
        print(f"check failed: {problem}")
    for name, m in line["metrics"].items():
        print(f"{name:36s} {m['value']:<24.12g} {m['unit']}")
    print("report " + json.dumps(report, default=str, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
