"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload contour-many-targets --seeds 1-10 \\
        [--out bench/BENCH_baseline.json]

Runs ``bench/run.py`` once per seed, each in a fresh process, and prints for
every end-to-end metric the median, the quartiles and the interquartile
spread as a share of the median next to the metric's bound from
BENCHMARK.json.  With ``--out`` the rows, and the per-layer rows of one traced
run on the first seed, are merged into that JSON file under the workload's
name.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def traced(spec, workload, seed):
    """Per-layer rows of one traced run, with its environment and inputs."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(x for x in lines if x.startswith("report "))[7:])
    line = json.loads(lines[-1])
    return {"seed": seed, "correct": line["correct"],
            "metrics": line["metrics"],
            "environment": report["environment"],
            "input_properties": report["input_properties"],
            "op_counts": report["op_counts"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10",
                   help="inclusive range, e.g. 1-10")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = {name: [] for name in bounds}
    runs = []
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed",
                                 str(seed), "--seconds",
                                 str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "correct": line["correct"],
                     "failed": line["failed"]})
        for name in rows:
            rows[name].append(line["metrics"][name]["value"])
        print(f"seed {seed}: correct={line['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
            flush=True)
    table = {}
    for name, vals in rows.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds[name]["bound"]
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bound, "unit": bounds[name]["unit"],
                       "values": vals}
        print(f"{name:16s} median {med:<12.6g} {bounds[name]['unit']:7s} "
              f"spread {spread:7.4f}  bound {bound:.3f}  "
              f"spread/bound {spread / bound:5.2f}")
    if args.out:
        path = ROOT / args.out
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.setdefault("end_to_end", {})[args.workload] = {
            "seeds": seeds_of(args.seeds), "runs": runs, "metrics": table}
        doc.setdefault("per_layer", {})[args.workload] = traced(
            spec, args.workload, seeds_of(args.seeds)[0])
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
