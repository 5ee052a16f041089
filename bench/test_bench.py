"""Tests of the benchmark itself (tiny inputs).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SAMPLING = ("sampling.contour_calls", "sampling.contour_points",
            "sampling.density_calls", "sampling.density_points")


def run_cli(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", str(trace), "--size",
         "tiny"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_inline(workload, seed, trace):
    line, _, _ = harness.run_workload(workloads.WORKLOADS[workload], seed, 0,
                                      trace, size="tiny",
                                      workdir=str(ROOT / ".bench_out" /
                                                  "test-inputs"))
    return line


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    line = run_cli(workload, 1, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] != 0


def test_wrong_reference_raises_fail_ratio(monkeypatch):
    base = run_inline("contour-many-targets", 1, False)
    exact = workloads.pole_derivative
    monkeypatch.setattr(workloads, "pole_derivative",
                        lambda *args: exact(*args) + 1e-3)
    broken = run_inline("contour-many-targets", 1, False)
    assert broken["metrics"]["fail_ratio"]["value"] > \
        base["metrics"]["fail_ratio"]["value"]
    assert broken["correct"] is False and broken["failed"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_seed_fixes_inputs(workload):
    w = workloads.WORKLOADS[workload]
    same = harness.digest(w.generate(7, "tiny"))
    assert same == harness.digest(w.generate(7, "tiny"))
    assert same != harness.digest(w.generate(8, "tiny"))


@pytest.mark.parametrize("workload", NAMES)
def test_sampling_counts_repeat(workload):
    first = run_inline(workload, 3, True)["metrics"]
    again = run_inline(workload, 3, True)["metrics"]
    for key in SAMPLING:
        assert first[key]["value"] == again[key]["value"] > 0, key
