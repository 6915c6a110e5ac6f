"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload once untraced and once traced through bench/run.py,
and checks that each run is correct and emits exactly the metrics
BENCHMARK.json names, with their units.  Also checks that both endpoints
of every amplitude range pass validate_problem, that a seed always draws
the same amplitude, and that the tracer reports a missing wrap target
instead of failing.  Takes about two minutes on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from hessquot.solver import validate_problem  # noqa: E402
from spans import Tracer  # noqa: E402


def run_bench(name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def check_ranges():
    for name, cls in workloads.WORKLOADS.items():
        for amp in workloads.AMPLITUDE_RANGES[name]:
            for prob in cls(amp).problems():
                validate_problem(prob)
        assert workloads.amplitude(name, 3) == workloads.amplitude(name, 3)
        lo, hi = workloads.AMPLITUDE_RANGES[name]
        assert all(lo <= workloads.amplitude(name, s) <= hi for s in range(50))


def check_missing_target():
    tracer = Tracer()
    tracer.install([("hessquot.grid", "no_such_function", "grid.none", None)])
    tracer.uninstall()
    assert tracer.missing == ["hessquot.grid.no_such_function"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check_ranges()
    check_missing_target()
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, stderr = run_bench(w["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, stderr
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (w["name"], trace, got)
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok {w['name']} trace={trace}")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "nope", "--seed", "1"],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()
    print("smoke ok")


if __name__ == "__main__":
    main()
