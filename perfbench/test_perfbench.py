"""Self-tests of the benchmark: seeded counts repeat, and BENCHMARK.json matches the code.

Each workload runs twice with one job (`--jobs 1 --trace 1`, so the job
also runs traced); iteration count, settings simulated, gradient calls and
the Frobenius error must agree to the last bit.  On pauli-shots-n8-p2 this
relies on the parallel engine's fixed-order reduction.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (constants only; importing it starts nothing)

COUNTS = ("optimizer.iterations_p50", "measurements.settings", "sensing.gradient_calls")


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1", "--jobs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert list(result["metrics"]) == [m["name"] for m in benchmark_json()["per_layer"]]
    values = {name: result["metrics"][name]["value"] for name in COUNTS}
    frob = [line.split()[1] for line in lines if line.startswith("frob_error_p50 ")]
    values["frob_error_p50"] = float(frob[0])
    return values


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seeded_counts_repeat(workload):
    first = run_once(workload, seed=3)
    second = run_once(workload, seed=3)
    assert first == second
    if workload != "fulltomo-n6":
        assert first["optimizer.iterations_p50"] > 0


def test_benchmark_json_names_match():
    bench = benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
