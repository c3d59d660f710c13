"""Smoke test of the benchmark runner at tiny sizes.

Run with: python -m pytest benchmarks/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_runner(workload):
    plain = run(workload, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    first, second = run(workload, 1), run(workload, 1)
    for traced in (first, second):
        assert traced["correct"] and traced["failed"] == 0
        assert set(traced["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] != "s"]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}


def test_refuses_without_sources(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for f in (ROOT / "benchmarks").glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
