"""Smoke test of the benchmark at tiny sizes, in well under a minute.

    python3 benchmarks/test_smoke.py
    python3 -m pytest benchmarks/test_smoke.py

Runs every workload of ``BENCHMARK.json`` untraced and traced through
``run.py --size smoke`` and checks each result line against the declared
schema: exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, whole-number counts, and every declared metric with its unit and
a finite value.  Also checks that a directory holding only ``BENCHMARK.json``
and the benchmark's files makes the runner fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_result(line: str, trace: int) -> None:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared, set(reported) ^ set(declared)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)


def test_every_workload_untraced_and_traced():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            out = run_benchmark(ROOT, workload, trace)
            assert out.returncode == 0, out.stderr[-3000:]
            check_result(out.stdout.strip().splitlines()[-1], trace)


def test_without_source_fails_and_prints_no_result():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = run_benchmark(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout == ""


if __name__ == "__main__":
    test_every_workload_untraced_and_traced()
    test_without_source_fails_and_prints_no_result()
    print("smoke ok")
