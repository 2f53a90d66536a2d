"""Smoke test of the benchmark itself.

Runs every workload at its smallest size (``--smoke``), untraced and
traced, through the real entry point, and checks that the last stdout line
is a well-formed result naming every metric BENCHMARK.json lists, each with
its unit. Then checks that the benchmark refuses to run, without printing a
result, from a directory that holds only BENCHMARK.json and the benchmark.

    python3 perfbench/smoke.py

Exits 0 when every check holds; prints each failure otherwise.
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
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc: subprocess.CompletedProcess, wanted: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"checks: {result['attempted']} attempted, {result['failed']} failed")
    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(names))}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']!r}, want {m['unit']!r}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: value {got['value']!r}")
    return problems


def main() -> int:
    failures = []
    for workload in SPEC["workloads"]:
        for trace, wanted in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            proc = run(
                ROOT, "--workload", workload["name"], "--seed", "1",
                "--seconds", "1", "--trace", trace, "--smoke",
            )
            for problem in check_result(proc, wanted):
                failures.append(f"{workload['name']} trace {trace}: {problem}")

    bare = ROOT / ".perfbench-out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        name = SPEC["workloads"][0]["name"]
        proc = run(bare, "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("bare directory: the benchmark ran or printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
