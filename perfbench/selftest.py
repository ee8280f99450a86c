"""Self-test of the benchmark harness.

Runs every workload (the two ``BENCHMARK.json`` gates and the two run by
hand) at a tiny size in both modes and checks the result line against
``BENCHMARK.json``: the exact top-level keys, a clean run, and every declared
metric present with its declared unit.  Then checks that the
benchmark refuses to run, without printing a result, when the checkout has
no ``src/repro``.

    python3 perfbench/selftest.py

Exits 0 when every check passes; prints each failure otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", "7",
        "--seconds", "1",
        "--trace", str(trace),
        "--tiny",
    ]
    return subprocess.run(command, cwd=str(root), capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, declared: list) -> list:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: not clean: {result['attempted']} attempted, "
                        f"{result['failed']} failed\n{proc.stderr}")
    metrics = result["metrics"]
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{where}: metric {metric['name']} missing")
        elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {metric['name']} reads {got}")
    extra = set(metrics) - {metric["name"] for metric in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    return problems


def check_refusal() -> list:
    """Without ``src/repro`` beside it the benchmark must exit non-zero, silently."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "catalog_fluid", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import NAMES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = [
        f"BENCHMARK.json workload {w['name']} is not defined"
        for w in spec["workloads"]
        if w["name"] not in NAMES
    ]
    for workload in NAMES:
        problems += check_result(workload, 0, spec["end_to_end"])
        problems += check_result(workload, 1, spec["per_layer"])
    problems += check_refusal()
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {'ok' if not problems else f'{len(problems)} failures'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
