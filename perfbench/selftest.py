"""Self-test of the benchmark: schema, checks and failure reporting.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, timed and traced, and checks the output
schema against BENCHMARK.json. Then it plants a wrong expected value in each
workload and checks that the run reports the failure and exits non-zero. It
also runs `--workload all`, and checks that the command refuses to run in a
directory without the program.
Exits 0 if all of that holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--seed", "7", "--seconds", "0.3", "--scale", "0.02"]


def run(args, cwd=ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(line: str, expected: dict) -> list[str]:
    """Problems with one result line, given the expected metric -> unit map."""
    try:
        result = json.loads(line)
    except (json.JSONDecodeError, IndexError):
        return [f"last line is not JSON: {line!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if type(result["attempted"]) is not int or result["attempted"] < 1:
        problems.append(f"attempted = {result['attempted']!r}")
    if type(result["failed"]) is not int:
        problems.append(f"failed = {result['failed']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(m)}")
        elif m["unit"] != expected.get(name):
            problems.append(f"{name}: unit {m['unit']!r}, expected {expected.get(name)!r}")
        elif type(m["value"]) not in (int, float) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for wl in names:
        for trace in (0, 1):
            code, lines = run(["--workload", wl, "--trace", str(trace), *TINY])
            where = f"{wl} --trace {trace}"
            if code != 0:
                problems.append(f"{where}: exit code {code}")
            problems += [f"{where}: {p}" for p in check_result(lines[-1] if lines else "", units[trace])]
            if lines and json.loads(lines[-1]).get("correct") is not True:
                problems.append(f"{where}: not correct")

        code, lines = run(["--workload", wl, "--plant-fault", *TINY])
        result = json.loads(lines[-1]) if lines else {}
        if code == 0 or result.get("correct") is not False or not result.get("failed"):
            problems.append(f"{wl}: planted fault not reported (exit {code}, {result.get('failed')})")

    code, lines = run(["--workload", "all", *TINY])
    summary = json.loads(lines[-1]) if lines else {}
    if code != 0 or sorted(summary) != sorted(names) \
            or not all(r and r["correct"] for r in summary.values()):
        problems.append(f"--workload all: exit {code}, workloads {sorted(summary)}")

    # Without the program next to it, the command must fail and print no result.
    bare = ROOT / ".perfbench-out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(["--workload", "scan", *TINY], cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"bare directory: exit {code}, output {lines[-1:]}")

    for p in problems:
        print(f"SELFTEST FAIL: {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
