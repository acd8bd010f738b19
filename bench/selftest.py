"""Fast self-test of the benchmark's own code, at tiny windows.

    python3 bench/selftest.py

Checks, in well under a minute:
- every workload prints every metric BENCHMARK.json names, with its unit,
  traced and untraced, and passes at a tiny window;
- the correctness gate trips when the expected check count is wrong;
- act-deep inputs depend on the seed and only on the seed;
- `run.py` exits non-zero without a result in a directory that holds
  only BENCHMARK.json and the benchmark.
Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from worker import deep_checks

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "current-window": {
        "kind": "suite", "suite": "current",
        "window": {"mode_bound": 1, "max_twice_deg": 2, "charge_bound": 1},
        "expected_checks": 186,
    },
    "zalg-window": {
        "kind": "suite", "suite": "zalg",
        "window": {"mode_bound": 1, "wedge_deg_cap": 1, "charge_bound": 1},
        "expected_checks": 459,
    },
    "act-deep": {"kind": "act", "twice_degrees": [4, 5], "charge_bound": 2},
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_metrics(name, result, declared):
    metrics = result["metrics"]
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{name}: correct, attempted {result['attempted']}")
    check(sorted(metrics) == sorted(m["name"] for m in declared),
          f"{name}: prints exactly the {len(declared)} declared metrics")
    for m in declared:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"]
              and isinstance(got.get("value"), (int, float))
              and math.isfinite(got["value"]),
              f"{name}: {m['name']} = {got.get('value')} {got.get('unit')}")


def main():
    check(sorted(run.WORKLOADS) == sorted(
        w["name"] for w in BENCHMARK["workloads"]),
        "BENCHMARK.json names the workloads of run.py")
    for name, spec in TINY.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run.run_workload(name, spec, 1, 0, trace)
            check_metrics(f"{name} --trace {trace}", result, BENCHMARK[key])

    wrong = {**TINY["current-window"], "expected_checks": 187}
    result, _ = run.run_workload("current-window", wrong, 1, 0, 0)
    check(not result["correct"]
          and result["failed"] == result["attempted"] > 0,
          "wrong expected check count fails the run")

    job = {**TINY["act-deep"], "rep": 0}
    check(deep_checks({**job, "seed": 5}) == deep_checks({**job, "seed": 5})
          and deep_checks({**job, "seed": 5}) != deep_checks(
              {**job, "seed": 6}),
          "act-deep inputs are a function of the seed")

    bare = Path(tempfile.mkdtemp(prefix=".bench-selftest-", dir=run.ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "act-deep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"no sources: exit {proc.returncode}, no result printed")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
