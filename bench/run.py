"""Benchmark runner for sl2crit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner is a closed loop with one
caller: it starts one fresh interpreter per rep (`worker.py`), waits for
it, and starts the next while the time budget lasts.  A fresh interpreter
per rep means the library's module-level caches start cold, as for every
`sl2crit` invocation, and it makes set-up (interpreter start, import,
input generation) measurable once per rep.  Workers run with `-S`: the
library has no dependencies, and site-packages hooks of the host Python
would otherwise dominate set-up time with work that is not sl2crit's.

Workloads (see BENCHMARK.json for why each was chosen):
  current-window  harness.verify_current_relations on a fixed window
  zalg-window     harness.verify_z_suite on a fixed window
  act-deep        seeded bracket checks [X(m), Y(n)] on deep basis states,
                  every field application through cli.main(["act", ...])

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 reps run in pairs on the same inputs, untraced
then traced, and it holds the per-layer metrics from the traced reps and
the tracing overhead.  The line before it is a record with the
environment stamp, sample counts, cache sizes and per-rep values.  The
exit code is 0 when every output was exactly correct, 1 when a check
failed, 2 when the checkout holds no library to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import deep_checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

# Windows are smaller than the contractual ones so that one rep takes a
# few seconds and a run holds several reps; `expected_checks` is the
# check count of the window, and a rep that runs another count fails.
WORKLOADS = {
    "current-window": {
        "kind": "suite", "suite": "current",
        "window": {"mode_bound": 3, "max_twice_deg": 5, "charge_bound": 2},
        "expected_checks": 6405,
    },
    "zalg-window": {
        "kind": "suite", "suite": "zalg",
        "window": {"mode_bound": 3, "wedge_deg_cap": 3, "charge_bound": 2},
        "expected_checks": 12180,
    },
    "act-deep": {
        "kind": "act", "twice_degrees": [12, 13, 14], "charge_bound": 2,
    },
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "checks_per_s": "1/s",
    "act_p50_ms": "ms",
    "act_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "linear.map_basis.calls": "count",
    "linear.map_basis.self_s": "s",
    "linear.terms_out": "count",
    "linear.arith.calls": "count",
    "fock.e_coeff_monomial.calls": "count",
    "fock.e_coeff_monomial.hit_ratio": "ratio",
    "fock.e_coeff_monomial.self_s": "s",
    "fock.h_act.calls": "count",
    "wedge.a_act.calls": "count",
    "wedge.astar_act.calls": "count",
    "wedge.nonzero_ratio": "ratio",
    "wedge.self_s": "s",
    "rep.x_basis.calls": "count",
    "rep.x_basis.hit_ratio": "ratio",
    "rep.y_basis.hit_ratio": "ratio",
    "rep.h_basis.hit_ratio": "ratio",
    "rep.fields.self_s": "s",
    "rep.cache_entries": "count",
    "zalg.gen_commutator.calls": "count",
    "zalg.gen_commutator.self_s": "s",
    "zalg.pair_terms": "count",
    "zalg.pair_terms_nonzero_ratio": "ratio",
    "zalg.zop_via_definition.self_s": "s",
    "harness.checks": "count",
    "harness.basis_states": "count",
    "harness.self_s": "s",
    "cli.act.calls": "count",
    "cli.self_s": "s",
    "cli.json_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# Tail latency: the highest of these percentiles with at least ten
# samples beyond it; the maximum when no percentile has ten.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 50)
REP_TIMEOUT_S = 150
SETUP_PROBES = 2


def tail(latencies):
    """(percentile, value) of the tail latency, as described above."""
    values = sorted(latencies)
    for q in TAIL_PERCENTILES:
        rank = max(1, math.ceil(q / 100 * len(values)))
        if len(values) - rank >= 10:
            return q, values[rank - 1]
    return 100.0, values[-1]


def rep_checks(spec):
    """Checks one rep of this workload attempts."""
    if spec["kind"] == "act":
        return len(deep_checks({**spec, "seed": 0, "rep": 0}))
    return spec["expected_checks"]


def spawn_rep(job, workdir):
    """Run one rep in a fresh interpreter; return (result, error)."""
    repdir = Path(tempfile.mkdtemp(dir=workdir))
    job = {**job, "workdir": str(repdir)}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-S", str(WORKER), json.dumps(job)], cwd=ROOT,
            capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"rep {job['rep']} timed out after {REP_TIMEOUT_S} s"
    finally:
        shutil.rmtree(repdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        out = None
    if out is None:
        return None, (f"rep {job['rep']} exited {proc.returncode}: "
                      + proc.stderr.strip()[-2000:])
    out["setup_s"] = out.pop("first_call_monotonic") - spawned
    return out, None


def run_workload(name, spec, seed, seconds, trace):
    """Closed loop of reps for `seconds`; returns (result, record).

    Each cycle runs SETUP_PROBES interpreters that stop at the first timed
    call, then one rep (untraced), or with `trace` one untraced and one
    traced rep on the same inputs.  A new cycle starts only when a cycle
    of median length still fits in the time budget.
    """
    reps = {0: [], 1: []}
    setups = []
    errors = []
    attempted = failed = 0
    cycle_times = []
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        deadline = time.monotonic() + seconds
        index = 0
        while True:
            started = time.monotonic()
            # None marks a set-up probe.
            for traced in (0, 1) if trace else (None,) * SETUP_PROBES + (0,):
                out, err = spawn_rep(
                    {**spec, "seed": seed, "rep": index,
                     "trace": traced or 0, "setup_only": traced is None},
                    workdir)
                if out is None:
                    errors.append(err)
                    attempted += rep_checks(spec)
                    failed += rep_checks(spec)
                    continue
                if traced != 1:
                    setups.append(out["setup_s"])
                if traced is not None:
                    attempted += out["attempted"]
                    failed += out["failed"]
                    reps[traced].append(out)
            cycle_times.append(time.monotonic() - started)
            index += 1
            if time.monotonic() + statistics.median(cycle_times) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = reps[0]
    record = {
        "workload": name, "spec": spec, "seed": seed, "seconds": seconds,
        "trace": trace, "env": environment(),
        "reps": len(plain), "traced_reps": len(reps[1]),
        "setup_samples": len(setups),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "errors": errors,
    }
    metrics = {}
    if plain:
        if trace:
            wall = statistics.median(r["wall_s"] for r in plain)
            metrics = layer_summary(reps[1], wall, record)
        else:
            metrics = end_to_end(plain, setups, record)
        record["caches"] = plain[-1]["caches"]
        record["per_rep"] = {
            key: [r[key] for r in plain]
            for key in ("wall_s", "setup_s", "peak_rss_mb", "attempted")}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record


def end_to_end(reps, setups, record):
    latencies = [x for r in reps for x in r["latencies"]]
    q, tail_value = tail(latencies)
    checks = sum(r["attempted"] - r["failed"] for r in reps)
    record.update(samples=len(latencies), tail_percentile=q,
                  checks=checks)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "checks_per_s": checks / sum(r["wall_s"] for r in reps),
        "act_p50_ms": 1000 * statistics.median(latencies),
        "act_tail_ms": 1000 * tail_value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setups),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def layer_summary(traced, untraced_wall, record):
    if not traced:
        return {}
    values = {key: statistics.median(r["layers"][key] for r in traced)
              for key in traced[0]["layers"]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    record.update(traced_wall_s=traced_wall, untraced_wall_s=untraced_wall,
                  span_tree=traced[0]["span_tree"],
                  untraced_targets=traced[0]["untraced_targets"])
    return {k: {"value": values[k], "unit": unit}
            for k, unit in PER_LAYER_UNITS.items()}


def environment():
    """Python version, core count, commit and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout when it is itself a git work tree, else None."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sl2crit" / "__init__.py").is_file():
        print(f"no sl2crit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, record = run_workload(args.workload, WORKLOADS[args.workload],
                                  args.seed, args.seconds, args.trace)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
