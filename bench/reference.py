"""Informational reference record: wall time and peak RSS of each
acceptance criterion's suite at its contractual window.

    python3 bench/reference.py            # writes bench/reference.json

Each criterion runs alone in a fresh interpreter, with the window that
tests/test_acceptance.py uses.  No bound is attached to these numbers;
they tie the benchmark's smaller windows to the Tier-1 budget.  `checks`
is the suite's `checks_run`, or for the census the number of
twice-degrees compared.
Criterion 2 alone takes minutes and several hundred MB.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time

import run

CRITERIA = {
    "1_clifford": ("verify_clifford", {"mode_bound": 5, "wedge_deg_cap": 8}),
    "2_current": ("verify_current_relations",
                  {"mode_bound": 4, "max_twice_deg": 10, "charge_bound": 2}),
    "3_hwv": ("verify_hwv", None),
    "4_exp": ("verify_e_identities", {"mode_bound": 6, "max_twice_deg": 12}),
    "5_character": ("character", 12),
    "6_zalg": ("verify_z_suite",
               {"mode_bound": 3, "wedge_deg_cap": 5, "charge_bound": 2}),
    "7_probe_d": ("d_homogeneity_probe",
                  {"mode_bound": 2, "max_twice_deg": 6, "charge_bound": 2}),
}


def child(name):
    """Run one criterion in this interpreter and print its record."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from sl2crit import harness
    fn, window = CRITERIA[name]
    t0 = time.perf_counter()
    if window is None:
        out = getattr(harness, fn)()
    elif isinstance(window, dict):
        out = getattr(harness, fn)(harness.CheckSpec(**window))
    else:
        out = getattr(harness, fn)(window)
    wall = time.perf_counter() - t0
    if fn == "character":
        passed, checks = harness.character_matches(out), len(out["V"])
    else:
        passed, checks = out.passed, out.checks_run
    print(json.dumps({
        "wall_s": wall, "passed": passed, "checks": checks,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024}))


def main():
    records = {}
    for name, (fn, window) in CRITERIA.items():
        proc = subprocess.run(
            [sys.executable, "-S", __file__, "--child", name],
            capture_output=True, text=True, check=True)
        records[name] = {"function": f"harness.{fn}", "window": window,
                         **json.loads(proc.stdout.splitlines()[-1])}
        print(name, records[name], flush=True)
    out = {"note": "informational; no bound is attached",
           "env": run.environment(), "criteria": records}
    (run.BENCH / "reference.json").write_text(
        json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        main()
