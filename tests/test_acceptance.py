"""End-to-end acceptance gate.

Each test runs one full verification criterion at its contractual window
and prints a single pass/fail line (run pytest with -s to see them all).
Every check is exact: a criterion passes only when every residual is
identically zero, with the two documented convention notes (see the
harness CONVENTION_NOTES) as the fixed ground truth for signs and for
the graded-dimension product index.
"""

import hashlib
import json

from sl2crit import harness, rep, wedge, zalg
from sl2crit.harness import CheckSpec


def announce(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {status}{tail}", flush=True)


def test_criterion_1_clifford_relations():
    spec = CheckSpec(mode_bound=5, wedge_deg_cap=8)
    report = harness.verify_clifford(spec)
    announce(1, "oscillator anticommutators", report.passed,
             f"{report.checks_run} checks")
    assert report.passed, report.failures[:3]


def test_criterion_2_current_algebra():
    spec = CheckSpec(mode_bound=4, max_twice_deg=10, charge_bound=2)
    report = harness.verify_current_relations(spec)
    announce(2, "current-algebra brackets", report.passed,
             f"{report.checks_run} checks")
    assert report.passed, report.failures[:3]
    # The count and the report bytes are pinned too, so a change that
    # drops checks cannot pass.
    text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    assert report.checks_run == 89644
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d46442386f81d23c159c80011f604352abfed8ba8bfbe16051b6083c3071836d")


def test_criterion_3_highest_weight_vectors():
    report = harness.verify_hwv()
    ok = report.passed
    # The two lowering values are pinned as exact vectors, not just as
    # annihilation statements.
    ok = ok and rep.chevalley_act("f0", rep.v0()) \
        == rep.basis_state((), wedge.WedgeBasis((-3,), ()), 1, -2)
    ok = ok and rep.chevalley_act("f1", rep.v1()) \
        == rep.basis_state((), wedge.WedgeBasis((), (3,)), -2, 2)
    announce(3, "highest weight checklist", ok, f"{report.checks_run} checks")
    assert ok, report.failures[:3]


def test_criterion_4_exponential_identities():
    spec = CheckSpec(mode_bound=6, max_twice_deg=12)
    report = harness.verify_e_identities(spec)
    announce(4, "exponential operator identities", report.passed,
             f"{report.checks_run} checks")
    assert report.passed, report.failures[:3]


def test_criterion_5_graded_dimensions():
    table = harness.character(12)
    ok = harness.character_matches(table)
    v_counts = [r["enumerated"] for r in table["V"]]
    omega_counts = [r["enumerated"] for r in table["Omega"]]
    ok = ok and v_counts[:7] == [1, 2, 3, 6, 9, 14, 22]
    ok = ok and omega_counts[:7] == [1, 2, 2, 4, 5, 6, 10]
    announce(5, "graded dimension census", ok,
             f"through twice-degree {table['max_twice_deg']}")
    assert ok, json.dumps(table["V"] + table["Omega"])


def test_criterion_6_z_operator_algebra():
    spec = CheckSpec(mode_bound=3, wedge_deg_cap=5, charge_bound=2)
    report = harness.verify_z_suite(spec)
    announce(6, "moded operator algebra", report.passed,
             f"{report.checks_run} checks, termination certified")
    assert report.passed, report.failures[:3]


def test_criterion_7_degree_homogeneity_probe():
    spec = CheckSpec(mode_bound=2, max_twice_deg=6, charge_bound=2)
    report = harness.d_homogeneity_probe(spec)
    stats = report.extra.get("residual_stats", {})
    # The probe is informational: completing with per-charge statistics
    # for all three fields is the criterion.
    ok = report.passed and stats \
        and all(any(k.startswith(f"{op},") for k in stats)
                for op in ("X", "Y", "H")) \
        and all(v["nonzero_residuals"] == 0
                for k, v in stats.items() if k.startswith("H,"))
    announce(7, "degree-homogeneity probe", ok,
             f"{len(stats)} operator/charge sectors")
    assert ok, stats
