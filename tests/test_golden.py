"""Golden report bytes: SHA-256 digests of the JSON that the suites, the
state codec and `sl2crit act` write, so that a refactor of any of them
shows up as a changed digest.

Failure entries are produced by patching one operator so that a small
suite records residuals through its own recording path; one injected
suite per residual type (wedge, Fock, full state, vacuum-space state,
weight triple), and one for the fraction-free current suite, whose
residuals are integer vectors turned back into states.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from sl2crit import cli, fock, harness, rep, wedge, zalg
from sl2crit.harness import CheckSpec


def digest(data):
    text = json.dumps(data, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


SUITES = [
    ("clifford", CheckSpec(mode_bound=2, wedge_deg_cap=3), 1296,
     "9af293ce092821b0db897022fa0d8e703a965320d96f9dffc6001091e7b538a1"),
    ("current", CheckSpec(mode_bound=1, max_twice_deg=4, charge_bound=1), 589,
     "3463d939193c55cdc9ef261c63c673cd53181446d9c240cdb6392c437e3a0e3a"),
    ("exp", CheckSpec(mode_bound=2, max_twice_deg=4), 388,
     "2a566a22d1dce4495ceaf8cbd802baff01331e84830707701ad3f30ce6432c41"),
    ("hwv", CheckSpec(), 13,
     "eeaf07209b21ee2ecb57ed6f9b59e094eb12fdae2acfe8ca0b9364255e2acc80"),
    ("zalg", CheckSpec(mode_bound=1, wedge_deg_cap=2, charge_bound=1), 918,
     "9c72e90e9c9f8d68fe6b383961a02506b6d13e44696dc90846a85fb87427195f"),
    ("probe-d", CheckSpec(mode_bound=1, max_twice_deg=4, charge_bound=1), 171,
     "4bc6c9424993eac2091a17c5424bd21617fbfddbc6b22e0be24b6253a75a6668"),
]


def run_suite(name, spec):
    if name == "probe-d":
        return harness.d_homogeneity_probe(spec)
    return harness.ALL_SUITES[name](spec)


@pytest.mark.parametrize("name,spec,checks,sha", SUITES,
                         ids=[s[0] for s in SUITES])
def test_suite_report_bytes(name, spec, checks, sha):
    report = run_suite(name, spec)
    assert report.checks_run == checks
    assert digest(report.to_json()) == sha


def test_probe_d_report_bytes_at_criterion_7_window():
    report = harness.d_homogeneity_probe(
        CheckSpec(mode_bound=2, max_twice_deg=6, charge_bound=2))
    stats = report.extra["residual_stats"].values()
    assert report.checks_run == sum(v["checks"] for v in stats) == 855
    assert sum(v["nonzero_residuals"] for v in stats) == 398
    assert digest(report.to_json()) == (
        "c4b9c7f279065b08a59723cd30fd0b93e5298898d83c3ce1cd2bcc7e2907758d")


def test_state_codec_bytes():
    s = rep.basis_state((2, 1), wedge.WedgeBasis((-3,), (5,)), 1)
    data = rep.state_to_json(rep.x_act(-2, s))
    assert len(data["terms"]) == 42
    assert digest(data) == (
        "99018adedd3865fbe8aa945f93adb1d6f73f4cf8577a8a320c07d8df4578340e")


def test_act_output_bytes(capsys, tmp_path):
    # Every operator on v0, v1 and H(-1)^3, at modes -2..2 for the moded
    # ones: the concatenated stdout of 99 calls.
    out = []
    for i, s in enumerate([rep.v0(), rep.v1(), rep.basis_state((1, 1, 1))]):
        path = tmp_path / f"state{i}.json"
        path.write_text(json.dumps(rep.state_to_json(s)))
        for op, (moded, _) in sorted(cli.OPS.items()):
            for m in range(-2, 3) if moded else [None]:
                argv = ["act", "--op", op, "--state", str(path)]
                assert cli.main(argv + (["--m", str(m)] if moded else [])) == 0
                out.append(capsys.readouterr().out)
    assert len(out) == 99
    assert hashlib.sha256("".join(out).encode()).hexdigest() == (
        "22b995d687acc95a615898a9ab0c2b3150bd084876e58be77f269f55dd221db5")


def _adding(module, name, extra):
    """The operator `module.name` with `extra` added to every result."""
    orig = getattr(module, name)
    return lambda *args: orig(*args) + extra


def _inject_wedge(mp):
    extra = (wedge.WedgeElement.basis(wedge.WedgeBasis((-3,), ()), 2)
             + wedge.WedgeElement.basis(wedge.WedgeBasis((), (5,)),
                                        Fraction(-1, 3)))
    mp.setattr(wedge, "apply_mode", _adding(wedge, "apply_mode", extra))
    return harness.verify_clifford(CheckSpec(mode_bound=0, wedge_deg_cap=0))


def _inject_fock(mp):
    extra = fock.FockElement({(1,): Fraction(1, 2), (2, 1): -3})
    mp.setattr(fock, "h_act", _adding(fock, "h_act", extra))
    return harness.verify_e_identities(CheckSpec(mode_bound=0,
                                                 max_twice_deg=0))


def _inject_state_and_weight(mp):
    extra = (rep.basis_state((1,), wedge.VACUUM, 0, Fraction(1, 2))
             + rep.basis_state((), wedge.WedgeBasis((-3,), ()), 1, -2)
             + rep.basis_state((2,), wedge.WedgeBasis((), (3,)), -1, 3))
    mp.setattr(rep, "c_act", _adding(rep, "c_act", extra))
    mp.setattr(rep, "weight_of", lambda s: rep.WeightTriple(
        Fraction(1), Fraction(-2), Fraction(1, 3)))
    return harness.verify_hwv()


def _inject_omega(mp):
    residual = (zalg.omega_basis(wedge.WedgeBasis((), (3,)), -1, 5)
                + zalg.omega_basis(wedge.VACUUM, 1, Fraction(-7, 2))
                + zalg.omega_basis(wedge.WedgeBasis((-5,), ()), 0, 1))
    mp.setattr(zalg, "gen_commutator", lambda *args: residual)
    return harness.verify_z_suite(CheckSpec(mode_bound=0, wedge_deg_cap=0,
                                            charge_bound=0))


def _inject_current(mp):
    orig = rep._h_terms

    def h_terms(n, mono, w, p):
        out = orig(n, mono, w, p)
        if n == 1 and p == 1:
            out += (((mono + (1,), w, p), Fraction(1, 3)),)
        return out

    mp.setattr(rep, "_h_terms", h_terms)
    return harness.verify_current_relations(
        CheckSpec(mode_bound=1, max_twice_deg=4, charge_bound=1))


INJECTED = [
    ("wedge", _inject_wedge, 12, 12,
     "29ab4807cf030340584e6dc9ef7a77af65ca79b5b804d7dc3efe3d4ba1829839"),
    ("fock", _inject_fock, 13, 2,
     "23f8206e7273bf2678c07e5d3df07d9708743bcccbbdca7aad33a11093ddb71f"),
    ("state-and-weight", _inject_state_and_weight, 13, 3,
     "27ee61fded6b1629de8c91ead7af7f494709e5b65f7f7cbcee4453a40e7e0d32"),
    ("omega", _inject_omega, 11, 3,
     "f3f15c07395aa0f4b32356e81ef64d94dd6fd07cce2c107f9bf7e1124f8d52ba"),
    ("current", _inject_current, 589, 48,
     "bf5d6ef26b8e4664e1631845b1c166222f435e7c030a34442a2857fc5b722ed6"),
]


@pytest.mark.parametrize("name,inject,checks,failures,sha", INJECTED,
                         ids=[i[0] for i in INJECTED])
def test_failure_entry_bytes(monkeypatch, name, inject, checks, failures,
                             sha):
    report = inject(monkeypatch)
    assert report.checks_run == checks
    assert len(report.failures) == failures
    assert digest(report.to_json()) == sha
