import argparse
import ast
import inspect
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sl2crit import cli, harness, rep, wedge, zalg
from sl2crit.cli import (ACT_SIZE_LIMIT, INPUT_SIZE_LIMIT, SUITE_DEFAULTS,
                         WINDOW_LIMITS, build_spec, main, read_config,
                         read_input)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_hwv_passes(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "hwv", "--out", str(tmp_path))
        assert code == 0
        line = json.loads(out.strip())
        assert line == {"suite": "hwv", "passed": True,
                        "checks_run": line["checks_run"], "failures": 0}
        report = json.loads((tmp_path / "report_hwv.json").read_text())
        assert report["passed"] and not report["failures"]

    def test_small_clifford(self, capsys):
        code, out, _ = run(capsys, "verify", "clifford",
                           "--mode-bound", "2", "--max-wedge-deg", "3")
        assert code == 0
        assert json.loads(out.strip())["passed"]

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "bogus")
        assert code == 2
        assert "unknown suite" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_reports_byte_identical(self, capsys, tmp_path):
        run(capsys, "verify", "hwv", "--out", str(tmp_path / "a"))
        run(capsys, "verify", "hwv", "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "report_hwv.json").read_bytes() \
            == (tmp_path / "b" / "report_hwv.json").read_bytes()


class TestCharacter:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "character", "--max-twice-deg", "6")
        assert code == 0
        table = json.loads(out)
        assert table["matches"] is True
        assert table["V"][0]["enumerated"] == 1

    def test_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "character", "--max-twice-deg", "4",
                           "--format", "csv", "--out", str(tmp_path))
        assert code == 0
        assert out.splitlines()[0] == "twice_degree,enumerated,formula"
        assert (tmp_path / "character_V.csv").exists()
        assert (tmp_path / "character_Omega.csv").exists()

    def test_charge_cutoff_is_isqrt_of_degree(self, capsys):
        # A degree cap that is a perfect square puts the last charge
        # exactly on the boundary of the window.
        code, out, _ = run(capsys, "character", "--max-twice-deg", "9")
        assert code == 0 and json.loads(out)["charge_bound"] == 3


class TestAct:
    def _write_state(self, tmp_path, state):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(rep.state_to_json(state)))
        return str(path)

    def test_round_trip_h(self, capsys, tmp_path):
        path = self._write_state(tmp_path, rep.v0())
        code, out, _ = run(capsys, "act", "--op", "H", "--m", "-2",
                           "--state", path)
        assert code == 0
        got = rep.state_from_json(json.loads(out))
        assert got == rep.basis_state((2,), wedge.VACUUM, 0)

    def test_chevalley(self, capsys, tmp_path):
        path = self._write_state(tmp_path, rep.v1())
        code, out, _ = run(capsys, "act", "--op", "f1", "--state", path)
        assert code == 0
        got = rep.state_from_json(json.loads(out))
        assert got == rep.basis_state((), wedge.WedgeBasis((), (3,)), -2, 2)

    def test_zplus_on_vacuum(self, capsys, tmp_path):
        path = self._write_state(tmp_path, rep.v0())
        code, out, _ = run(capsys, "act", "--op", "Z+", "--m", "-1",
                           "--state", path)
        assert code == 0
        got = rep.state_from_json(json.loads(out))
        assert got == rep.basis_state((), wedge.WedgeBasis((-3,), ()), 1, -2)

    def test_zplus_at_size_limit_on_fock_state(self, capsys, tmp_path):
        # Size 20: the factorized form leaves the Fock factor H(-1)^10 as
        # it is; the definition took over 10 s on this input.
        path = self._write_state(tmp_path, rep.basis_state((1,) * 10))
        start = time.monotonic()
        code, out, _ = run(capsys, "act", "--op", "Z+", "--m", "-10",
                           "--state", path)
        assert code == 0 and time.monotonic() - start < 5
        got = rep.state_from_json(json.loads(out))
        want = rep.act("Z+", -10, rep.v0())
        assert got == rep.State({((1,) * 10,) + k[1:]: c for k, c in want})

    def test_moded_without_mode(self, capsys, tmp_path):
        path = self._write_state(tmp_path, rep.v0())
        code, _, err = run(capsys, "act", "--op", "X", "--state", path)
        assert code == 2
        assert "requires --m" in err

    def test_unmoded_with_mode(self, capsys, tmp_path):
        path = self._write_state(tmp_path, rep.v0())
        code, out, err = run(capsys, "act", "--op", "d", "--m", "5",
                             "--state", path)
        assert code == 2 and not out
        assert "takes no --m" in err

    def test_bad_state_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "act", "--op", "d", "--state", str(bad))
        assert code == 2
        assert "cannot read state" in err

    @pytest.mark.parametrize("change", [
        {"fock": "ab"}, {"fock": [1.5]}, {"coeff": "1/0"}, {"charge": 1.5},
        {"charge": True}, {"wedge": {"neg": [3], "holes": []}},
        {"wedge": {"neg": [], "holes": ["3/4"]}},
        {"wedge": {"neg": [], "holes": ["4"]}},
        {"wedge": {"neg": [], "holes": ["3/1"]}},
        {"wedge": {"neg": [], "holes": ["1.5"]}},
        {"wedge": {"neg": [], "holes": ["3/2/2"]}},
        {"coeff": "1e3"}, {"coeff": "0.5"},
        {"wedge": {"neg": ["-3/2"], "hole": ["3/2"]}},
    ], ids=["fock-str", "fock-float", "coeff-zero-den", "charge-float",
            "charge-bool", "wedge-int-label", "wedge-label-quarter",
            "wedge-label-even", "wedge-label-over-one", "wedge-label-decimal",
            "wedge-label-two-slashes", "coeff-exponent", "coeff-decimal",
            "wedge-key-typo"])
    def test_malformed_term_is_usage_error(self, capsys, tmp_path, change):
        term = {**rep.state_to_json(rep.v0())["terms"][0], **change}
        self._check_malformed(capsys, tmp_path, {"terms": [term]})

    @pytest.mark.parametrize("data", [{"terms": 5}, [{"terms": []}]],
                             ids=["terms-int", "top-level-list"])
    def test_malformed_shape_is_usage_error(self, capsys, tmp_path, data):
        self._check_malformed(capsys, tmp_path, data)

    @pytest.mark.parametrize("field", ["coeff", "fock", "wedge", "charge"])
    def test_missing_field_is_named(self, capsys, tmp_path, field):
        terms = rep.state_to_json(rep.v0() + rep.v1())["terms"]
        del terms[1][field]
        err = self._check_malformed(capsys, tmp_path, {"terms": terms})
        assert f"term 1 has no '{field}' field" in err

    def _check_malformed(self, capsys, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "act", "--op", "X", "--m", "0",
                             "--state", str(bad))
        assert code == 2 and not out
        assert "cannot read state" in err
        return err

    def test_huge_charge_is_usage_error(self, capsys, tmp_path):
        path = self._write_state(tmp_path, rep.basis_state(charge=100000))
        start = time.monotonic()
        code, out, err = run(capsys, "act", "--op", "X", "--m", "0",
                             "--state", path)
        assert time.monotonic() - start < 5
        assert code == 2 and not out
        assert "100000" in err and str(ACT_SIZE_LIMIT) in err

    def test_exponent_coefficient_is_usage_error(self, capsys, tmp_path):
        # Fraction("1e100000000") would build 10**100000000.
        term = {**rep.state_to_json(rep.v0())["terms"][0],
                "coeff": "1e100000000"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"terms": [term]}))
        start = time.monotonic()
        code, out, err = run(capsys, "act", "--op", "d", "--state", str(bad))
        assert time.monotonic() - start < 5
        assert code == 2 and not out
        assert "cannot read state" in err

    def test_size_limit_is_inclusive(self, capsys, tmp_path):
        path = self._write_state(tmp_path, rep.v0())
        code, out, _ = run(capsys, "act", "--op", "X", "--m", "-20",
                           "--state", path)
        assert code == 0
        assert len(json.loads(out)["terms"]) == 2087
        code, out, err = run(capsys, "act", "--op", "X", "--m", "-21",
                             "--state", path)
        assert code == 2 and not out
        assert "21" in err

    def test_missing_state_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "act", "--op", "d",
                         "--state", str(tmp_path / "nope.json"))
        assert code == 2

    def test_output_is_canonical(self, capsys, tmp_path):
        s = (rep.basis_state((1,), wedge.VACUUM, 0, Fraction(1, 2))
             + rep.basis_state((2, 1), wedge.WedgeBasis((-3,), (5,)), -1,
                               Fraction(-3, 4))
             + rep.v0())
        path = self._write_state(tmp_path, s)
        outdir = tmp_path / "out"
        code, out1, _ = run(capsys, "act", "--op", "c", "--state", path,
                            "--out", str(outdir))
        assert code == 0
        assert out1 == json.dumps(rep.state_to_json(rep.c_act(s)),
                                  indent=2) + "\n"
        assert (outdir / "act_result.json").read_text() == out1[:-1]
        code, out2, _ = run(capsys, "act", "--op", "c", "--state", path)
        assert out1 == out2


def _cli_process(*argv):
    """`sl2crit *argv` in a child process with 1 GB of address space and a
    30 s timeout, so that a reader that does not stop fails the test
    instead of taking the host's memory or hanging the suite."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sl2crit.cli", *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (1 << 30, 1 << 30)))


READING_OPTIONS = pytest.mark.parametrize("argv", [
    ["act", "--op", "X", "--m", "0", "--state"],
    ["verify", "hwv", "--config"],
], ids=["state", "config"])


@READING_OPTIONS
def test_device_is_usage_error(argv):
    # /dev/zero reads until memory runs out.
    proc = _cli_process(*argv, "/dev/zero")
    assert proc.returncode == 2 and not proc.stdout
    assert "/dev/zero is not a regular file" in proc.stderr


@READING_OPTIONS
def test_pipe_is_usage_error(tmp_path, argv):
    # Opening a FIFO for reading blocks until a writer opens it.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    proc = _cli_process(*argv, str(fifo))
    assert proc.returncode == 2 and not proc.stdout
    assert f"{fifo} is not a regular file" in proc.stderr


@READING_OPTIONS
def test_oversized_file_is_usage_error(tmp_path, argv):
    # A sparse file of 2 GB: it takes no disk, and reading it would raise
    # MemoryError under the child's 1 GB of address space.
    big = tmp_path / "big"
    big.touch()
    os.truncate(big, 2 << 30)
    proc = _cli_process(*argv, str(big))
    assert proc.returncode == 2 and not proc.stdout
    assert f"{big} has {2 << 30} bytes, above the input limit" in proc.stderr


def test_input_size_limit_is_inclusive(tmp_path):
    path = tmp_path / "state"
    path.touch()
    os.truncate(path, INPUT_SIZE_LIMIT)
    assert len(read_input(path)) == INPUT_SIZE_LIMIT
    os.truncate(path, INPUT_SIZE_LIMIT + 1)
    with pytest.raises(ValueError, match="above the input limit"):
        read_input(path)


class TestSharedParser:
    """`main` parses with the one module-level parser; these calls run in
    sequence and check that nothing of one call reaches the next."""

    def _state(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(rep.state_to_json(rep.v0())))
        return str(path)

    def test_main_builds_no_parser(self, capsys, tmp_path, monkeypatch):
        def refuse():
            raise AssertionError("main built a parser")
        monkeypatch.setattr(cli, "make_parser", refuse)
        code, out, _ = run(capsys, "act", "--op", "f0",
                           "--state", self._state(tmp_path))
        assert code == 0 and json.loads(out)["terms"]
        code, out, _ = run(capsys, "verify", "hwv")
        assert code == 0 and json.loads(out)["passed"]

    def test_mode_does_not_leak(self, capsys, tmp_path):
        path = self._state(tmp_path)
        code, _, _ = run(capsys, "act", "--op", "X", "--m", "1",
                         "--state", path)
        assert code == 0
        code, _, err = run(capsys, "act", "--op", "d", "--state", path)
        assert code == 0 and not err

    def test_format_does_not_leak(self, capsys):
        code, out, _ = run(capsys, "character", "--max-twice-deg", "2",
                           "--format", "csv")
        assert code == 0 and out.startswith("twice_degree,")
        code, out, _ = run(capsys, "character", "--max-twice-deg", "2")
        assert code == 0 and json.loads(out)["matches"] is True

    def test_out_does_not_leak(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "verify", "hwv", "--out", "D")
        assert code == 0 and (tmp_path / "D" / "report_hwv.json").exists()
        (tmp_path / "D" / "report_hwv.json").unlink()
        code, _, _ = run(capsys, "verify", "hwv")
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["D"]
        assert not os.listdir(tmp_path / "D")

    def test_usage_error_then_valid_call(self, capsys, tmp_path):
        path = self._state(tmp_path)
        code, _, _ = run(capsys, "act", "--op", "bogus", "--state", path)
        assert code == 2
        code, out, _ = run(capsys, "act", "--op", "c", "--state", path)
        assert code == 0 and json.loads(out)["terms"]

    def test_help_twice(self, capsys):
        code, first, _ = run(capsys, "--help")
        assert code == 0 and "usage: sl2crit" in first
        code, second, _ = run(capsys, "--help")
        assert code == 0 and second == first


class TestProbe:
    def test_runs(self, capsys, tmp_path):
        code, out, _ = run(capsys, "probe-d", "--mode-bound", "1",
                           "--max-twice-deg", "4", "--charge-bound", "1",
                           "--out", str(tmp_path))
        assert code == 0
        report = json.loads(out)
        assert report["extra"]["residual_stats"]
        assert (tmp_path / "report_probe_d.json").exists()


class TestConfig:
    def test_read_config(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("mode_bound = 3  # window\n\nmax_twice_deg=8\n")
        assert read_config(cfg) == {"mode_bound": 3, "max_twice_deg": 8}

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("no equals sign here\n")
        with pytest.raises(ValueError):
            read_config(str(cfg))

    def test_precedence_cli_over_config(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("mode_bound = 9\n")

        class Args:
            mode_bound = 2
            max_twice_deg = None
            charge_bound = None
            wedge_deg_cap = None

        spec = build_spec("clifford", Args(), read_config(cfg))
        assert spec.mode_bound == 2

    def test_config_applies_when_cli_silent(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("mode_bound = 1\nwedge_deg_cap = 2\n")
        code, out, _ = run(capsys, "verify", "clifford",
                           "--config", str(cfg))
        assert code == 0
        assert json.loads(out.strip())["passed"]

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("mode_bond = 1\n")
        code, out, err = run(capsys, "verify", "hwv", "--config", str(cfg))
        assert code == 2 and not out
        assert "bad config" in err and "mode_bond" in err

    @pytest.mark.parametrize("command,key", [
        (["verify", "clifford"], "mode_bound"),
        (["character"], "max_twice_deg"),
    ])
    def test_non_integer_value_names_the_key(self, capsys, tmp_path,
                                             command, key):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key} = x\n")
        code, out, err = run(capsys, *command, "--config", str(cfg))
        assert code == 2 and not out
        assert err == f"bad config: {key} = 'x' is not an integer\n"

    def test_missing_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "hwv",
                           "--config", str(tmp_path / "nope"))
        assert code == 2
        assert "bad config" in err


def test_verify_all_small(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("mode_bound = 1\nmax_twice_deg = 4\ncharge_bound = 1\n"
                   "wedge_deg_cap = 2\n")
    code, out, _ = run(capsys, "verify", "all", "--config", str(cfg),
                       "--out", str(tmp_path / "reports"))
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert sorted(l["suite"] for l in lines) \
        == ["clifford", "current", "exp", "hwv", "zalg"]
    assert all(l["passed"] for l in lines)
    for l in lines:
        assert (tmp_path / "reports" / f"report_{l['suite']}.json").exists()


@pytest.mark.parametrize("option", ["--out", "--config"])
def test_options_before_subcommand_are_usage_errors(capsys, tmp_path,
                                                    option):
    target = tmp_path / "target"
    code, out, err = run(capsys, option, str(target), "verify", "hwv")
    assert code == 2 and not out
    assert not target.exists()
    assert f"{option} goes after the subcommand" in err


def test_bad_flag_returns_usage_code(capsys):
    code, _, _ = run(capsys, "verify", "hwv", "--nonsense")
    assert code == 2


@pytest.mark.parametrize("argv", [["verify", "hwv"],
                                  ["character", "--max-twice-deg", "2"]],
                         ids=["verify", "character"])
def test_out_naming_a_file_is_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "file"
    target.write_text("kept")
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and not out
    assert str(target) in err and "Traceback" not in err
    assert target.read_text() == "kept"


def test_out_below_a_file_is_usage_error(capsys, tmp_path, monkeypatch):
    # Refused before the suite runs: it would fail only on the first write.
    monkeypatch.setattr(harness, "verify_hwv", None)
    target = tmp_path / "file"
    target.write_text("kept")
    code, out, err = run(capsys, "verify", "hwv",
                         "--out", str(target / "sub"))
    assert code == 2 and not out
    assert str(target) in err and "Traceback" not in err
    assert target.read_text() == "kept"


@pytest.mark.parametrize("argv", [
    ["verify", "hwv", "--mode-bound", "1"],
    ["verify", "bogus"],
    ["act", "--op", "d", "--state", "missing.json"],
], ids=["unread-flag", "unknown-suite", "missing-state"])
def test_usage_error_leaves_no_out_directory(capsys, tmp_path, monkeypatch,
                                             argv):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv, "--out", "newdir")
    assert code == 2 and not out
    assert not (tmp_path / "newdir").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "hwv", "--mode-bound", "1"],
    ["verify", "hwv", "--max-twice-deg", "1"],
    ["verify", "hwv", "--charge-bound", "1"],
    ["verify", "hwv", "--max-wedge-deg", "1"],
    ["verify", "clifford", "--max-twice-deg", "1"],
    ["verify", "clifford", "--charge-bound", "1"],
    ["verify", "current", "--max-wedge-deg", "1"],
    ["verify", "exp", "--charge-bound", "1"],
    ["verify", "exp", "--max-wedge-deg", "1"],
    ["verify", "zalg", "--max-twice-deg", "1"],
])
def test_unread_window_flag_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert f"{argv[1]} does not read" in err


@pytest.mark.parametrize("command,key", [
    (["character"], "mode_bound"), (["character"], "wedge_deg_cap"),
    (["probe-d"], "wedge_deg_cap"), (["verify", "hwv"], "charge_bound"),
])
def test_unread_config_key_is_usage_error(capsys, tmp_path, command, key):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"{key} = 1\n")
    code, out, err = run(capsys, *command, "--config", str(cfg))
    assert code == 2 and not out
    assert f"does not read {key}" in err


def test_act_takes_no_config(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(rep.state_to_json(rep.v0())))
    cfg = tmp_path / "cfg"
    cfg.write_text("mode_bound = 1\n")
    code, out, _ = run(capsys, "act", "--op", "d", "--state", str(path),
                       "--config", str(cfg))
    assert code == 2 and not out


def test_verify_all_gives_each_suite_its_fields(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "all", "--mode-bound", "1",
                       "--max-twice-deg", "2", "--charge-bound", "0",
                       "--max-wedge-deg", "1", "--out", str(tmp_path))
    assert code == 0
    for name, reads in SUITE_DEFAULTS.items():
        if name in harness.ALL_SUITES:
            report = json.loads((tmp_path / f"report_{name}.json")
                                .read_text())
            assert len(report["params"]) == len(reads)


def _suite_nodes():
    """Command name -> the AST of the function that takes its spec."""
    tree = ast.parse(inspect.getsource(harness))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and node.targets[0].id == "ALL_SUITES")
    out = {key.value: defs.get(getattr(value, "id", None), value)
           for key, value in zip(table.keys, table.values)}
    out["probe-d"] = defs["d_homogeneity_probe"]
    return out


@pytest.mark.parametrize("name", sorted(set(SUITE_DEFAULTS) - {"character"}))
def test_defaults_set_exactly_the_fields_a_suite_reads(name):
    reads = {node.attr for node in ast.walk(_suite_nodes()[name])
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "spec"}
    assert reads == set(SUITE_DEFAULTS[name])


# The acceptance windows of tests/test_acceptance.py and the documented
# `verify zalg --mode-bound 4`.
DOCUMENTED_WINDOWS = [
    {"mode_bound": 5, "wedge_deg_cap": 8},
    {"mode_bound": 4, "max_twice_deg": 10, "charge_bound": 2},
    {"mode_bound": 6, "max_twice_deg": 12},
    {"max_twice_deg": 12},
    {"mode_bound": 3, "wedge_deg_cap": 5, "charge_bound": 2},
    {"mode_bound": 2, "max_twice_deg": 6, "charge_bound": 2},
    {"mode_bound": 4},
]


def test_window_limits_cover_every_documented_window():
    assert set(WINDOW_LIMITS) == set(cli.SPEC_KEYS)
    for window in DOCUMENTED_WINDOWS + list(SUITE_DEFAULTS.values()):
        assert all(v <= WINDOW_LIMITS[k] for k, v in window.items()), window


@pytest.mark.parametrize("key", sorted(WINDOW_LIMITS))
def test_window_limit_is_inclusive(tmp_path, key):
    suite = next(s for s, reads in sorted(SUITE_DEFAULTS.items())
                 if key in reads)
    cfg = tmp_path / "cfg"
    for value in WINDOW_LIMITS[key], WINDOW_LIMITS[key] + 1:
        cfg.write_text(f"{key} = {value}\n")
        args = argparse.Namespace()
        if value == WINDOW_LIMITS[key]:
            assert getattr(build_spec(suite, args, read_config(cfg)),
                           key) == value
        else:
            with pytest.raises(ValueError, match=f"{key} = {value} is above"):
                build_spec(suite, args, read_config(cfg))


def _refuse(*args):
    raise AssertionError("enumerated a window above its limit")


@pytest.mark.parametrize("argv", [
    ["character", "--max-twice-deg", "50"],
    ["verify", "all", "--max-twice-deg", "50"],
    ["probe-d", "--charge-bound", "3"],
])
def test_window_above_its_limit_exits_before_enumerating(capsys, monkeypatch,
                                                         argv):
    monkeypatch.setattr(harness, "state_basis", _refuse)
    monkeypatch.setattr(harness, "wedge_bases_up_to", _refuse)
    monkeypatch.setattr(harness, "character", _refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert f"= {argv[-1]} is above its limit" in err
