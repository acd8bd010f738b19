"""Command-line front end: verification suites, graded-dimension census,
single operator applications, and the degree-homogeneity probe.

Exit codes: 0 pass, 1 nonzero residual / mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, rep, zalg
from .harness import ALL_SUITES, CheckSpec

SUITE_DEFAULTS = {
    "clifford": CheckSpec(mode_bound=5, wedge_deg_cap=8),
    "current": CheckSpec(mode_bound=4, max_twice_deg=10, charge_bound=2),
    "exp": CheckSpec(mode_bound=6, max_twice_deg=12),
    "hwv": CheckSpec(),
    "zalg": CheckSpec(mode_bound=3, wedge_deg_cap=5, charge_bound=2),
    "probe-d": CheckSpec(mode_bound=2, max_twice_deg=6, charge_bound=2),
}

MODED_OPS = {"X", "Y", "H", "Z+", "Z-"}
UNMODED_OPS = {"d", "c", "e0", "e1", "f0", "f1", "h0", "h1"}


def read_config(path):
    """Simple key=value config; '#' starts a comment."""
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_spec(suite, args, config):
    base = SUITE_DEFAULTS.get(suite, CheckSpec())
    fields = {
        "mode_bound": base.mode_bound,
        "max_twice_deg": base.max_twice_deg,
        "charge_bound": base.charge_bound,
        "wedge_deg_cap": base.wedge_deg_cap,
    }
    for key in fields:
        if key in config:
            fields[key] = int(config[key])
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            fields[key] = cli_val
    return CheckSpec(**fields)


def write_artifact(outdir, name, text):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(text)


def cmd_verify(args, config):
    names = sorted(ALL_SUITES) if args.suite == "all" else [args.suite]
    if any(n not in ALL_SUITES for n in names):
        print(f"unknown suite: {args.suite}", file=sys.stderr)
        return 2
    all_passed = True
    for name in names:
        spec = build_spec(name, args, config)
        report = ALL_SUITES[name](spec)
        payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
        if args.out:
            write_artifact(args.out, f"report_{name}.json", payload)
        print(json.dumps({"suite": name, "passed": report.passed,
                          "checks_run": report.checks_run,
                          "failures": len(report.failures)}))
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def cmd_character(args, config):
    maxtd = args.max_twice_deg
    if maxtd is None:
        maxtd = int(config.get("max_twice_deg", 12))
    table = harness.character(maxtd)
    ok = harness.character_matches(table)
    if args.format == "csv":
        text = harness.character_csv(table, "V")
        text_omega = harness.character_csv(table, "Omega")
        if args.out:
            write_artifact(args.out, "character_V.csv", text)
            write_artifact(args.out, "character_Omega.csv", text_omega)
        print(text, end="")
    else:
        payload = json.dumps({**table, "matches": ok}, indent=2)
        if args.out:
            write_artifact(args.out, "character.json", payload)
        print(payload)
    return 0 if ok else 1


def cmd_act(args, config):
    try:
        state = rep.state_from_json(json.loads(Path(args.state).read_text()))
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read state: {exc}", file=sys.stderr)
        return 2
    op = args.op
    if op in MODED_OPS and args.m is None:
        print(f"operator {op} requires --m", file=sys.stderr)
        return 2
    if op == "X":
        result = rep.x_act(args.m, state)
    elif op == "Y":
        result = rep.y_act(args.m, state)
    elif op == "H":
        result = rep.h_act_full(args.m, state)
    elif op == "Z+":
        result = zalg.zop_via_definition("+", args.m, state)
    elif op == "Z-":
        result = zalg.zop_via_definition("-", args.m, state)
    elif op == "d":
        result = rep.d_act(state)
    elif op == "c":
        result = rep.c_act(state)
    else:
        result = rep.chevalley_act(op, state)
    payload = json.dumps(rep.state_to_json(result), indent=2)
    if args.out:
        write_artifact(args.out, "act_result.json", payload)
    print(payload)
    return 0


def cmd_probe_d(args, config):
    spec = build_spec("probe-d", args, config)
    report = harness.d_homogeneity_probe(spec)
    payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if args.out:
        write_artifact(args.out, "report_probe_d.json", payload)
    print(payload)
    return 0


def make_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--out", help="directory for report artifacts")
    parser = argparse.ArgumentParser(
        prog="sl2crit",
        description="Exact verification of the level -2 boson-parafermion "
                    "realization of affine sl2.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", help="run a verification suite",
                       parents=[common])
    p.add_argument("suite", help="clifford | current | exp | hwv | zalg | all")
    p.add_argument("--mode-bound", dest="mode_bound", type=int)
    p.add_argument("--max-twice-deg", dest="max_twice_deg", type=int)
    p.add_argument("--charge-bound", dest="charge_bound", type=int)
    p.add_argument("--max-wedge-deg", dest="wedge_deg_cap", type=int)

    p = sub.add_parser("character", help="graded dimension census",
                       parents=[common])
    p.add_argument("--max-twice-deg", dest="max_twice_deg", type=int)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("act", help="apply one operator to a state file",
                       parents=[common])
    p.add_argument("--op", required=True,
                   choices=sorted(MODED_OPS | UNMODED_OPS))
    p.add_argument("--m", type=int)
    p.add_argument("--state", required=True, help="state JSON file")

    p = sub.add_parser("probe-d", help="degree-homogeneity diagnostic",
                       parents=[common])
    p.add_argument("--mode-bound", dest="mode_bound", type=int)
    p.add_argument("--max-twice-deg", dest="max_twice_deg", type=int)
    p.add_argument("--charge-bound", dest="charge_bound", type=int)

    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_help()
        return 2
    config = {}
    if args.config:
        try:
            config = read_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"bad config: {exc}", file=sys.stderr)
            return 2
    handlers = {
        "verify": cmd_verify,
        "character": cmd_character,
        "act": cmd_act,
        "probe-d": cmd_probe_d,
    }
    try:
        return handlers[args.command](args, config)
    except (ValueError, harness.ChargeCutoffLeak) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
