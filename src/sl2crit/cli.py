"""Command-line front end: verification suites, graded-dimension census,
single operator applications, and the degree-homogeneity probe.

Exit codes: 0 pass, 1 nonzero residual / mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import stat
import sys
from pathlib import Path

from . import harness, rep
from .harness import ALL_SUITES, CheckSpec

# Each command's default window; its keys are exactly the CheckSpec fields
# that the command reads.
SUITE_DEFAULTS = {
    "character": {"max_twice_deg": 12},
    "clifford": {"mode_bound": 5, "wedge_deg_cap": 8},
    "current": {"mode_bound": 4, "max_twice_deg": 10, "charge_bound": 2},
    "exp": {"mode_bound": 6, "max_twice_deg": 12},
    "hwv": {},
    "zalg": {"mode_bound": 3, "wedge_deg_cap": 5, "charge_bound": 2},
    "probe-d": {"mode_bound": 2, "max_twice_deg": 6, "charge_bound": 2},
}

# Operator name -> (takes --m, action on (m, state)): every letter of
# rep.LETTERS, moded but for d, then c and the Chevalley generators.  The
# actions look the library functions up when called.
OPS = {
    **{op: (op != "d", lambda m, s, op=op: rep.act(op, m or 0, s))
       for op in rep.LETTERS},
    "c": (False, lambda m, s: rep.c_act(s)),
    **{g: (False, lambda m, s, g=g: rep.chevalley_act(g, s))
       for g in (*rep.CHEVALLEY, "h0")},
}

SPEC_KEYS = CheckSpec._fields

# Largest input file, in bytes.  The largest `act` output, X(-20) on v0, is
# 507 KB; a larger file is refused before it is read into memory.
INPUT_SIZE_LIMIT = 1 << 24

# Largest `act` input: max over terms of Fock degree + wedge degree + |charge|,
# plus |m|.  Costs grow like partition numbers; X(-20) on v0 has 2,087 terms.
ACT_SIZE_LIMIT = 20

# Largest value of each window field, from the config or the command line:
# the largest that an acceptance window, a SUITE_DEFAULTS value or the
# documented `verify zalg --mode-bound 4` uses.  With every field at its
# cap, `verify current` takes about 40 s and 430 MB; every other command
# under 10 s and 41 MB.
WINDOW_LIMITS = {"mode_bound": 6, "max_twice_deg": 12, "charge_bound": 2,
                 "wedge_deg_cap": 8}


def read_input(path):
    """The text of the file at `path`.  Anything but a regular file is a
    ValueError: a device such as /dev/zero reads until memory runs out, and
    a pipe blocks until a writer comes.  So is a file above
    INPUT_SIZE_LIMIT bytes."""
    path = Path(path)
    info = path.stat()
    if not stat.S_ISREG(info.st_mode):
        raise ValueError(f"{path} is not a regular file")
    if info.st_size > INPUT_SIZE_LIMIT:
        raise ValueError(f"{path} has {info.st_size} bytes, above the input "
                         f"limit of {INPUT_SIZE_LIMIT}")
    return path.read_text()


def read_config(path):
    """Simple key=value config; '#' starts a comment.  Keys are CheckSpec
    fields, and values integers."""
    out = {}
    for line in read_input(path).splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SPEC_KEYS:
            raise ValueError(f"unknown config key {key!r}; expected one of "
                             f"{', '.join(SPEC_KEYS)}")
        try:
            out[key] = int(value)
        except ValueError:
            raise ValueError(f"{key} = {value!r} is not an integer") from None
    return out


def build_spec(suite, args, config, names=()):
    """The suite's default window, overridden by the config, overridden by
    the command line.  A field set there that neither the suite nor any of
    `names` (the suites of the same run) reads is a usage error, and so is
    a value above its WINDOW_LIMITS; the suite gets the fields it reads."""
    given = dict(config)
    given.update((key, getattr(args, key)) for key in SPEC_KEYS
                 if getattr(args, key, None) is not None)
    reads = SUITE_DEFAULTS[suite]
    unread = set(given).difference(reads, *map(SUITE_DEFAULTS.get, names))
    if unread:
        raise ValueError(f"{suite} does not read {', '.join(sorted(unread))}")
    for key, value in sorted(given.items()):
        if value > WINDOW_LIMITS[key]:
            raise ValueError(f"{key} = {value} is above its limit of "
                             f"{WINDOW_LIMITS[key]}")
    return CheckSpec(**{key: given.get(key, value)
                        for key, value in reads.items()})


def write_artifact(outdir, name, text):
    """Write `name` under `outdir`, created here, so that a command that
    stops on a usage error leaves no directory; nothing when no --out was
    given."""
    if outdir:
        Path(outdir).mkdir(parents=True, exist_ok=True)
        (Path(outdir) / name).write_text(text)


def cmd_verify(args, config):
    names = sorted(ALL_SUITES) if args.suite == "all" else [args.suite]
    if any(n not in ALL_SUITES for n in names):
        print(f"unknown suite: {args.suite}", file=sys.stderr)
        return 2
    all_passed = True
    for name in names:
        spec = build_spec(name, args, config, names)
        report = ALL_SUITES[name](spec)
        payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
        write_artifact(args.out, f"report_{name}.json", payload)
        print(json.dumps({"suite": name, "passed": report.passed,
                          "checks_run": report.checks_run,
                          "failures": len(report.failures)}))
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def cmd_character(args, config):
    table = harness.character(build_spec("character", args, config)
                              .max_twice_deg)
    ok = harness.character_matches(table)
    if args.format == "csv":
        text = harness.character_csv(table, "V")
        text_omega = harness.character_csv(table, "Omega")
        write_artifact(args.out, "character_V.csv", text)
        write_artifact(args.out, "character_Omega.csv", text_omega)
        print(text, end="")
    else:
        payload = json.dumps({**table, "matches": ok}, indent=2)
        write_artifact(args.out, "character.json", payload)
        print(payload)
    return 0 if ok else 1


def cmd_act(args, config):
    moded, action = OPS[args.op]
    if moded != (args.m is not None):
        need = "requires" if moded else "takes no"
        print(f"operator {args.op} {need} --m", file=sys.stderr)
        return 2
    try:
        state = rep.state_from_json(json.loads(read_input(args.state)))
    except (OSError, ValueError) as exc:
        print(f"cannot read state: {exc}", file=sys.stderr)
        return 2
    size = max((sum(mono) + w.degree() + abs(p)
                for mono, w, p in state.terms), default=0) + abs(args.m or 0)
    if size > ACT_SIZE_LIMIT:
        print(f"input size {size} exceeds the act limit {ACT_SIZE_LIMIT}",
              file=sys.stderr)
        return 2
    payload = rep.state_text(action(args.m, state))
    write_artifact(args.out, "act_result.json", payload)
    print(payload)
    return 0


def cmd_probe_d(args, config):
    spec = build_spec("probe-d", args, config)
    report = harness.d_homogeneity_probe(spec)
    payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
    write_artifact(args.out, "report_probe_d.json", payload)
    print(payload)
    return 0


def make_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--out", help="directory for report artifacts")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--mode-bound", dest="mode_bound", type=int)
    window.add_argument("--max-twice-deg", dest="max_twice_deg", type=int)
    window.add_argument("--charge-bound", dest="charge_bound", type=int)
    parser = argparse.ArgumentParser(
        prog="sl2crit",
        description="Exact verification of the level -2 boson-parafermion "
                    "realization of affine sl2.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", help="run a verification suite",
                       parents=[common, window])
    p.add_argument("suite", help="clifford | current | exp | hwv | zalg | all")
    p.add_argument("--max-wedge-deg", dest="wedge_deg_cap", type=int)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("character", help="graded dimension census",
                       parents=[common])
    p.add_argument("--max-twice-deg", dest="max_twice_deg", type=int)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(run=cmd_character)

    p = sub.add_parser("act", help="apply one operator to a state file")
    p.add_argument("--out", help="directory for the result")
    p.add_argument("--op", required=True, choices=sorted(OPS))
    p.add_argument("--m", type=int)
    p.add_argument("--state", required=True, help="state JSON file")
    p.set_defaults(run=cmd_act)

    p = sub.add_parser("probe-d", help="degree-homogeneity diagnostic",
                       parents=[common, window])
    p.set_defaults(run=cmd_probe_d)
    return parser


# Built once per process: `main` can be called many times in one process,
# and each parse_args makes a fresh Namespace from the subparser defaults.
PARSER = make_parser()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    option = argv[0].split("=", 1)[0] if argv else None
    if option in ("--out", "--config"):
        print(f"sl2crit: {option} goes after the subcommand, as in "
              f"'sl2crit verify hwv {option} ...'", file=sys.stderr)
        return 2
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        PARSER.print_help()
        return 2
    config = {}
    if getattr(args, "config", None):
        try:
            config = read_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"bad config: {exc}", file=sys.stderr)
            return 2
    if args.out:
        # The directory is made on the first write; a path it could not be
        # made under is refused before the command runs.
        out = Path(args.out)
        found = next(p for p in (out, *out.parents) if p.exists())
        if not found.is_dir():
            print(f"error: --out {args.out}: {found} is not a directory",
                  file=sys.stderr)
            return 2
    try:
        return args.run(args, config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
