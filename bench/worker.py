"""One rep of one workload, in a fresh interpreter.

Run by `bench/run.py` as `python worker.py '<job JSON>'`.  A fresh
interpreter per rep means the library's module-level `lru_cache`s start
cold, as they do for every `sl2crit` invocation.  The worker imports the
library from the checkout's `src/`, builds its inputs, runs the timed
phase, checks every output exactly and prints one JSON object as its last
line of standard output.

The library is driven only through public entry points
(`harness.verify_*`, `cli.main`) and read through `cache_info()`; under
`"trace": 1` the tracer in `spans.py` also wraps module attributes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("linear", "fock", "wedge", "rep", "zalg", "harness", "cli")

SUITE_FUNCTIONS = {
    "current": "verify_current_relations",
    "zalg": "verify_z_suite",
}


def load_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"sl2crit.{name}")
            for name in MODULES}
    loaded = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        raise SystemExit(f"sl2crit imported from {loaded}, not {src}")
    return mods


def cache_stats(mods):
    """End-of-rep `cache_info()` of every cached module-level function."""
    out = {}
    for modname, mod in mods.items():
        for attr, value in sorted(vars(mod).items()):
            info = getattr(value, "cache_info", None)
            if callable(info):
                ci = info()
                out[f"{modname}.{attr}"] = {
                    "hits": ci.hits, "misses": ci.misses,
                    "currsize": ci.currsize}
    return out


# ---------------------------------------------------------------------------
# act-deep inputs: seeded deep basis states, written as state JSON files

def partitions(n, maxpart=None, distinct=False):
    """Partitions of n (descending tuples); distinct parts if asked."""
    if maxpart is None:
        maxpart = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, maxpart), 0, -1):
        nxt = first - 1 if distinct else first
        for rest in partitions(n - first, nxt, distinct):
            out.append((first,) + rest)
    return out


# Every rep runs the same grid of shapes, so reps of different seeds cost
# about the same; the seed only picks the basis state within each shape
# and the order of the checks.
FOCK_SHARES = (0, 1, 2, 3)        # Fock degree = share/3 of the budget
MODE_PAIRS = ((-2, 1), (1, -2), (-1, 1), (2, 0))


def charge_sizes(T, P):
    """|p| <= P with p^2 <= T and T - p^2 even."""
    return [q for q in range(P + 1) if q * q <= T and (T - q * q) % 2 == 0]


def deep_checks(job):
    """Seeded bracket checks [X(m), Y(n)] on deep basis states.

    A shape fixes the twice-degree 2*(Fock degree + wedge degree) + p^2
    (every value in `twice_degrees` lies beyond the suite windows), the
    size |p| of the charge, the share of the degree in the Fock factor
    and the modes (m, n).  The seed picks the sign of the charge, a
    partition for the Fock factor, two strict partitions for the wedge
    factor (depths of the extra negative factors and of the holes) and
    the order of the checks.
    """
    rng = random.Random(f"act-deep:{job['seed']}:{job['rep']}")
    checks = []
    for T in job["twice_degrees"]:
        for q in charge_sizes(T, job["charge_bound"]):
            for share in FOCK_SHARES:
                for m, n in MODE_PAIRS:
                    p = rng.choice((q, -q))
                    budget = (T - q * q) // 2
                    f = budget * share // 3
                    a = rng.randint(0, budget - f)
                    fock = rng.choice(partitions(f))
                    neg_depths = rng.choice(partitions(a, distinct=True))
                    hole_depths = rng.choice(
                        partitions(budget - f - a, distinct=True))
                    neg = sorted(-2 * d - 1 for d in neg_depths)
                    holes = sorted(2 * d + 1 for d in hole_depths)
                    state = {"terms": [{
                        "coeff": "1", "fock": list(fock),
                        "wedge": {"neg": [f"{t}/2" for t in neg],
                                  "holes": [f"{t}/2" for t in holes]},
                        "charge": p}]}
                    checks.append({"state": state, "m": m, "n": n})
    rng.shuffle(checks)
    return checks


def parse_state(text):
    """State JSON -> {basis key: Fraction}, independent of the library."""
    out = {}
    for term in json.loads(text)["terms"]:
        key = (tuple(term["fock"]), tuple(term["wedge"]["neg"]),
               tuple(term["wedge"]["holes"]), term["charge"])
        out[key] = out.get(key, 0) + Fraction(term["coeff"])
    return out


def combine(*pairs):
    """Sum of scalar * state over (scalar, state) pairs, zeros dropped."""
    out = {}
    for scalar, state in pairs:
        for key, c in state.items():
            out[key] = out.get(key, 0) + scalar * c
    return {k: c for k, c in out.items() if c}


class CliRunner:
    """Calls `cli.main(["act", ...])` in-process and times each call."""

    def __init__(self, cli_module, workdir):
        self.cli = cli_module
        self.workdir = workdir
        self.latencies = []
        self.json_bytes = 0
        self.nfiles = 0

    def write(self, text):
        self.nfiles += 1
        path = self.workdir / f"state{self.nfiles}.json"
        path.write_text(text)
        self.json_bytes += len(text)
        return str(path)

    def act(self, op, m, path):
        """Result text of one `act` call, or None when it exits nonzero."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["act", "--op", op, "--m", str(m),
                                  "--state", path])
        self.latencies.append(time.perf_counter() - t0)
        text = buf.getvalue()
        self.json_bytes += len(text)
        return text if code == 0 else None


def prepare_act_deep(job, mods):
    """Generate and write the inputs; return the timed phase."""
    checks = deep_checks(job)
    runner = CliRunner(mods["cli"], Path(job["workdir"]))
    paths = [runner.write(json.dumps(c["state"])) for c in checks]

    def timed():
        failed = 0
        for check, path in zip(checks, paths):
            m, n = check["m"], check["n"]
            y_s = runner.act("Y", n, path)
            x_s = runner.act("X", m, path)
            h_s = runner.act("H", m + n, path)
            xy_s = runner.act("X", m, runner.write(y_s)) if y_s else None
            yx_s = runner.act("Y", n, runner.write(x_s)) if x_s else None
            if None in (xy_s, yx_s, h_s):
                failed += 1
                continue
            # [X(m), Y(n)] = H(m+n) - 2m delta_{m+n,0}
            delta = 2 * m if m + n == 0 else 0
            residual = combine(
                (1, parse_state(xy_s)), (-1, parse_state(yx_s)),
                (-1, parse_state(h_s)),
                (delta, parse_state(json.dumps(check["state"]))))
            if residual:
                failed += 1
        return {"attempted": len(checks), "failed": failed,
                "latencies": runner.latencies,
                "json_bytes": runner.json_bytes}

    return timed


def prepare_suite(job, mods):
    """Build the window; return the timed phase (one suite call)."""
    harness = mods["harness"]
    spec = harness.CheckSpec(**job["window"])
    suite = SUITE_FUNCTIONS[job["suite"]]
    expected = job["expected_checks"]

    def timed():
        t0 = time.perf_counter()
        report = getattr(harness, suite)(spec)
        latency = time.perf_counter() - t0
        attempted = max(report.checks_run, expected)
        # A wrong check count voids the whole rep.
        failed = (len(report.failures) if report.checks_run == expected
                  else attempted)
        return {"attempted": attempted, "failed": failed,
                "checks_run": report.checks_run, "latencies": [latency]}

    return timed


PREPARE = {"act": prepare_act_deep, "suite": prepare_suite}


def layer_metrics(per_name, caches, out):
    """Per-layer metrics of one traced rep, from spans and cache_info()."""
    def calls(*names):
        return sum(per_name[n]["calls"] for n in names)

    def self_s(*names):
        return sum(per_name[n]["self_s"] for n in names)

    def counted(*names):
        return sum(per_name[n]["counted"] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(cache):
        c = caches.get(cache)
        return ratio(c["hits"], c["hits"] + c["misses"]) if c else 0.0

    suites = ("harness.verify_current_relations", "harness.verify_z_suite")
    wedge = ("wedge.a_act", "wedge.astar_act")
    fields = ("rep.x_act", "rep.y_act", "rep.h_act_full",
              "rep.x_basis", "rep.y_basis", "rep.h_basis")
    return {
        "linear.map_basis.calls": calls("linear.map_basis"),
        "linear.map_basis.self_s": self_s("linear.map_basis"),
        "linear.terms_out": counted("linear.map_basis"),
        "linear.arith.calls": calls("linear.add", "linear.sub",
                                    "linear.neg", "linear.scale"),
        "fock.e_coeff_monomial.calls": calls("fock.e_coeff_monomial"),
        "fock.e_coeff_monomial.hit_ratio":
            hit_ratio("fock._e_coeff_monomial"),
        "fock.e_coeff_monomial.self_s": self_s("fock.e_coeff_monomial"),
        "fock.h_act.calls": calls("fock.h_act"),
        "wedge.a_act.calls": calls("wedge.a_act"),
        "wedge.astar_act.calls": calls("wedge.astar_act"),
        "wedge.nonzero_ratio": ratio(counted(*wedge), calls(*wedge)),
        "wedge.self_s": self_s(*wedge),
        "rep.x_basis.calls": calls("rep.x_basis"),
        "rep.x_basis.hit_ratio": hit_ratio("rep._x_basis"),
        "rep.y_basis.hit_ratio": hit_ratio("rep._y_basis"),
        "rep.h_basis.hit_ratio": hit_ratio("rep._h_basis"),
        "rep.fields.self_s": self_s(*fields),
        "rep.cache_entries": sum(
            caches.get(c, {}).get("currsize", 0)
            for c in ("rep._x_basis", "rep._y_basis", "rep._h_basis")),
        "zalg.gen_commutator.calls": calls("zalg.gen_commutator"),
        "zalg.gen_commutator.self_s": self_s("zalg.gen_commutator"),
        "zalg.pair_terms": calls("zalg.pair_term"),
        "zalg.pair_terms_nonzero_ratio": ratio(counted("zalg.pair_term"),
                                               calls("zalg.pair_term")),
        "zalg.zop_via_definition.self_s": self_s("zalg.zop_via_definition"),
        "harness.checks": out.get("checks_run", 0),
        "harness.basis_states": counted("harness.state_basis",
                                        "harness.wedge_bases_up_to"),
        "harness.self_s": self_s(*suites),
        "cli.act.calls": calls("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "cli.json_bytes": out.get("json_bytes", 0),
    }


def main(argv):
    job = json.loads(argv[1])
    mods = load_library()
    timed = PREPARE[job["kind"]](job, mods)
    tracer = None
    if job["trace"]:
        # Imported only here, so untraced reps import what users import.
        from spans import Tracer
        tracer = Tracer(mods)
        tracer.install()
    first_call = time.monotonic()
    if job.get("setup_only"):
        print(json.dumps({"first_call_monotonic": first_call}))
        return
    t0 = time.perf_counter()
    try:
        out = timed()
        out["wall_s"] = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    out["first_call_monotonic"] = first_call
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    out["caches"] = cache_stats(mods)
    if tracer is not None:
        per_name, collapsed, nspans = tracer.reduce()
        out["layers"] = layer_metrics(per_name, out["caches"], out)
        out["layers"]["trace.spans"] = nspans
        out["span_tree"] = collapsed
        out["untraced_targets"] = tracer.missing
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
