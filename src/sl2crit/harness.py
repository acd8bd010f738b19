"""Batch verification suites and the graded-dimension census.

Every suite sweeps an explicit finite window of basis vectors and mode
indices and checks the defining identities exactly; a suite passes iff
every residual is exactly zero.  Reports are deterministic: identical
check specifications produce byte-identical JSON.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import groupby
from math import isqrt

from . import fock, rep, wedge, zalg
from .linear import combine

CONVENTION_NOTES = [
    "vacuum-space wedge labels: the construction uses the space whose "
    "members always contain the index -1/2 and never 1/2; the variant "
    "labeling with the roles of +-1/2 swapped is not implemented.",
    "lowering-step ground truth: the second canonical highest weight "
    "vector satisfies f1.v1 = +2 (1 (x) word-with-3/2-omitted (x) "
    "e^{-2a}); the sign is forced by e1.(f1.v1) = -2 v1 together with "
    "the wedge reordering rules.",
    "graded dimension product: the wedge factor is prod_{m>=1}(1+q^m)^2; "
    "an m>=0 product differs by the constant factor 4 and disagrees "
    "with the enumeration.",
    "the moded Z-operator z-power is the operator exponent -alpha(0)/2 "
    "read on the input charge.",
]


class CheckSpec(namedtuple("CheckSpec", ("mode_bound", "max_twice_deg",
                                         "charge_bound", "wedge_deg_cap"))):
    """Finite verification window: mode range, grade caps, charge range."""

    __slots__ = ()

    def __new__(cls, mode_bound=4, max_twice_deg=10, charge_bound=2,
                wedge_deg_cap=8):
        if min(mode_bound, max_twice_deg, charge_bound, wedge_deg_cap) < 0:
            raise ValueError("bounds must be nonnegative")
        return super().__new__(cls, mode_bound, max_twice_deg, charge_bound,
                               wedge_deg_cap)


class Report:
    """Outcome of one suite: counts, failing residuals, convention notes."""

    def __init__(self, suite, params):
        self.suite = suite
        self.params = params
        self.checks_run = 0
        self.failures = []
        self.notes = list(CONVENTION_NOTES)
        self.extra = {}

    @property
    def passed(self):
        return not self.failures

    def check(self, identity, params, basis, residual):
        """Count one check; a nonzero residual is recorded as a failure,
        states through the state codec and anything else by repr."""
        self.checks_run += 1
        if residual:
            self.failures.append({
                "identity": identity,
                "params": params,
                "basis": basis,
                "residual": (rep.state_to_json(residual)
                             if isinstance(residual, rep.State)
                             else repr(residual)),
            })

    def finalize(self):
        self.failures.sort(key=lambda f: json.dumps(f, sort_keys=True))
        return self

    def to_json(self):
        return {
            "suite": self.suite,
            "params": self.params,
            "passed": self.passed,
            "checks_run": self.checks_run,
            "failures": self.failures,
            "notes": self.notes,
            **({"extra": self.extra} if self.extra else {}),
        }


# ---------------------------------------------------------------------------
# basis enumeration

def wedge_bases_of_degree(k):
    """All wedge basis vectors of exact degree k (pairs of strict
    partitions: depths of extra negatives and of holes)."""
    out = []
    for a in range(k + 1):
        for pa in fock._partitions(a, distinct=True):
            for pb in fock._partitions(k - a, distinct=True):
                neg = tuple(sorted(-2 * d - 1 for d in pa))
                holes = tuple(sorted(2 * d + 1 for d in pb))
                out.append(wedge.WedgeBasis(neg, holes))
    return out


def wedge_bases_up_to(cap):
    out = []
    for k in range(cap + 1):
        out.extend(wedge_bases_of_degree(k))
    return out


def state_basis(max_twice_deg, charge_bound):
    """Basis triples with 2*(Fock deg + wedge deg) + p^2 <= max_twice_deg."""
    out = []
    for p in range(-charge_bound, charge_bound + 1):
        budget = max_twice_deg - p * p
        if budget < 0:
            continue
        for total in range(budget // 2 + 1):
            for f in range(total + 1):
                for fmono in fock._partitions(f):
                    for w in wedge_bases_of_degree(total - f):
                        out.append((fmono, w, p))
    return out


def _basis_label(key):
    if isinstance(key, wedge.WedgeBasis):
        return json.dumps(wedge.serialize_basis(key))
    return json.dumps(rep.key_to_json(key))


def _word_residuals(spec, identities):
    """(identity, params, key, residual) for every key of state_basis on
    spec and every (identity, params, terms) of identities, in list order:
    the residual is rep.Window.residual(key, *terms), terms being
    (int, word) pairs.  Every operator conserves the sector
    rep.sector(key), so each sector gets its own rep.Window, dropped when
    the next one opens.  The Fock word rows do not depend on the sector:
    the windows share one table of them, made here and dropped with the
    generator."""
    basis = sorted(state_basis(spec.max_twice_deg, spec.charge_bound),
                   key=rep.sector)
    rows = {}
    for _, keys in groupby(basis, key=rep.sector):
        win = rep.Window(rows)
        for key in keys:
            for identity, params, terms in identities:
                yield identity, params, key, win.residual(key, *terms)


# ---------------------------------------------------------------------------
# suites

def _unit(key):
    """The basis vector at key as an integer image (pairs, den)."""
    return ((key, 1),), 1


def _residual(cls, parts):
    """The sum of (scalar, (pairs, den)) parts, by one linear.combine, as a
    cls state; None when that integer vector is zero."""
    sums, lift = combine(parts)
    return cls({k: Fraction(c, lift) for k, c in sums.items()}) \
        if sums else None


def _after(parts, *kernels):
    """The word of kernels, innermost last, applied to a list of
    (scalar, image) parts, each image an integer (pairs, den): one part per
    key that the outermost kernel reads, for _residual or a further
    _after."""
    for kernel in reversed(kernels):
        parts = [(s * c, (out, d * den)) for s, (pairs, den) in parts
                 for key, c in pairs for out, d in [kernel(key)]]
    return parts


def verify_clifford(spec):
    """Anticommutators of the wedge oscillators on an exhaustive window.

    Each check is one integer sum on its basis wedge of the oscillator
    kernel wedge._mode_kernel, of which wedge.apply_mode is the linear
    extension, and passes when that sum is zero.
    """
    report = Report("clifford", {"wedge_deg_cap": spec.wedge_deg_cap,
                                 "mode_bound": spec.mode_bound})
    tmax = 2 * spec.mode_bound + 1
    modes = range(-tmax, tmax + 1, 2)
    pairs = [("anticommutator_A_Astar", 1, -1),
             ("anticommutator_A_A", 1, 1),
             ("anticommutator_Astar_Astar", -1, -1)]
    for w in wedge_bases_up_to(spec.wedge_deg_cap):
        label = _basis_label(w)
        inner = {(s, t): wedge._mode_kernel(s, t, w)
                 for s in (1, -1) for t in modes}
        for m in modes:
            for n in modes:
                for identity, a, b in pairs:
                    parts = (_after([(1, inner[b, n])],
                                    partial(wedge._mode_kernel, a, m))
                             + _after([(1, inner[a, m])],
                                      partial(wedge._mode_kernel, b, n)))
                    # {A(m), A*(-m)} is the pairing (1 - m^2)/4 at the
                    # doubled mode m, an int since m is odd; else 0.
                    if a != b and m + n == 0:
                        parts.append(((m * m - 1) // 4, _unit(w)))
                    report.check(identity, [f"{m}/2", f"{n}/2"], label,
                                 _residual(wedge.WedgeElement, parts))
    return report.finalize()


def verify_current_relations(spec):
    """Loop-algebra brackets of the realized fields, componentwise.

    Each bracket is one integer sum of operator words on a key, taken
    factor by factor in the rep.Window of its sector (_word_residuals),
    and it passes when that sum is zero; a nonzero one is recorded as the
    same State residual.
    """
    report = Report("current", {"mode_bound": spec.mode_bound,
                                "max_twice_deg": spec.max_twice_deg,
                                "charge_bound": spec.charge_bound})
    M = spec.mode_bound
    brackets = []
    for m in range(-M, M + 1):
        for n in range(-M, M + 1):
            # [H(m), F(n)] = +-2 F(m+n) for the charge +-1 fields.
            for identity, f, charge in (("bracket_H_X", "X", 1),
                                        ("bracket_H_Y", "Y", -1)):
                brackets.append((identity, [m, n], (
                    (1, (("H", m), (f, n))), (-1, ((f, n), ("H", m))),
                    (-2 * charge, ((f, m + n),)))))
            xy = ((1, (("X", m), ("Y", n))), (-1, (("Y", n), ("X", m))),
                  (-1, (("H", m + n),)))
            brackets.append(("bracket_X_Y", [m, n],
                             xy + ((2 * m, ()),) if m + n == 0 else xy))
            if m and n:
                hh = ((1, (("H", m), ("H", n))), (-1, (("H", n), ("H", m))))
                brackets.append(("bracket_H_H", [m, n],
                                 hh + ((4 * m, ()),) if m + n == 0 else hh))
    for identity, params, key, res in _word_residuals(spec, brackets):
        report.check(identity, params, _basis_label(key) if res else None,
                     res)
    return report.finalize()


def verify_e_identities(spec):
    """Coefficientwise identities of the four exponential operators.

    Each check is one integer sum on its basis monomial of the kernels
    fock._e_kernel and fock._h_kernel, of which e_coeff and h_act are the
    extensions, and passes when that sum is zero.
    """
    report = Report("exp", {"coeff_bound": spec.mode_bound,
                            "fock_deg_cap": spec.max_twice_deg // 2})
    K = spec.mode_bound
    D = spec.max_twice_deg // 2

    def e(sup, sub, k):
        return partial(fock._e_kernel, sup, sub, k)

    for mono in [m for f in range(D + 1) for m in fock._partitions(f)]:
        v = _unit(mono)
        d = sum(mono)
        label = json.dumps(list(mono))
        # Subscript '+' has coefficients at z^k, '-' at z^-k, k >= 0.
        for sub, sg, name in (("+", 1, "commute_sub_plus"),
                              ("-", -1, "commute_sub_minus")):
            # E^+_s(z) E^-_s(z) = 1, coefficient of z^j.
            for j in range(K + 1):
                parts = [(-1, v)] if j == 0 else []
                for k in range(j + 1):
                    parts += _after([(1, v)], e("+", sub, sg * k),
                                    e("-", sub, sg * (j - k)))
                report.check("unit_product", [sub, sg * j], label,
                             _residual(fock.FockElement, parts))
            # Commuting pairs with equal subscripts.
            for s1, s2 in [("+", "+"), ("-", "+"), ("-", "-")]:
                for a in range(K + 1):
                    for b in range(K + 1):
                        e1, e2 = e(s1, sub, sg * a), e(s2, sub, sg * b)
                        report.check(name, [s1, s2, a, b], label, _residual(
                            fock.FockElement,
                            _after([(1, v)], e1, e2)
                            + _after([(-1, v)], e2, e1)))
        # E^{s1}_-(z) E^{s2}_+(w) = E^{s2}_+(w) E^{s1}_-(z) (1 - w/z)^e, with
        # e = -1 for equal superscripts, weights 1, 1, ..., and e = +1 for
        # (+, -), weights 1, -1.
        for s1, s2 in [("+", "+"), ("-", "-"), ("+", "-")]:
            identity, prefix, weights = (
                ("swap_minus_plus_same_sup", [s1], (1,) * (K + 1))
                if s1 == s2 else ("swap_mixed_sup", [], (1, -1)))
            for a in range(K + 1):
                for b in range(K + 1):
                    parts = _after([(1, v)], e(s1, "-", -a), e(s2, "+", b))
                    for k, wt in enumerate(weights[:min(a, b) + 1]):
                        parts += _after([(-wt, v)], e(s2, "+", b - k),
                                        e(s1, "-", k - a))
                    report.check(identity, prefix + [a, b], label,
                                 _residual(fock.FockElement, parts))
        # d/dz (E^s_+(z) E^s_-(z)), coefficient of z^j, against the
        # middle-field form with modes H(n)/2, over den 2.  E^s_-(b) on
        # the key is expanded once per b and shared by every j and n.
        half = (((mono, 1),), 2)
        for sup in "+-":
            sgn = -1 if sup == "+" else 1
            inner = {b: _after([(-sgn, half)], e(sup, "-", b))
                     for b in range(0, -(d + 1), -1)}
            for j in range(-K, K + 1):
                parts = []
                for k in range(max(0, j + 1), j + 1 + d + 1):
                    parts += _after([(j + 1, v)], e(sup, "+", k),
                                    e(sup, "-", j + 1 - k))
                for b, low in inner.items():
                    for n in range(b - j - 1, d + 1):
                        if n:
                            parts += _after(low, e(sup, "+", j + 1 + n - b),
                                            partial(fock._h_kernel, n))
                report.check("derivative_identity", [sup, j], label,
                             _residual(fock.FockElement, parts))
    return report.finalize()


def verify_hwv():
    """Full highest-weight checklist for the two canonical vectors."""
    report = Report("hwv", {})
    v0, v1 = rep.v0(), rep.v1()
    f0v0 = rep.basis_state((), wedge.WedgeBasis((-3,), ()), 1, -2)
    f1v1 = rep.basis_state((), wedge.WedgeBasis((), (3,)), -2, 2)

    ch = rep.chevalley_act
    zero = rep.State.zero()
    for identity, got, want in [
            ("e0_kills_v0", ch("e0", v0), zero),
            ("e1_kills_v0", ch("e1", v0), zero),
            ("f1_kills_v0", ch("f1", v0), zero),
            ("e0_kills_v1", ch("e0", v1), zero),
            ("e1_kills_v1", ch("e1", v1), zero),
            ("f0_kills_v1", ch("f0", v1), zero),
            ("f0_v0_value", ch("f0", v0), f0v0),
            ("f1_v1_value", ch("f1", v1), f1v1),
            ("e0_f0_v0", ch("e0", ch("f0", v0)), v0.scale(-2)),
            ("e1_f1_v1", ch("e1", ch("f1", v1)), v1.scale(-2)),
            ("c_on_v0", rep.c_act(v0), v0.scale(-2))]:
        report.check(identity, [], "", got - want)

    weights = report.extra["weights"] = {}
    for name, v, want in [("v0", v0, (Fraction(-2), Fraction(0), Fraction(0))),
                          ("v1", v1, (Fraction(0), Fraction(-2),
                                      Fraction(-1, 2)))]:
        got = rep.weight_of(v)
        ok = got == want
        weights[name] = [str(x) for x in want]
        report.check(f"weight_{name}", weights[name], "",
                     None if ok else got)
    return report.finalize()


def verify_z_suite(spec):
    """Generalized-commutator relations, definition/closed-form agreement,
    and the Heisenberg centralizer property, on the vacuum-space keys
    ((), w, p).

    Each check is one integer sum on its basis key of the kernels
    zalg._gencom_basis, zalg._zop_basis and rep._kernel (the closed-form
    Z± and H), looked up when called, and passes when that sum is zero.
    gen_commutator, zop_via_definition and rep.act are the linear
    extensions of the same kernels, so a nonzero sum is recorded as the
    State residual that they give.  The same-sign gencom kernels are the
    finite sums of zalg.gen_commutator, at most |m - n| products each, and
    H(n) on the key, the right side's inner image, is computed once per
    key and shared by every (m, sign).

    The H_commutes_with_Z family is vacuous on this window: H(n),
    n = 1..3, sends every vacuum-space key to zero, so both sides of
    every check are zero.  tests/test_zalg.py checks [H(n), Z(m)] = 0 on
    states with a Fock factor.
    """
    report = Report("zalg", {"mode_bound": spec.mode_bound,
                             "wedge_deg_cap": spec.wedge_deg_cap,
                             "charge_bound": spec.charge_bound})
    M, P = spec.mode_bound, spec.charge_bound
    for w in wedge_bases_up_to(spec.wedge_deg_cap):
        for p in range(-P, P + 1):
            key = ((), w, p)
            label = _basis_label(key)
            for m in range(-M, M + 1):
                for n in range(-M, M + 1):
                    # [Z+(m), Z-(n)] = (2p - 2m) delta_{m+n,0} on (w, p).
                    parts = [(1, zalg._gencom_basis("+", "-", m, n, key))]
                    if m + n == 0:
                        parts.append((2 * m - 2 * p, _unit(key)))
                    report.check("gencom_plus_minus", [m, n], label,
                                 _residual(rep.State, parts))
                    for sg in "+-":
                        same = zalg._gencom_basis(sg, sg, m, n, key)
                        report.check(f"gencom_{sg}{sg}", [m, n], label,
                                     _residual(rep.State, [(1, same)]))
            # The series definition is the costly side: its checks stop at
            # wedge degree 4 whatever the window.
            if w.degree() > 4:
                continue
            hs = [(n, h, h(key)) for n in range(1, 4)
                  for h in [partial(rep._kernel, "H", n)]]
            for m in range(-M, M + 1):
                for sg in "+-":
                    z = zalg._zop_basis(sg, m, key)
                    closed = rep._kernel("Z" + sg, m, key)
                    report.check("definition_vs_closed_form", [sg, m], label,
                                 _residual(rep.State, [(1, z), (-1, closed)]))
                    zop = partial(zalg._zop_basis, sg, m)
                    for n, h, h_key in hs:
                        report.check("H_commutes_with_Z", [sg, m, n], label,
                                     _residual(rep.State,
                                               _after([(1, z)], h)
                                               + _after([(-1, h_key)], zop)))
    return report.finalize()


# ---------------------------------------------------------------------------
# graded dimension

def _series_wedge(maxtd):
    """Twice-graded coefficients of prod_{m>=1}(1 + q^m)^2."""
    out = [1] + [0] * maxtd
    for m in range(1, maxtd // 2 + 1):
        for _ in range(2):
            step = 2 * m
            for i in range(maxtd, step - 1, -1):
                out[i] += out[i - step]
    return out


def character(max_twice_deg):
    """Enumerated graded dimensions versus the product-formula series.

    Returns a dict with rows for the full module and for the vacuum space,
    each row (twice_degree, enumerated, formula), plus notes.  The charge
    cutoff P = isqrt(max_twice_deg) is exact: charge p starts at
    twice-degree p^2, so every charge beyond P lies outside the window.
    """
    P = isqrt(max_twice_deg)

    counts_v = [0] * (max_twice_deg + 1)
    counts_omega = [0] * (max_twice_deg + 1)
    counts_by_charge = {}
    for fmono, w, p in state_basis(max_twice_deg, P):
        td = 2 * (sum(fmono) + w.degree()) + p * p
        counts_v[td] += 1
        counts_by_charge[p, td] = counts_by_charge.get((p, td), 0) + 1
        if not fmono:
            counts_omega[td] += 1

    # Omega: the wedge series times the lattice theta series sum_p q^{p^2/2};
    # V: that times 1/prod_{n>=1}(1 - q^n), one factor at a time, in place.
    wser = _series_wedge(max_twice_deg)
    formula_omega = [sum(wser[td - p * p] for p in range(-P, P + 1)
                         if p * p <= td)
                     for td in range(max_twice_deg + 1)]
    formula_v = list(formula_omega)
    for n in range(1, max_twice_deg // 2 + 1):
        for i in range(2 * n, max_twice_deg + 1):
            formula_v[i] += formula_v[i - 2 * n]

    def rows(counts, formula):
        return [{"twice_degree": td, "enumerated": counts[td],
                 "formula": formula[td]}
                for td in range(max_twice_deg + 1)]

    return {
        "max_twice_deg": max_twice_deg,
        "charge_bound": P,
        "V": rows(counts_v, formula_v),
        "Omega": rows(counts_omega, formula_omega),
        "counts_by_charge": {f"{p}:{td}": c
                             for (p, td), c in sorted(counts_by_charge.items())},
        "notes": list(CONVENTION_NOTES),
    }


def character_matches(table):
    return all(r["enumerated"] == r["formula"]
               for r in table["V"] + table["Omega"])


def character_csv(table, kind="V"):
    lines = ["twice_degree,enumerated,formula"]
    for r in table[kind]:
        lines.append(f"{r['twice_degree']},{r['enumerated']},{r['formula']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# diagnostic probe

def d_homogeneity_probe(spec):
    """Residuals of [d, F(m)] - m F(m), F = X, Y, H, per charge, each one
    word sum in the window of its sector (_word_residuals), where the d
    letter reads the Fock degree that the word's paths carry.
    Informational: the report always passes; the residual statistics are
    the payload."""
    report = Report("probe-d", {"mode_bound": spec.mode_bound,
                                "max_twice_deg": spec.max_twice_deg,
                                "charge_bound": spec.charge_bound})
    words = [(name, m, ((1, (("d", 0), (name, m))),
                        (-1, ((name, m), ("d", 0))), (-m, ((name, m),))))
             for m in range(-spec.mode_bound, spec.mode_bound + 1)
             for name in "XYH"]
    stats = {}
    for name, _, key, res in _word_residuals(spec, words):
        entry = stats.setdefault((name, key[2]), [0, 0])
        entry[0] += 1
        entry[1] += bool(res)
        report.checks_run += 1
    report.extra["residual_stats"] = {
        f"{name},charge={p}": {"checks": c, "nonzero_residuals": bad}
        for (name, p), (c, bad) in sorted(stats.items())}
    return report.finalize()


ALL_SUITES = {
    "clifford": verify_clifford,
    "current": verify_current_relations,
    "exp": verify_e_identities,
    "hwv": lambda spec: verify_hwv(),
    "zalg": verify_z_suite,
}
