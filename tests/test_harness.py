import json
from fractions import Fraction

import pytest

from sl2crit import cli, fock, harness, linear, rep, wedge, zalg
from sl2crit.harness import (CheckSpec, character,
                             character_csv, character_matches,
                             d_homogeneity_probe, state_basis,
                             verify_clifford,
                             verify_current_relations, verify_e_identities,
                             verify_hwv, verify_z_suite, wedge_bases_of_degree)


class TestEnumeration:
    def test_strict_partitions(self):
        assert fock._partitions(0, distinct=True) == ((),)
        assert set(fock._partitions(5, distinct=True)) \
            == {(5,), (4, 1), (3, 2)}

    def test_wedge_degree_counts(self):
        assert [len(wedge_bases_of_degree(k)) for k in range(6)] \
            == [1, 2, 3, 6, 9, 14]

    def test_state_basis_respects_grade_window(self):
        for fm, w, p in state_basis(6, 2):
            assert 2 * (sum(fm) + w.degree()) + p * p <= 6

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            CheckSpec(mode_bound=-1)

    def test_spec_contract(self):
        assert cli.SPEC_KEYS == ("mode_bound", "max_twice_deg",
                                 "charge_bound", "wedge_deg_cap")
        default = CheckSpec()
        assert [getattr(default, key) for key in cli.SPEC_KEYS] \
            == [4, 10, 2, 8]
        spec = CheckSpec(**{"charge_bound": 1, "mode_bound": 3})
        assert spec == CheckSpec(3, 10, 1, 8)
        assert repr(spec) == ("CheckSpec(mode_bound=3, max_twice_deg=10, "
                              "charge_bound=1, wedge_deg_cap=8)")
        for key in cli.SPEC_KEYS:
            with pytest.raises(ValueError, match="bounds must be nonneg"):
                CheckSpec(**{key: -1})
        with pytest.raises(TypeError):
            CheckSpec(mode_bond=1)
        with pytest.raises(AttributeError):
            spec.mode_bound = 5
        with pytest.raises(AttributeError):
            spec.window = 1


class TestSuitesSmall:
    def test_clifford(self):
        r = verify_clifford(CheckSpec(mode_bound=3, wedge_deg_cap=4))
        assert r.passed and r.checks_run > 0

    def test_current(self):
        r = verify_current_relations(
            CheckSpec(mode_bound=2, max_twice_deg=4, charge_bound=1))
        assert r.passed

    def test_exp(self):
        r = verify_e_identities(CheckSpec(mode_bound=3, max_twice_deg=6))
        assert r.passed

    def test_hwv(self):
        r = verify_hwv()
        assert r.passed
        assert r.extra["weights"]["v0"] == ["-2", "0", "0"]
        assert r.extra["weights"]["v1"] == ["0", "-2", "-1/2"]

    def test_zalg(self):
        r = verify_z_suite(CheckSpec(mode_bound=2, wedge_deg_cap=2,
                                     charge_bound=1))
        assert r.passed

    def test_zalg_runs_the_window_it_is_given(self):
        # Mode bound 4 lies above the suite's default of 3.
        small = verify_z_suite(CheckSpec(mode_bound=3, wedge_deg_cap=1,
                                         charge_bound=0))
        r = verify_z_suite(CheckSpec(mode_bound=4, wedge_deg_cap=1,
                                     charge_bound=0))
        assert r.passed
        assert r.params["mode_bound"] == 4
        assert r.checks_run > small.checks_run

    def test_reports_deterministic(self):
        spec = CheckSpec(mode_bound=2, wedge_deg_cap=3)
        a = json.dumps(verify_clifford(spec).to_json(), sort_keys=True)
        b = json.dumps(verify_clifford(spec).to_json(), sort_keys=True)
        assert a == b


class TestWordResiduals:
    # 57 keys in state_basis(6, 2); modes -3..3 give 21 pairs m < n.
    SPEC = CheckSpec(mode_bound=3, max_twice_deg=6, charge_bound=2)
    PAIRS = [(m, n) for m in range(-3, 4) for n in range(m + 1, 4)]

    def test_like_fields_commute(self):
        # [X(m), X(n)] = 0 and [Y(m), Y(n)] = 0, which no suite checks.
        words = [(f"bracket_{f}_{f}", [m, n],
                  ((1, ((f, m), (f, n))), (-1, ((f, n), (f, m)))))
                 for f in "XY" for m, n in self.PAIRS]
        out = list(harness._word_residuals(self.SPEC, words))
        assert len(words) == 42 and len(out) == 57 * 42 == 2394
        # Every key gets the identities in list order.
        assert [(i, p) for i, p, _, _ in out[:42]] \
            == [(i, p) for i, p, _ in words]
        assert len({key for _, _, key, _ in out}) == 57
        assert [(i, p, key) for i, p, key, res in out if res] == []

    def test_one_product_alone_is_not_zero(self):
        # The check above is not vacuous: X(m) X(n) is nonzero on some key.
        words = [("X_X", [m, n], ((1, (("X", m), ("X", n))),))
                 for m, n in self.PAIRS]
        assert any(res for *_, res in
                   harness._word_residuals(self.SPEC, words))


def z_suite_by_public_functions(spec):
    """verify_z_suite written with the public linear maps on one-key
    states: gen_commutator, zop_via_definition and rep.act of Z± and H."""
    report = harness.Report("zalg", {"mode_bound": spec.mode_bound,
                                     "wedge_deg_cap": spec.wedge_deg_cap,
                                     "charge_bound": spec.charge_bound})
    M, P = spec.mode_bound, spec.charge_bound
    modes = range(-M, M + 1)
    for w in harness.wedge_bases_up_to(spec.wedge_deg_cap):
        for p in range(-P, P + 1):
            s = rep.basis_state((), w, p)
            label = harness._basis_label(((), w, p))
            for m in modes:
                for n in modes:
                    want = s.scale(2 * p - 2 * m) if m + n == 0 \
                        else rep.State.zero()
                    report.check("gencom_plus_minus", [m, n], label,
                                 zalg.gen_commutator("+", "-", m, n, s)
                                 - want)
                    for sg in "+-":
                        report.check(f"gencom_{sg}{sg}", [m, n], label,
                                     zalg.gen_commutator(sg, sg, m, n, s))
    for w in harness.wedge_bases_up_to(min(spec.wedge_deg_cap, 4)):
        for p in range(-P, P + 1):
            s = rep.basis_state((), w, p)
            label = harness._basis_label(((), w, p))
            for m in modes:
                for sg in "+-":
                    z = zalg.zop_via_definition(sg, m, s)
                    report.check("definition_vs_closed_form", [sg, m], label,
                                 z - rep.act("Z" + sg, m, s))
                    for n in range(1, 4):
                        report.check("H_commutes_with_Z", [sg, m, n], label,
                                     rep.act("H", n, z)
                                     - zalg.zop_via_definition(
                                         sg, m, rep.act("H", n, s)))
    return report.finalize()


def doubling(module, name, args):
    """module.name with the coefficients of its value at args doubled."""
    orig = getattr(module, name)

    def fn(*call):
        out = orig(*call)
        if call != args:
            return out
        if name in ("_z_basis", "flip"):
            return out[0], 2 * out[1]
        return tuple((k, 2 * c) for k, c in out)
    return fn


def counting_arithmetic(monkeypatch):
    """Record every map_basis, +, - and scale of a LinearCombination."""
    calls = []
    for name in ("map_basis", "__add__", "__sub__", "scale"):
        orig = getattr(linear.LinearCombination, name)

        def wrapper(*args, name=name, orig=orig):
            calls.append(name)
            return orig(*args)
        monkeypatch.setattr(linear.LinearCombination, name, wrapper)
    return calls


class TestZSuiteOnKernels:
    SPEC = CheckSpec(mode_bound=1, wedge_deg_cap=2, charge_bound=1)

    def test_no_linear_extension_per_check(self, monkeypatch):
        calls = counting_arithmetic(monkeypatch)
        assert verify_z_suite(self.SPEC).checks_run == 918
        assert calls == []

    @pytest.mark.parametrize("module,name,args,families", [
        # Z+(-1) on the vacuum breaks the commutator of Z+ with Z-.
        (rep, "_z_basis", ("+", -1, (wedge.VACUUM, 0)),
         {"gencom_plus_minus"}),
        # The z^1 vertex row of X on the Fock vacuum breaks the dressing:
        # the definition leaves a Fock factor, which H(1) sees.
        (fock, "_vertex_monomial", ("+", 1, ()),
         {"definition_vs_closed_form", "H_commutes_with_Z"}),
    ], ids=["z_basis", "vertex_monomial"])
    def test_failures_match_the_public_functions(self, monkeypatch, module,
                                                 name, args, families):
        monkeypatch.setattr(module, name, doubling(module, name, args))
        report = verify_z_suite(self.SPEC).to_json()
        assert {f["identity"] for f in report["failures"]} == families
        assert report == z_suite_by_public_functions(self.SPEC).to_json()


def clifford_by_public_functions(spec):
    """verify_clifford written with apply_mode on one-wedge elements."""
    report = harness.Report("clifford", {"wedge_deg_cap": spec.wedge_deg_cap,
                                         "mode_bound": spec.mode_bound})
    tmax = 2 * spec.mode_bound + 1
    modes = range(-tmax, tmax + 1, 2)
    for w in harness.wedge_bases_up_to(spec.wedge_deg_cap):
        v = wedge.WedgeElement.basis(w)
        label = harness._basis_label(w)
        for m in modes:
            for n in modes:
                for identity, a, b in [("anticommutator_A_Astar", "A", "A*"),
                                       ("anticommutator_A_A", "A", "A"),
                                       ("anticommutator_Astar_Astar", "A*",
                                        "A*")]:
                    pairing = Fraction(1 - m * m, 4) \
                        if a != b and m + n == 0 else 0
                    report.check(identity, [f"{m}/2", f"{n}/2"], label,
                                 wedge.apply_mode(a, m,
                                                  wedge.apply_mode(b, n, v))
                                 + wedge.apply_mode(b, n,
                                                    wedge.apply_mode(a, m, v))
                                 - v.scale(pairing))
    return report.finalize()


def exp_suite_by_public_functions(spec):
    """verify_e_identities written with e_coeff and h_act on Fock
    elements."""
    report = harness.Report("exp", {"coeff_bound": spec.mode_bound,
                                    "fock_deg_cap": spec.max_twice_deg // 2})
    K, D = spec.mode_bound, spec.max_twice_deg // 2
    e_coeff, zero = fock.e_coeff, fock.FockElement.zero()
    for mono in [m for f in range(D + 1) for m in fock._partitions(f)]:
        v = fock.FockElement.basis(mono)
        d = sum(mono)
        label = json.dumps(list(mono))
        for sub, sg, name in (("+", 1, "commute_sub_plus"),
                              ("-", -1, "commute_sub_minus")):
            for j in range(K + 1):
                total = sum((e_coeff("+", sub, sg * k,
                                     e_coeff("-", sub, sg * (j - k), v))
                             for k in range(j + 1)), zero)
                report.check("unit_product", [sub, sg * j], label,
                             total - (v if j == 0 else zero))
            for s1, s2 in [("+", "+"), ("-", "+"), ("-", "-")]:
                for a in range(K + 1):
                    for b in range(K + 1):
                        report.check(name, [s1, s2, a, b], label,
                                     e_coeff(s1, sub, sg * a,
                                             e_coeff(s2, sub, sg * b, v))
                                     - e_coeff(s2, sub, sg * b,
                                               e_coeff(s1, sub, sg * a, v)))
        for identity, s1, s2, weights, prefix in [
                ("swap_minus_plus_same_sup", "+", "+", [1] * (K + 1), ["+"]),
                ("swap_minus_plus_same_sup", "-", "-", [1] * (K + 1), ["-"]),
                ("swap_mixed_sup", "+", "-", [1, -1], [])]:
            for a in range(K + 1):
                for b in range(K + 1):
                    lhs = e_coeff(s1, "-", -a, e_coeff(s2, "+", b, v))
                    rhs = sum((e_coeff(s2, "+", b - k,
                                       e_coeff(s1, "-", k - a, v)).scale(wt)
                               for k, wt in enumerate(
                                   weights[:min(a, b) + 1])), zero)
                    report.check(identity, prefix + [a, b], label, lhs - rhs)
        for sup in "+-":
            sgn = -1 if sup == "+" else 1
            for j in range(-K, K + 1):
                lhs = sum((e_coeff(sup, "+", k,
                                   e_coeff(sup, "-", j + 1 - k, v))
                           for k in range(max(0, j + 1), j + 1 + d + 1)),
                          zero).scale(j + 1)
                rhs = zero
                for b in range(0, -(d + 1), -1):
                    for n in range(b - j - 1, d + 1):
                        if n:
                            mid = fock.h_act(n, e_coeff(sup, "-", b, v))
                            rhs = rhs + e_coeff(sup, "+", j + 1 + n - b,
                                                mid).scale(Fraction(sgn, 2))
                report.check("derivative_identity", [sup, j], label,
                             lhs - rhs)
    return report.finalize()


class TestCliffordAndExpOnKernels:
    CLIFFORD = CheckSpec(mode_bound=2, wedge_deg_cap=3)
    EXP = CheckSpec(mode_bound=2, max_twice_deg=4)

    def test_no_linear_combination_arithmetic(self, monkeypatch):
        calls = counting_arithmetic(monkeypatch)
        assert verify_clifford(self.CLIFFORD).checks_run == 1296
        assert verify_e_identities(self.EXP).checks_run == 388
        assert calls == []

    def test_clifford_failures_match_the_public_functions(self,
                                                          monkeypatch):
        # A(-3/2) on the vacuum, doubled, breaks the anticommutators of A
        # with A* and with itself on the wedges it reaches.
        monkeypatch.setattr(wedge, "flip",
                            doubling(wedge, "flip", (1, -3, wedge.VACUUM)))
        spec = CheckSpec(mode_bound=1, wedge_deg_cap=2)
        report = verify_clifford(spec).to_json()
        assert {f["identity"] for f in report["failures"]} \
            == {"anticommutator_A_Astar", "anticommutator_A_A"}
        assert report == clifford_by_public_functions(spec).to_json()

    def test_exp_failures_match_the_public_functions(self, monkeypatch):
        # The z^1 row of E^+_+ on the Fock vacuum, doubled; the rows built
        # on it are cached, so the cache is cleared around the patch.
        table = fock._e_coeff_monomial
        table.cache_clear()
        monkeypatch.setattr(fock, "_e_coeff_monomial",
                            doubling(fock, "_e_coeff_monomial",
                                     ("+", "+", 1, ())))
        try:
            spec = CheckSpec(mode_bound=1, max_twice_deg=4)
            report = verify_e_identities(spec).to_json()
            want = exp_suite_by_public_functions(spec).to_json()
        finally:
            table.cache_clear()
        assert {f["identity"] for f in report["failures"]} \
            == {"unit_product", "commute_sub_plus",
                "swap_minus_plus_same_sup", "derivative_identity"}
        assert report == want


class TestCharacter:
    def test_low_degrees(self):
        tab = character(4)
        assert tab["V"][0] == {"twice_degree": 0, "enumerated": 1,
                               "formula": 1}
        assert tab["V"][1] == {"twice_degree": 1, "enumerated": 2,
                               "formula": 2}

    def test_matches_through_twelve(self):
        tab = character(12)
        assert character_matches(tab)

    def test_omega_has_no_fock_factor(self):
        tab = character(8)
        # Vacuum-space counts never exceed the full counts.
        for rv, ro in zip(tab["V"], tab["Omega"]):
            assert ro["enumerated"] <= rv["enumerated"]
        assert character_matches(tab)

    def test_charge_symmetry(self):
        tab = character(10)
        by_charge = tab["counts_by_charge"]
        for key, count in by_charge.items():
            p, td = (int(x) for x in key.split(":"))
            assert by_charge[f"{-p}:{td}"] == count

    def test_csv(self):
        text = character_csv(character(4), "V")
        assert text.splitlines()[0] == "twice_degree,enumerated,formula"
        assert text.splitlines()[1] == "0,1,1"

    def test_printed_index_discrepancy_documented(self):
        tab = character(6)
        assert any("m>=0" in note and "factor 4" in note
                   for note in tab["notes"])

    def test_notes_are_a_copy(self):
        # Editing one table's notes must not reach later tables or reports.
        character(2)["notes"].append("edited")
        assert "edited" not in character(2)["notes"]
        assert "edited" not in harness.verify_hwv().notes


class TestProbe:
    def test_probe_reports_and_passes(self):
        r = d_homogeneity_probe(CheckSpec(mode_bound=1, max_twice_deg=4,
                                          charge_bound=1))
        assert r.passed  # informational: passing means the probe ran
        stats = r.extra["residual_stats"]
        assert stats  # grouped by operator and charge
        # The Heisenberg grading is exactly homogeneous by construction.
        for key, val in stats.items():
            if key.startswith("H,"):
                assert val["nonzero_residuals"] == 0

    def test_probe_sees_charge_dependence(self):
        # The raising field is not degree-homogeneous on this tensor
        # product; the probe must detect nonzero residuals somewhere.
        r = d_homogeneity_probe(CheckSpec(mode_bound=1, max_twice_deg=4,
                                          charge_bound=1))
        stats = r.extra["residual_stats"]
        assert any(val["nonzero_residuals"] > 0
                   for key, val in stats.items() if key.startswith("X,"))


def test_failure_is_recorded_not_swallowed():
    r = harness.Report("demo", {})
    r.check("identity", [1], "basis", rep.v0())
    r.check("identity", [2], "basis", rep.State.zero())
    assert not r.passed and r.checks_run == 2
    failure, = r.to_json()["failures"]
    assert failure["identity"] == "identity"
    assert failure["residual"] == rep.state_to_json(rep.v0())
