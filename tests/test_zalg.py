import hashlib
import json
from fractions import Fraction

import pytest

from sl2crit import fock, rep, wedge, zalg
from sl2crit.harness import state_basis, wedge_bases_up_to
from sl2crit.linear import combine
from sl2crit.rep import State, basis_state
from sl2crit.zalg import gen_commutator, zop_via_definition



class TestModedOperators:
    def test_zplus_zero_on_vacuum(self):
        # Mode -1/2 would duplicate the fixed factor: annihilated.
        assert not rep.act("Z+", 0, rep.v0())

    def test_zplus_minus_one_on_vacuum(self):
        want = basis_state((), wedge.WedgeBasis((-3,), ()), 1, -2)
        assert rep.act("Z+", -1, rep.v0()) == want

    def test_zplus_matches_raising_component(self):
        got = rep.act("Z+", -1, rep.v0())
        assert got == rep.act("X", -1, rep.v0())

    def test_zminus_edge_cases_on_vacuum(self):
        assert not rep.act("Z-", 0, rep.v0())
        assert not rep.act("Z-", 1, rep.v0())

    def test_zminus_minus_one_on_vacuum(self):
        # astar mode -3/2 removes the second word letter: sign -1, scalar
        # -2, net +2 (the literal-word oracle in test_wedge fixes this).
        want = basis_state((), wedge.WedgeBasis((), (3,)), -1, 2)
        assert rep.act("Z-", -1, rep.v0()) == want

    def test_charge_shifts(self):
        s = basis_state((), wedge.WedgeBasis((-3,), ()), 1)
        for m in range(-3, 4):
            for (_, w2, p2), _ in rep.act("Z+", m, s):
                assert p2 == 2 and w2.charge == 2
            for (_, w2, p2), _ in rep.act("Z-", m, s):
                assert p2 == 0 and w2.charge == 0


SIGN_PAIRS = [("+", "-"), ("-", "+"), ("+", "+"), ("-", "-")]


class TestGeneralizedCommutators:
    def test_plus_minus_at_zero_on_vacuum(self):
        assert not gen_commutator("+", "-", 0, 0, rep.v0())

    def test_plus_minus_eigenvalue(self):
        # (2p - 2m) delta_{m+n,0} on charge eigenstates.
        for p in (-2, 0, 1):
            for w in (wedge.VACUUM, wedge.WedgeBasis((-3,), (5,))):
                s = basis_state((), w, p)
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        got = gen_commutator("+", "-", m, n, s)
                        want = s.scale(2 * p - 2 * m) if m + n == 0 \
                            else State.zero()
                        assert got == want, (p, w, m, n)

    def test_example_value(self):
        s = rep.v0()
        assert gen_commutator("+", "-", 1, -1, s) == s.scale(-2)

    def test_same_sign_vanish_with_certified_termination(self):
        for p in (-1, 0, 2):
            for w in (wedge.VACUUM, wedge.WedgeBasis((-5,), ()),
                      wedge.WedgeBasis((), (3, 7))):
                s = basis_state((), w, p)
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        assert not gen_commutator("+", "+", m, n, s)
                        assert not gen_commutator("-", "-", m, n, s)

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError):
            gen_commutator("+", "x", 0, 0, rep.v0())

    # Three monomials and three Ω keys: the vacuum, a wedge with an extra
    # negative factor and a hole, and one of reach 6 under '+'.
    MONOS = [(), (1,), (2, 1)]
    OMEGA_KEYS = [(wedge.VACUUM, 0), (wedge.WedgeBasis((-3,), (5,)), -1),
                  (wedge.WedgeBasis((), (9,)), 1)]

    def test_fock_factor_is_carried_over(self):
        # [Z^s1(m), Z^s2(n)] (mono ⊗ ω) = mono ⊗ [Z^s1(m), Z^s2(n)] ω:
        # the Z-modes act on the Ω factor alone.
        nonzero = 0
        for w, p in self.OMEGA_KEYS:
            omega = basis_state((), w, p)
            for s1, s2 in SIGN_PAIRS:
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        image = gen_commutator(s1, s2, m, n, omega)
                        nonzero += bool(image)
                        for mono in self.MONOS:
                            got = gen_commutator(s1, s2, m, n,
                                                 basis_state(mono, w, p))
                            assert got == State({(mono,) + k[1:]: c
                                                 for k, c in image}), \
                                (mono, w, p, s1, s2, m, n)
        assert nonzero > 0

    def test_relations_with_fock_factor(self):
        # (2p - 2m) delta_{m+n,0} for opposite signs, 0 for equal ones, on
        # mono ⊗ ω.
        for mono in self.MONOS:
            for w, p in self.OMEGA_KEYS:
                s = basis_state(mono, w, p)
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        want = s.scale(2 * p - 2 * m) if m + n == 0 \
                            else State.zero()
                        assert gen_commutator("+", "-", m, n, s) == want, \
                            (mono, w, p, m, n)
                        assert not gen_commutator("+", "+", m, n, s)
                        assert not gen_commutator("-", "-", m, n, s)


def codec_digest(states):
    """SHA-256 of the codec output of a list of states."""
    text = json.dumps([rep.state_to_json(s) for s in states], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedOutput:
    """Digests of gen_commutator output, so that a change of its
    arithmetic shows up as a changed digest."""

    def test_window_digest(self):
        # All four sign pairs, wedge degree <= 4, p in [-2, 2], m, n in
        # [-3, 3].
        out = [gen_commutator(s1, s2, m, n, basis_state((), w, p))
               for s1, s2 in SIGN_PAIRS
               for w in wedge_bases_up_to(4)
               for p in range(-2, 3)
               for m in range(-3, 4)
               for n in range(-3, 4)]
        assert len(out) == 20580
        assert codec_digest(out) == (
            "b31dc317a49520a6c55506c633a271240e62762e6892f9cc2408da539eac24c3")

    def test_multi_term_state_digest(self):
        # Non-unit Fraction coefficients: linearity in the input state.
        s = (basis_state((), wedge.WedgeBasis((), (9,)), 1, Fraction(2, 3))
             + basis_state((), wedge.WedgeBasis((-7, -3), ()), -1,
                           Fraction(-5, 4))
             + basis_state((), wedge.WedgeBasis((-3,), (5,)), 0,
                           Fraction(7, 2)))
        out = [gen_commutator(s1, s2, m, n, s)
               for s1, s2 in SIGN_PAIRS
               for m in range(-3, 4)
               for n in range(-3, 4)]
        assert sum(map(len, out)) > 0
        assert codec_digest(out) == (
            "c1399c4aa1c2c8b79f9058f4ce0b54d816a263f58ce564633c33a325100a2641")


class TestExactTermination:
    """On a basis key (w, p) a same-sign series ends at
    k = _reach(w, p) - min(m, n): every later term applies a mode above
    the reach first.  The series summed term by term past that bound is
    the oracle of the telescoped finite sum that _gencom_basis computes."""

    @staticmethod
    def tail_is_zero(sg, m, n, key, kmax):
        return not any(zalg._pair_term(sg, sg, m - k, n + k, key)
                       or zalg._pair_term(sg, sg, n - k, m + k, key)
                       for k in range(kmax + 1, kmax + 9))

    @staticmethod
    def series(sg, m, n, key, kmax):
        """The same-sign series on key through term kmax, as a dict
        without zeros."""
        out = {}
        for k in range(kmax + 1):
            for term, wt in ((zalg._pair_term(sg, sg, m - k, n + k, key), 1),
                             (zalg._pair_term(sg, sg, n - k, m + k, key), -1)):
                if term:
                    out[term[0]] = out.get(term[0], 0) + wt * term[1]
        return {key: c for key, c in out.items() if c}

    def test_terms_past_the_bound_vanish_on_window(self):
        cases = 0
        for w in wedge_bases_up_to(4):
            for p in range(-2, 3):
                for sg in "+-":
                    kmax0 = zalg._reach(sg, w, p)
                    for m in range(-3, 4):
                        for n in range(-3, 4):
                            assert self.tail_is_zero(
                                sg, m, n, (w, p), kmax0 - min(m, n)), \
                                (sg, w, p, m, n)
                            cases += 1
        assert cases == 10290

    @staticmethod
    def counting_pair_terms(monkeypatch, weight=None):
        """Patch zalg._pair_term to count its calls and nonzero results,
        each result times weight(j1, j2) when a weight is given."""
        counts = {"calls": 0, "nonzero": 0}
        orig = zalg._pair_term

        def counted(s1, s2, j1, j2, key):
            term = orig(s1, s2, j1, j2, key)
            counts["calls"] += 1
            counts["nonzero"] += bool(term)
            if term and weight:
                term = (term[0], term[1] * weight(j1, j2))
            return term
        monkeypatch.setattr(zalg, "_pair_term", counted)
        return counts

    # The telescoping holds for any weight of the products Z(j1) Z(j2),
    # while the same-sign relations hold only for weight 1.  This one is
    # never zero and does not factor through j1 + j2, so the weighted sums
    # show the sign and the modes of every product.
    @pytest.mark.parametrize("weight,nonzero_sums", [
        (None, 0), (lambda j1, j2: (3 * j1 + 1) * (j2 * j2 + 1), 1220)],
        ids=["Z", "weighted"])
    def test_finite_sum_matches_the_series(self, monkeypatch, weight,
                                           nonzero_sums):
        # Every key of wedge_bases_up_to(3) x p in [-2, 2], both signs,
        # m, n in [-3, 3] and three far pairs: the finite sum equals the
        # series summed 8 terms past its bound, and makes at most |m - n|
        # products.
        keys = [(w, p) for w in wedge_bases_up_to(3) for p in range(-2, 3)]
        assert len(keys) == 60
        mn = [(m, n) for m in range(-3, 4) for n in range(-3, 4)]
        mn += [(50, -50), (60, 0), (0, -60)]
        counts = self.counting_pair_terms(monkeypatch, weight)
        products = sums = 0
        for key in keys:
            for sg in "+-":
                reach = zalg._reach(sg, *key)
                for m, n in mn:
                    want = self.series(sg, m, n, key, reach - min(m, n) + 8)
                    calls, nonzero = counts["calls"], counts["nonzero"]
                    got, den = combine([(1, zalg._gencom_basis(
                        sg, sg, m, n, ((),) + key))])
                    assert counts["calls"] - calls <= abs(m - n)
                    products += counts["nonzero"] - nonzero
                    assert den == 1
                    assert {k[1:]: c for k, c in got.items()} == want, \
                        (sg, key, m, n)
                    sums += bool(got)
        # The unweighted sums vanish by cancellation, not for want of
        # products.
        assert products == 9460
        assert sums == nonzero_sums

    def test_far_modes_make_few_products(self, monkeypatch):
        # On the vacuum, of reach -1, the clip leaves no product at all.
        counts = self.counting_pair_terms(monkeypatch)
        assert not gen_commutator("+", "+", 10**9, -10**9, rep.v0())
        assert counts["calls"] <= 2

    def test_each_key_ends_at_its_own_reach(self):
        keys = [(wedge.WedgeBasis((), (9,)), 1),
                (wedge.WedgeBasis((-7, -3), ()), -1),
                (wedge.VACUUM, 0)]
        kept = {}
        for sg, want in [("+", [6, -2, -1]), ("-", [-2, 5, -1])]:
            reaches = [zalg._reach(sg, *key) for key in keys]
            assert reaches == want
            for key, reach in zip(keys, reaches):
                kept[sg, key] = 0
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        kmax = reach - min(m, n)
                        got, den = combine([(1, zalg._gencom_basis(
                            sg, sg, m, n, ((),) + key))])
                        assert den == 1
                        assert {k[1:]: c for k, c in got.items()} \
                            == self.series(sg, m, n, key, kmax + 8)
                        kept[sg, key] += bool(
                            zalg._pair_term(sg, sg, m - kmax, n + kmax, key)
                            or zalg._pair_term(sg, sg, n - kmax, m + kmax,
                                               key))
        # The last term kept is nonzero at every (m, n) on the key of the
        # largest reach, and at none on ({-7/2, -3/2}, -1) under '+'.
        assert kept["+", keys[0]] == kept["-", keys[1]] == 49
        assert kept["+", keys[1]] == 0


class TestDefinitionEquivalence:
    def test_matches_closed_form_on_window(self):
        for w in wedge_bases_up_to(3):
            for p in (-2, -1, 0, 1, 2):
                s = basis_state((), w, p)
                for m in range(-3, 4):
                    assert zop_via_definition("+", m, s) \
                        == rep.act("Z+", m, s), ("+", w, p, m)
                    assert zop_via_definition("-", m, s) \
                        == rep.act("Z-", m, s), ("-", w, p, m)

    def test_z_plus_zero_on_embedded_vacuum(self):
        assert not zop_via_definition("+", 0, rep.v0())

    def test_commutes_with_heisenberg_on_dressed_state(self):
        # The centralizer property holds on states with a nontrivial Fock
        # factor, where the exponential dressing actually matters.
        s = rep.basis_state((2, 1), wedge.WedgeBasis((-3,), ()), 0)
        for n in (-2, -1, 1, 2, 3):
            for m in range(-2, 3):
                for sg in "+-":
                    lhs = rep.act("H", n, zop_via_definition(sg, m, s))
                    rhs = zop_via_definition(sg, m, rep.act("H", n, s))
                    assert lhs == rhs, (sg, n, m)

    @staticmethod
    def commutes_with_heisenberg_on_window(ns):
        """Check [H(n), Z(m)] = 0 for n in ns on every basis triple of
        (4, 1), both signs and m in [-2, 2]; return the number of checks
        whose sides are nonzero."""
        nonzero = 0
        for key in state_basis(4, 1):
            s = rep.State.basis(key)
            for sg in "+-":
                for m in range(-2, 3):
                    for n in ns:
                        lhs = rep.act("H", n, zop_via_definition(sg, m, s))
                        rhs = zop_via_definition(sg, m, rep.act("H", n, s))
                        assert lhs == rhs, (key, sg, m, n)
                        nonzero += bool(lhs)
        return nonzero

    def test_commutes_with_negative_heisenberg_modes(self):
        # [H(n), Z(m)] = 0 for n < 0 too, which the factorization needs.
        assert self.commutes_with_heisenberg_on_window(range(-3, 0)) > 0

    def test_commutes_with_positive_heisenberg_modes(self):
        # The suite's H_commutes_with_Z runs on vacuum-space states, where
        # both sides vanish; here H(n), n = 1..3, meets a Fock factor.
        assert self.commutes_with_heisenberg_on_window(range(1, 4)) > 0

    def test_factorized_matches_definition_on_module(self):
        # 1,350 checks: every basis triple of (8, 2), Fock factor or not.
        for key in state_basis(8, 2):
            s = rep.State.basis(key)
            for sg in "+-":
                for m in range(-2, 3):
                    assert rep.act("Z" + sg, m, s) \
                        == zop_via_definition(sg, m, s), (key, sg, m)


class TestPinnedDefinition:
    """Digests of zop_via_definition output, so that a change of its
    arithmetic shows up as a changed digest."""

    def test_module_window_digest(self):
        # Every basis triple of (8, 2), both signs, m in [-2, 2].
        out = [zop_via_definition(sg, m, rep.State.basis(key))
               for key in state_basis(8, 2)
               for sg in "+-"
               for m in range(-2, 3)]
        assert len(out) == 1350
        assert codec_digest(out) == (
            "8830db6bc2c6ee0543201440b55f3cfda60071951866b75ea429ef262beb9e83")

    def test_multi_term_state_digest(self):
        # Non-unit Fraction coefficients on states with a Fock factor:
        # linearity in the input state.
        s = (rep.basis_state((2, 1), wedge.WedgeBasis((), (5,)), 1,
                             Fraction(2, 3))
             + rep.basis_state((3,), wedge.WedgeBasis((-7, -3), ()), -1,
                               Fraction(-5, 4))
             + rep.basis_state((1, 1), wedge.WedgeBasis((-3,), (5,)), 0,
                               Fraction(7, 2)))
        out = [zop_via_definition(sg, m, s)
               for sg in "+-"
               for m in range(-3, 4)]
        assert sum(map(len, out)) > 0
        assert codec_digest(out) == (
            "7bbccf67b55bbba79d57127d8c69196ea17275d6b852060a7fece34a7ee8956e")


@pytest.mark.parametrize("bad", ["", "+-", "x"])
@pytest.mark.parametrize("call", [
    lambda sg: fock.e_coeff(sg, "+", 1, fock.ONE),
    lambda sg: gen_commutator(sg, "+", 0, 0, rep.v0()),
    lambda sg: zop_via_definition(sg, 0, rep.v0()),
    lambda sg: rep.act("Z" + sg, 0, rep.v0()),
    lambda sg: rep.act("Z" + sg, 0, State.zero()),
], ids=["e_coeff", "gen_commutator", "zop_via_definition", "z_act_full",
        "act-on-zero"])
def test_sign_outside_plus_minus_rejected(call, bad):
    # "" and "+-" are substrings of "+-", so only a membership test in
    # ("+", "-") rejects them.  rep.act refuses "Z", "Z+-" and "Zx" before
    # it reads the state, so the zero state is refused too.
    with pytest.raises(ValueError):
        call(bad)


def test_z_basis_cache_is_bounded():
    assert rep._z_basis.cache_info().maxsize is not None


def test_vertex_cache_is_bounded():
    assert fock._vertex_monomial.cache_info().maxsize is not None


class TestVacuumSpaceMaps:
    def test_embedded_states_are_heisenberg_vacua(self):
        s = basis_state((), wedge.WedgeBasis((-5, -3), (3,)), -1)
        for n in range(1, 5):
            assert not rep.act("H", n, s)


def test_omega_serialization_round_trip():
    s = basis_state((), wedge.WedgeBasis((-3,), (5,)), -2, Fraction(-1, 4))
    assert rep.state_from_json(rep.state_to_json(s)) == s
    assert rep.state_to_json(s)["terms"][0]["fock"] == []
