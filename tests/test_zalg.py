import hashlib
import json
from fractions import Fraction

import pytest

from sl2crit import fock, rep, wedge, zalg
from sl2crit.harness import state_basis, wedge_bases_up_to
from sl2crit.zalg import (NotInVacuumSpace, OmegaState, gen_commutator,
                          omega_basis, omega_embed, omega_project,
                          z_act_full, zop_via_definition)


class TestModedOperators:
    def test_zplus_zero_on_vacuum(self):
        # Mode -1/2 would duplicate the fixed factor: annihilated.
        assert z_act_full("+", 0, omega_basis()).is_zero()

    def test_zplus_minus_one_on_vacuum(self):
        want = omega_basis(wedge.WedgeBasis((-3,), ()), 1, -2)
        assert z_act_full("+", -1, omega_basis()) == want

    def test_zplus_matches_raising_component(self):
        got = omega_embed(z_act_full("+", -1, omega_basis()))
        assert got == rep.x_act(-1, rep.v0())

    def test_zminus_edge_cases_on_vacuum(self):
        assert z_act_full("-", 0, omega_basis()).is_zero()
        assert z_act_full("-", 1, omega_basis()).is_zero()

    def test_zminus_minus_one_on_vacuum(self):
        # astar mode -3/2 removes the second word letter: sign -1, scalar
        # -2, net +2 (the literal-word oracle in test_wedge fixes this).
        want = omega_basis(wedge.WedgeBasis((), (3,)), -1, 2)
        assert z_act_full("-", -1, omega_basis()) == want

    def test_charge_shifts(self):
        s = omega_basis(wedge.WedgeBasis((-3,), ()), 1)
        for m in range(-3, 4):
            for (w2, p2), _ in z_act_full("+", m, s):
                assert p2 == 2 and w2.charge == 2
            for (w2, p2), _ in z_act_full("-", m, s):
                assert p2 == 0 and w2.charge == 0


class TestGeneralizedCommutators:
    def test_plus_minus_at_zero_on_vacuum(self):
        assert gen_commutator("+", "-", 0, 0, omega_basis()).is_zero()

    def test_plus_minus_eigenvalue(self):
        # (2p - 2m) delta_{m+n,0} on charge eigenstates.
        for p in (-2, 0, 1):
            for w in (wedge.VACUUM, wedge.WedgeBasis((-3,), (5,))):
                s = omega_basis(w, p)
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        got = gen_commutator("+", "-", m, n, s)
                        want = s.scale(2 * p - 2 * m) if m + n == 0 \
                            else OmegaState.zero()
                        assert got == want, (p, w, m, n)

    def test_example_value(self):
        s = omega_basis()
        assert gen_commutator("+", "-", 1, -1, s) == s.scale(-2)

    def test_same_sign_vanish_with_certified_termination(self):
        for p in (-1, 0, 2):
            for w in (wedge.VACUUM, wedge.WedgeBasis((-5,), ()),
                      wedge.WedgeBasis((), (3, 7))):
                s = omega_basis(w, p)
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        assert gen_commutator("+", "+", m, n, s).is_zero()
                        assert gen_commutator("-", "-", m, n, s).is_zero()

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError):
            gen_commutator("+", "x", 0, 0, omega_basis())


SIGN_PAIRS = [("+", "-"), ("-", "+"), ("+", "+"), ("-", "-")]


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
        out = [gen_commutator(s1, s2, m, n, omega_basis(w, p))
               for s1, s2 in SIGN_PAIRS
               for w in wedge_bases_up_to(4)
               for p in range(-2, 3)
               for m in range(-3, 4)
               for n in range(-3, 4)]
        assert len(out) == 20580
        assert codec_digest(out) == (
            "42f5865c19b2aa8c5b118a22854ba5cc49b8d700c553a86192b5ed24c05def6d")

    def test_multi_term_state_digest(self):
        # Non-unit Fraction coefficients: linearity in the input state.
        s = (omega_basis(wedge.WedgeBasis((), (9,)), 1, Fraction(2, 3))
             + omega_basis(wedge.WedgeBasis((-7, -3), ()), -1,
                           Fraction(-5, 4))
             + omega_basis(wedge.WedgeBasis((-3,), (5,)), 0, Fraction(7, 2)))
        out = [gen_commutator(s1, s2, m, n, s)
               for s1, s2 in SIGN_PAIRS
               for m in range(-3, 4)
               for n in range(-3, 4)]
        assert sum(map(len, out)) > 0
        assert codec_digest(out) == (
            "d30bf7618aa2240c33ecec3210ce595e6c16909e4f407f21d2dba639b6891a7e")


class TestExactTermination:
    """A same-sign series ends at k = max _reach - min(m, n): every later
    term applies a mode above the reach first."""

    @staticmethod
    def pair_on_state(sg, j1, j2, s):
        """Z^sg(j1) Z^sg(j2) on the state s, as a dict without zeros."""
        out = {}
        for key, c in s:
            term = zalg._pair_term(sg, sg, j1, j2, key)
            if term:
                out[term[0]] = out.get(term[0], 0) + c * term[1]
        return {key: c for key, c in out.items() if c}

    @staticmethod
    def tail_is_zero(sg, m, n, key, kmax):
        return not any(zalg._pair_term(sg, sg, m - k, n + k, key)
                       or zalg._pair_term(sg, sg, n - k, m + k, key)
                       for k in range(kmax + 1, kmax + 9))

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

    def test_multi_term_state_bound_is_the_largest_reach(self):
        terms = [omega_basis(wedge.WedgeBasis((), (9,)), 1),
                 omega_basis(wedge.WedgeBasis((-7, -3), ()), -1, 2),
                 omega_basis(wedge.VACUUM, 0, -1)]
        s = sum(terms, OmegaState.zero())
        for sg, want in [("+", [6, -2, -1]), ("-", [-2, 5, -1])]:
            reaches = [zalg._reach(sg, w, p) for t in terms for (w, p), _ in t]
            assert reaches == want
            for m in range(-3, 4):
                for n in range(-3, 4):
                    kmax = max(reaches) - min(m, n)
                    assert all(self.tail_is_zero(sg, m, n, key, kmax)
                               for key, _ in s)
                    # The last term kept is not zero: the bound is attained.
                    assert (self.pair_on_state(sg, m - kmax, n + kmax, s)
                            or self.pair_on_state(sg, n - kmax, m + kmax, s))


class TestDefinitionEquivalence:
    def test_matches_closed_form_on_window(self):
        for w in wedge_bases_up_to(3):
            for p in (-2, -1, 0, 1, 2):
                s = omega_basis(w, p)
                emb = omega_embed(s)
                for m in range(-3, 4):
                    assert zop_via_definition("+", m, emb) \
                        == omega_embed(z_act_full("+", m, s)), ("+", w, p, m)
                    assert zop_via_definition("-", m, emb) \
                        == omega_embed(z_act_full("-", m, s)), ("-", w, p, m)

    def test_z_plus_zero_on_embedded_vacuum(self):
        assert zop_via_definition("+", 0, rep.v0()).is_zero()

    def test_commutes_with_heisenberg_on_dressed_state(self):
        # The centralizer property holds on states with a nontrivial Fock
        # factor, where the exponential dressing actually matters.
        s = rep.basis_state((2, 1), wedge.WedgeBasis((-3,), ()), 0)
        for n in (-2, -1, 1, 2, 3):
            for m in range(-2, 3):
                for sg in "+-":
                    lhs = rep.h_act_full(n, zop_via_definition(sg, m, s))
                    rhs = zop_via_definition(sg, m, rep.h_act_full(n, s))
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
                        lhs = rep.h_act_full(n, zop_via_definition(sg, m, s))
                        rhs = zop_via_definition(sg, m, rep.h_act_full(n, s))
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
                    assert zalg.z_act_full(sg, m, s) \
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
    lambda sg: gen_commutator(sg, "+", 0, 0, omega_basis()),
    lambda sg: zop_via_definition(sg, 0, rep.v0()),
    lambda sg: zalg.z_act_full(sg, 0, rep.v0()),
], ids=["e_coeff", "gen_commutator", "zop_via_definition", "z_act_full"])
def test_sign_outside_plus_minus_rejected(call, bad):
    # "" and "+-" are substrings of "+-", so only a membership test in
    # ("+", "-") rejects them.
    with pytest.raises(ValueError):
        call(bad)


def test_z_basis_cache_is_bounded():
    assert rep._z_basis.cache_info().maxsize is not None


def test_vertex_cache_is_bounded():
    assert fock._vertex_monomial.cache_info().maxsize is not None


class TestVacuumSpaceMaps:
    def test_embed_project_round_trip(self):
        s = (omega_basis(wedge.WedgeBasis((-3,), ()), 1, Fraction(2, 3))
             + omega_basis())
        assert omega_project(omega_embed(s)) == s

    def test_project_v0(self):
        assert omega_project(rep.v0()) == omega_basis()

    def test_project_rejects_fock_factor(self):
        with pytest.raises(NotInVacuumSpace):
            omega_project(rep.basis_state((1,), wedge.VACUUM, 0))

    def test_embedded_states_are_heisenberg_vacua(self):
        s = omega_basis(wedge.WedgeBasis((-5, -3), (3,)), -1)
        for n in range(1, 5):
            assert rep.h_act_full(n, omega_embed(s)).is_zero()


def test_omega_serialization_round_trip():
    s = omega_basis(wedge.WedgeBasis((-3,), (5,)), -2, Fraction(-1, 4))
    assert rep.state_from_json(rep.state_to_json(s), OmegaState) == s
    assert "fock" not in rep.state_to_json(s)["terms"][0]


def test_omega_state_refuses_fock_factor():
    term = rep.state_to_json(omega_basis())["terms"][0]
    empty = {"terms": [{**term, "fock": []}]}
    assert rep.state_from_json(empty, OmegaState) == omega_basis()
    with pytest.raises(ValueError, match="term 0 .* Fock factor"):
        rep.state_from_json({"terms": [{**term, "fock": [2]}]}, OmegaState)
