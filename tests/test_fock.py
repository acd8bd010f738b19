import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2crit import fock
from sl2crit.fock import ONE, FockElement, e_coeff, h_act, monomial


def basis(*parts):
    return FockElement.basis(monomial(*parts))


class TestHeisenbergAction:
    def test_annihilation_on_single_mode(self):
        # H(3) on H(-3).1 gives -12.
        assert h_act(3, basis(3)) == ONE.scale(-12)

    def test_annihilates_vacuum(self):
        assert not h_act(5, ONE)

    def test_second_derivative_matches_leibniz_oracle(self):
        # [H(1), H(-1)] = 2*1*c = -4 applied twice via Leibniz on
        # H(-1)^2 . 1: H(1) H(-1)^2 = -4*2 H(-1).
        assert h_act(1, basis(1, 1)) == basis(1).scale(-8)

    def test_creation(self):
        assert h_act(-2, basis(3)) == basis(3, 2)

    def test_rejects_zero_mode(self):
        with pytest.raises(ValueError):
            h_act(0, ONE)

    def test_commutator_on_degree_window(self):
        # [H(m), H(n)] = -4m delta_{m+n,0} on all monomials of degree <= 4
        # for |m|, |n| <= 4.
        monos = [m for d in range(5) for m in fock._partitions(d)]
        for mono in monos:
            v = FockElement.basis(mono)
            for m in range(-4, 5):
                if m == 0:
                    continue
                for n in range(-4, 5):
                    if n == 0:
                        continue
                    comm = h_act(m, h_act(n, v)) - h_act(n, h_act(m, v))
                    want = v.scale(-4 * m) if m + n == 0 else FockElement.zero()
                    assert comm == want, (mono, m, n)


class TestExponentialCoefficients:
    def test_constant_term_is_identity(self):
        v = basis(2, 1)
        for sup in "+-":
            for sub in "+-":
                assert e_coeff(sup, sub, 0, v) == v

    def test_first_creation_coefficient(self):
        assert e_coeff("+", "+", 1, ONE) == basis(1).scale(Fraction(-1, 2))
        assert e_coeff("-", "+", 1, ONE) == basis(1).scale(Fraction(1, 2))

    def test_first_annihilation_coefficient(self):
        # z^{-1} term of the '+' annihilation exponential is H(1)/2;
        # H(1) H(-1).1 = -4.
        assert e_coeff("+", "-", -1, basis(1)) == ONE.scale(-2)

    def test_wrong_sign_coefficients_rejected(self):
        with pytest.raises(ValueError):
            e_coeff("+", "+", -1, ONE)
        with pytest.raises(ValueError):
            e_coeff("+", "-", 1, ONE)

    def test_creation_degree_two_against_exp_expansion(self):
        # z^2 coefficient of exp(-(H(-1) z + H(-2)/4 z^2 + ...)):
        # H(-1)^2/8 ... with c_1 = -1/2, c_2 = -1/4:
        # c_2 H(-2) + c_1^2/2 H(-1)^2.
        got = e_coeff("+", "+", 2, ONE)
        want = (basis(2).scale(Fraction(-1, 4))
                + basis(1, 1).scale(Fraction(1, 8)))
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=4), max_size=3),
           st.integers(min_value=0, max_value=4))
    def test_unit_product_property(self, parts, j):
        # sum_k E^+_+[k] E^-_+[j-k] = delta_{j,0} on any monomial.
        v = basis(*parts)
        total = sum((e_coeff("+", "+", k, e_coeff("-", "+", j - k, v))
                     for k in range(j + 1)), FockElement.zero())
        assert total == (v if j == 0 else FockElement.zero())

    def test_annihilation_vanishes_beyond_degree(self):
        assert not e_coeff("+", "-", -3, basis(2))

    def test_coefficient_table_is_pinned(self):
        # Every coefficient for both superscripts and subscripts, |k| <= 10,
        # on all monomials of degree <= 8 (2,948 rows), against the digest
        # of the partition-sum expansion of the exponentials.
        rows = []
        for f in range(9):
            for mono in fock._partitions(f):
                for sup in "+-":
                    for sub, ks in (("+", range(11)),
                                    ("-", range(0, -11, -1))):
                        for k in ks:
                            terms = fock._e_coeff_monomial(sup, sub, k, mono)
                            rows.append([sup, sub, k, list(mono), sorted(
                                [list(m), str(Fraction(c, fock._e_den(k)))]
                                for m, c in terms)])
        assert len(rows) == 2948
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == ("993007ad95fcad560c0dde2834a9899e"
                          "b7cf5251220ebbfa6d00da7de5b4238d")


class TestIntegerView:
    def test_scaled_table_is_integral(self):
        # Same range as the pinned table: every scaled coefficient is a
        # nonzero int.
        for f in range(9):
            for mono in fock._partitions(f):
                for sup in "+-":
                    for sub, ks in (("+", range(11)),
                                    ("-", range(0, -11, -1))):
                        for k in ks:
                            got = fock._e_coeff_monomial(sup, sub, k, mono)
                            assert all(type(c) is int and c for _, c in got)

    def test_vertex_rows_are_the_exponential_products(self):
        # Gamma_k = sum over k1 - k2 = k of E_+(k1) E_-(-k2), read as
        # Fractions over its den, on every monomial of degree <= 6; rows
        # hold nonzero ints only, and the den is _e_den(deg + k) even where
        # the row is empty.
        rows = 0
        for f in range(7):
            for mono in fock._partitions(f):
                v = FockElement.basis(mono)
                for sup in "+-":
                    for k in range(-f - 1, 5):
                        got, den = fock._vertex_monomial(sup, k, mono)
                        assert all(type(c) is int and c for _, c in got)
                        assert den == fock._e_den(f + k)
                        want = sum((e_coeff(sup, "+", k2 + k,
                                            e_coeff(sup, "-", -k2, v))
                                    for k2 in range(max(0, -k), f + 1)),
                                   FockElement.zero())
                        assert FockElement({m: Fraction(c, den)
                                            for m, c in got}) == want
                        rows += bool(got)
        assert rows > 300

    def test_denominators(self):
        assert [fock._e_den(k) for k in (-3, 0, 1, 2, 3)] == [1, 1, 2, 8, 48]

    def test_non_integral_scaled_value_raises(self, monkeypatch):
        # With every H(n) sending a monomial to H(-1) times 1, the z^-1
        # annihilation sum is 1, which 2|k| = 2 does not divide.
        monkeypatch.setattr(fock, "_h_act_monomial",
                            lambda n, mono: [((1,), 1)])
        fock._e_coeff_monomial.cache_clear()
        try:
            with pytest.raises(ArithmeticError):
                fock._e_coeff_monomial("+", "-", -1, (7,))
        finally:
            fock._e_coeff_monomial.cache_clear()

    @pytest.mark.parametrize("sub", "+-")
    @pytest.mark.parametrize("sup", "+-")
    def test_fraction_view_is_linear(self, sup, sub):
        # Coefficients with denominators 3, 4 and 2 against the termwise
        # sum of the table rows over _e_den(k).
        coeffs = {(): Fraction(2, 3), (2, 1): Fraction(-5, 4),
                  (3,): Fraction(7, 2)}
        v = FockElement(coeffs)
        for k in range(1, 5):
            k = k if sub == "+" else -k
            want = {}
            for mono, c in coeffs.items():
                for m, c2 in fock._e_coeff_monomial(sup, sub, k, mono):
                    want[m] = want.get(m, 0) + c * Fraction(
                        c2, fock._e_den(k))
            assert e_coeff(sup, sub, k, v) == FockElement(want)


def test_monomial_canonical_form():
    assert monomial(1, 3, 1) == (3, 1, 1)
    assert fock.parse_monomial([3, 1, 1]) == (3, 1, 1)
    with pytest.raises(ValueError):
        monomial(0)
