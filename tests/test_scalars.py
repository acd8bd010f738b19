"""The series coefficient and the oscillator pairing scalar of
sl2crit.harness, against series oracles."""

from fractions import Fraction

import pytest
from sl2crit import rep
from sl2crit.harness import binom_series_coeff, contraction_coeff


def mul_series(a, b, order):
    """Truncated product of coefficient lists."""
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[:order + 1]):
        for j, bj in enumerate(b[:order + 1 - i]):
            out[i + j] += ai * bj
    return out


class TestBinomSeriesCoeff:
    # zalg._gencom_basis uses these two series as the int weights
    # 1, -1 (opposite signs) and 1, 1, ... (equal signs).
    def test_finite_binomial(self):
        assert [binom_series_coeff(1, k) for k in range(10)] \
            == [1, -1] + [0] * 8

    def test_geometric(self):
        for k in range(10):
            assert binom_series_coeff(-1, k) == 1

    def test_negative_three_against_product_oracle(self):
        # Multiply the candidate series by (1 - x) three times; the result
        # must be 1 through order 12.
        order = 12
        series = [binom_series_coeff(-3, k) for k in range(order + 1)]
        one_minus_x = [Fraction(1), Fraction(-1)] + [Fraction(0)] * (order - 1)
        prod = series
        for _ in range(3):
            prod = mul_series(prod, one_minus_x, order)
        assert prod[0] == 1
        assert all(c == 0 for c in prod[1:])

    def test_negative_three_closed_form(self):
        from math import comb
        for j in range(13):
            assert binom_series_coeff(-3, j) == comb(j + 2, 2)

    def test_convolution_is_delta(self):
        # (1-x)^1 times (1-x)^{-1} is 1.
        order = 10
        e1 = [binom_series_coeff(1, k) for k in range(order + 1)]
        em1 = [binom_series_coeff(-1, k) for k in range(order + 1)]
        prod = mul_series(e1, em1, order)
        assert prod == [1] + [0] * order

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            binom_series_coeff(2, -1)


class TestContractionCoeff:
    def test_examples(self):
        assert contraction_coeff(3, -3) == -2
        assert contraction_coeff(1, -1) == 0
        assert contraction_coeff(-3, 3) == 0

    def test_mode_three_halves_from_series_oracle(self):
        # -2zw/(z-w)^3 = -2 sum_j C(j+2,2) z^{-j-2} w^{j+1} in |z| > |w|;
        # read off z^{-m-1/2} w^{-n-1/2} for m = 3/2, n = -3/2, i.e. j = 0.
        val = Fraction(-2) * binom_series_coeff(-3, 0)
        assert contraction_coeff(3, -3) == val

    def test_two_regions_sum_to_anticommutator(self):
        for t in range(-11, 12, 2):
            total = contraction_coeff(t, -t) + contraction_coeff(-t, t)
            assert total == -(Fraction(t, 2) ** 2 - Fraction(1, 4))

    def test_rejects_integer_modes(self):
        with pytest.raises(ValueError):
            contraction_coeff(2, -2)


def test_rational_serialization():
    s = (rep.basis_state(coeff=Fraction(-3, 4))
         + rep.basis_state((1,), coeff=Fraction(10, 2)))
    coeffs = [t["coeff"] for t in rep.state_to_json(s)["terms"]]
    assert coeffs == ["-3/4", "5"]
