from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sl2crit.scalars import (HalfInt, binom_series_coeff, contraction_coeff,
                             format_rational, half)


def mul_series(a, b, order):
    """Truncated product of coefficient lists."""
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[:order + 1]):
        for j, bj in enumerate(b[:order + 1 - i]):
            out[i + j] += ai * bj
    return out


class TestBinomSeriesCoeff:
    def test_finite_binomial(self):
        assert binom_series_coeff(1, 0) == 1
        assert binom_series_coeff(1, 1) == -1
        assert binom_series_coeff(1, 2) == 0

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
        assert contraction_coeff(half(3), half(-3)) == -2
        assert contraction_coeff(half(1), half(-1)) == 0
        assert contraction_coeff(half(-3), half(3)) == 0

    def test_mode_three_halves_from_series_oracle(self):
        # -2zw/(z-w)^3 = -2 sum_j C(j+2,2) z^{-j-2} w^{j+1} in |z| > |w|;
        # read off z^{-m-1/2} w^{-n-1/2} for m = 3/2, n = -3/2, i.e. j = 0.
        val = Fraction(-2) * binom_series_coeff(-3, 0)
        assert contraction_coeff(half(3), half(-3)) == val

    def test_two_regions_sum_to_anticommutator(self):
        for t in range(-11, 12, 2):
            m = half(t)
            total = contraction_coeff(m, -m) + contraction_coeff(-m, m)
            assert total == -(m.as_fraction() ** 2 - Fraction(1, 4))

    def test_rejects_integer_modes(self):
        with pytest.raises(ValueError):
            contraction_coeff(HalfInt(2), HalfInt(-2))


class TestHalfInt:
    def test_parity(self):
        assert half(3).is_half_odd
        assert not HalfInt(4).is_half_odd

    def test_arithmetic_and_order(self):
        assert half(3) + half(-1) == half(2)
        assert -half(3) == half(-3)
        assert half(-3) < half(1)

    def test_string_round_trip(self):
        assert str(half(-11)) == "-11/2"
        assert HalfInt.from_string("-11/2") == half(-11)
        assert HalfInt.from_string("4") == HalfInt(8)

    @given(st.integers(min_value=-1000, max_value=1000))
    def test_parse_format_inverse(self, t):
        assert HalfInt.from_string(str(HalfInt(t))) == HalfInt(t)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            half(3).twice = 5


def test_rational_serialization():
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(5)) == "5"
