from fractions import Fraction

from sl2crit.linear import LinearCombination


class Half(Fraction):
    """A Fraction subclass, which the constructor must not store as is."""


def test_coefficients_are_exactly_fraction():
    v = LinearCombination({"a": 3, "b": Half(1, 2), "c": Fraction(-2, 5),
                           "d": 0, "e": Fraction(0)})
    assert v.terms == {"a": 3, "b": Fraction(1, 2), "c": Fraction(-2, 5)}
    assert all(type(c) is Fraction for _, c in v)
