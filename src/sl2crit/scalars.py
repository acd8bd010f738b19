"""Exact scalar arithmetic: rationals, half-integer indices, series coefficients.

All coefficients in the library are `fractions.Fraction`; nothing here is
ever floating point.  Half-integers are stored as their doubled value so
that index arithmetic stays in plain machine integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import factorial


@total_ordering
class HalfInt:
    """An element of (1/2)Z, stored as twice its value.

    Wedge labels and the mode indices of the oscillators live in Z+1/2
    (odd `twice`); ordinary integers have even `twice`.
    """

    __slots__ = ("twice",)

    def __init__(self, twice):
        if not isinstance(twice, int):
            raise TypeError("twice must be an int")
        object.__setattr__(self, "twice", twice)

    def __setattr__(self, name, value):
        raise AttributeError("HalfInt is immutable")

    @classmethod
    def from_string(cls, s):
        """Parse "3/2", "-11/2" or a plain integer literal like "4"."""
        s = s.strip()
        if "/" in s:
            num, den = s.split("/")
            num, den = int(num), int(den)
            if den == 2:
                return cls(num)
            if den == 1:
                return cls(2 * num)
            raise ValueError(f"not a half-integer literal: {s!r}")
        return cls(2 * int(s))

    @property
    def is_half_odd(self):
        """True iff the value lies in Z+1/2."""
        return self.twice % 2 != 0

    def as_fraction(self):
        return Fraction(self.twice, 2)

    def __add__(self, other):
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other):
        return HalfInt(self.twice - other.twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __eq__(self, other):
        return isinstance(other, HalfInt) and self.twice == other.twice

    def __lt__(self, other):
        return self.twice < other.twice

    def __hash__(self):
        return hash(("HalfInt", self.twice))

    def __str__(self):
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self.twice}/2)"


def half(twice):
    """Shorthand constructor: half(3) is 3/2."""
    return HalfInt(twice)


def format_rational(x):
    """Serialize a Fraction as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def binom_series_coeff(e, k):
    """Coefficient of x^k in the expansion of (1-x)^e about x = 0.

    `e` may be any integer; for e < 0 the series is infinite and this
    returns its k-th coefficient.  The result is (-1)^k C(e, k) with the
    generalized binomial coefficient.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    num = 1
    for i in range(k):
        num *= e - i
    return Fraction((-1) ** k * num, factorial(k))


def contraction_coeff(m, n):
    """Pairing scalar of the oscillator pair at modes (m, n), |z|>|w| region.

    Nonzero only when m + n = 0 with m > 0, where it equals -(m^2 - 1/4).
    """
    if not (m.is_half_odd and n.is_half_odd):
        raise ValueError("modes must lie in Z+1/2")
    if m.twice + n.twice == 0 and m.twice > 0:
        mv = m.as_fraction()
        return -(mv * mv - Fraction(1, 4))
    return Fraction(0)
