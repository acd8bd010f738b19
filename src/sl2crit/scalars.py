"""Exact scalar arithmetic: series coefficients and the oscillator pairing
scalar.

Every kernel and cached table holds ints; `Fraction`s appear only as the
coefficients of combinations and the scalars that scale them, as here.
Nothing is ever floating point.  Oscillator modes in Z+1/2 are passed as
their doubled value t (an odd int), as `wedge.WedgeBasis` stores its
indices, so that index arithmetic stays in plain machine integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


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


def contraction_coeff(t, u):
    """Pairing scalar of the oscillator pair at doubled modes (t, u), in the
    |z|>|w| region.

    Nonzero only when t + u = 0 with t > 0, where it equals -(m^2 - 1/4)
    for m = t/2, that is (1 - t^2)/4.
    """
    if t % 2 == 0 or u % 2 == 0:
        raise ValueError("modes must lie in Z+1/2")
    if t + u == 0 and t > 0:
        return Fraction(1 - t * t, 4)
    return Fraction(0)
