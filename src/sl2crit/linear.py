"""Finite rational linear combinations over hashable basis keys.

Shared machinery for Fock elements, wedge elements and states.  Zero
coefficients are never stored; equality is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class LinearCombination:
    """Immutable finite map basis-key -> Fraction with vector-space ops."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = coeff if type(coeff) is Fraction else Fraction(coeff)
                if coeff:
                    clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def basis(cls, key, coeff=1):
        return cls({key: Fraction(coeff)})

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def coeff(self, key):
        return self.terms.get(key, Fraction(0))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for key, c in other.terms.items():
            out[key] = get(key, 0) + c
        return type(self)(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def scale(self, scalar):
        scalar = Fraction(scalar)
        if not scalar:
            return type(self).zero()
        return type(self)({k: c * scalar for k, c in self.terms.items()})

    def map_basis(self, fn):
        """Apply a linear map given by an integer kernel on basis keys:
        fn(key) -> (((key2, int), ...), den), den a positive int.  The
        images are summed in ints by one `combine` and divided once per
        output term."""
        parts = []
        for key, c in self.terms.items():
            pairs, den = fn(key)
            parts.append((c.numerator, (pairs, c.denominator * den)))
        sums, lift = combine(parts)
        return type(self)({k: Fraction(v, lift) for k, v in sums.items()})

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0)"
        parts = [f"{c}*{k!r}" for k, c in sorted(
            self.terms.items(), key=lambda kv: repr(kv[0]))]
        return f"{type(self).__name__}({' + '.join(parts)})"


def combine(terms):
    """The sum of scalar * vector over (scalar, (pairs, den)) terms, each
    vector given as (key, int) pairs over a positive int den: one dict
    key -> nonzero int over the lcm of the denominators, as (dict, lcm)."""
    lift = lcm(*[den for _, (_, den) in terms])
    out = {}
    get = out.get
    for scalar, (pairs, den) in terms:
        scalar *= lift // den
        for key, c in pairs:
            out[key] = get(key, 0) + scalar * c
    return {k: c for k, c in out.items() if c}, lift
