"""Restricted semi-infinite wedge space and the Clifford-like oscillators.

A basis vector is a perturbation of the fixed vacuum word
u_{-1/2} ^ u_{3/2} ^ u_{5/2} ^ ... : a finite set of extra negative
factors and a finite set of omitted positive factors ("holes").  The slot
-1/2 is always present and 1/2 always absent; both are protected
automatically because the oscillator scalars (m - 1/2) vanish at the
modes that would touch them.

Indices are stored as doubled values (odd ints), and the oscillator modes
m in Z+1/2 are passed the same way, as t = 2m.
"""

from __future__ import annotations

from math import inf
from operator import itemgetter

from .linear import LinearCombination


class WedgeBasis(tuple):
    """Finite encoding of a semi-infinite wedge: the tuple (neg, holes).

    neg: ascending tuple of doubled indices of the extra included factors,
         each <= -3 (value < -1/2).
    holes: ascending tuple of doubled indices of the omitted positive
         factors, each >= 3 (value > 1/2).

    Basis wedges are dict keys in every linear combination; as a tuple a
    wedge hashes and compares in C.
    """

    __slots__ = ()

    def __new__(cls, neg, holes):
        # One pass per tuple: parity and bound of each entry, and strict
        # ascent over the entry before it (the first entry is compared with
        # a sentinel below every valid one).  A bad entry in either tuple
        # is reported before an order defect.
        neg_ascending = holes_ascending = True
        for prev, t in zip((-inf,) + neg, neg):
            if t % 2 == 0 or t > -3:
                raise ValueError(f"bad neg entry {t}/2")
            if t <= prev:
                neg_ascending = False
        for prev, t in zip((1,) + holes, holes):
            if t % 2 == 0 or t < 3:
                raise ValueError(f"bad hole entry {t}/2")
            if t <= prev:
                holes_ascending = False
        if not neg_ascending:
            raise ValueError("neg must be strictly ascending")
        if not holes_ascending:
            raise ValueError("holes must be strictly ascending")
        return tuple.__new__(cls, (neg, holes))

    neg = property(itemgetter(0))
    holes = property(itemgetter(1))

    def __repr__(self):
        return f"WedgeBasis(neg={self.neg!r}, holes={self.holes!r})"

    def supports(self, t):
        """Is the odd doubled index t in the support of this wedge?"""
        if t < -1:
            return t in self.neg
        return t == -1 or (t > 1 and t not in self.holes)

    def support_below(self, t):
        """Number of support elements strictly below odd doubled index t."""
        count = sum(1 for s in self.neg if s < t)
        if t > -1:
            count += 1
        if t > 3:
            count += (t - 3) // 2 - sum(1 for s in self.holes if s < t)
        return count

    @property
    def charge(self):
        return len(self.neg) - len(self.holes)

    def degree(self):
        """Nonnegative integer grade: sum of depths of perturbations."""
        return (sum((-t - 1) // 2 for t in self.neg)
                + sum((t - 1) // 2 for t in self.holes))


VACUUM = WedgeBasis((), ())


class WedgeElement(LinearCombination):
    """Finite rational combination of wedge basis vectors."""


def own_modes(sign, w):
    """The modes t = 2m at which A(m) (sign +1) or A*(m) (sign -1) undoes a
    perturbation of w: A fills a hole, A* removes an extra negative factor
    u_{-m}.  Every other mode that acts has t <= -3."""
    return w.holes if sign > 0 else tuple(-s for s in w.neg)


def flip(sign, t, w):
    """A(m) (sign +1) or A*(m) (sign -1), m = t/2, on a basis wedge: A
    inserts u_m and A* removes u_{-m}, times (m - 1/2), reordered into
    canonical form.  Returns (new wedge, int coefficient): the scalar
    (t - 1)/2 is an integer because t is odd.  Returns None when the result
    is zero: at t = 1, or when u_m is present (A) or u_{-m} absent (A*)."""
    if t % 2 == 0:
        raise ValueError("mode must lie in Z+1/2")
    r = sign * t
    if t == 1 or w.supports(r) != (sign < 0):
        return None
    c = (t - 1) // 2
    if w.support_below(r) % 2:
        c = -c
    if r < -1:
        return WedgeBasis(tuple(sorted(set(w.neg) ^ {r})), w.holes), c
    return WedgeBasis(w.neg, tuple(sorted(set(w.holes) ^ {r}))), c


def _mode_kernel(sign, t, w):
    """A(m) (sign +1) or A*(m) (sign -1), m = t/2, on a basis wedge: the
    (wedge, int) pair of flip, if any, over den 1."""
    term = flip(sign, t, w)
    return ((term,) if term else ()), 1


def apply_mode(kind, t, elem):
    """A(m) ("A") or A*(m) ("A*") on a WedgeElement: the linear extension
    of _mode_kernel."""
    sign = {"A": 1, "A*": -1}[kind]
    return elem.map_basis(lambda w: _mode_kernel(sign, t, w))


def serialize_basis(w):
    return {
        "neg": [f"{t}/2" for t in w.neg],
        "holes": [f"{t}/2" for t in w.holes],
    }


def _parse_label(s):
    """Doubled index of a wedge label "t/2"; WedgeBasis checks that t is
    odd."""
    num, slash, den = s.partition("/")
    if not slash or int(den) != 2:
        raise ValueError(f"not a half-integer label: {s!r}")
    return int(num)


def parse_basis(data):
    """Inverse of serialize_basis; a missing key is an empty list, and
    malformed input, an unknown key included, raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"wedge must be an object: {data!r}")
    if not data.keys() <= {"neg", "holes"}:
        raise ValueError(f"wedge keys are neg and holes: {data!r}")
    labels = [data.get("neg", []), data.get("holes", [])]
    if any(not isinstance(ls, list) or any(not isinstance(s, str) for s in ls)
           for ls in labels):
        raise ValueError(f"wedge labels must be lists of strings: {data!r}")
    neg, holes = (tuple(sorted(_parse_label(s) for s in ls)) for ls in labels)
    return WedgeBasis(neg, holes)
