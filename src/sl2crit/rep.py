"""The level -2 module V = Fock ⊗ restricted wedge ⊗ lattice and the exact
component actions of the affine generators on it.

The raising/lowering fields act through a finite triple sum (creation
exponential coefficient, annihilation exponential coefficient, oscillator
mode).  Every bound in the sums is exact: the annihilation depth is capped
by the Fock degree of the term, the oscillator modes by the term's holes
and the nonnegativity of the creation index, so no heuristic cutoff is
involved.

The lattice z-power reads the charge of the *input* term; this ordering is
what reproduces the ground-truth values of the simple lowering operators
on the two canonical highest weight vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import fock, wedge
from .linear import LinearCombination, accumulate


class State(LinearCombination):
    """Finite rational combination of (Fock monomial, wedge, charge) triples."""


def basis_state(fockmono=(), wedgebasis=wedge.VACUUM, charge=0, coeff=1):
    return State.basis((tuple(fockmono), wedgebasis, charge), coeff)


def v0():
    """Highest weight vector at charge 0: 1 ⊗ vacuum wedge ⊗ e^0."""
    return basis_state()


def v1():
    """Highest weight vector at charge -1: 1 ⊗ vacuum wedge ⊗ e^{-alpha}."""
    return basis_state(charge=-1)


# The lattice factor: charge p stands for e^{p*alpha}, and (alpha, alpha) = 2
# fixes both eigenvalues below.

def alpha0_eig(p):
    """Eigenvalue of the zero mode alpha(0) = H(0) on e^{p*alpha}."""
    return 2 * p


def lattice_d_eig(p):
    """Eigenvalue of the derivation d on e^{p*alpha}: -(p*alpha, p*alpha)/4."""
    return Fraction(-p * p, 2)


class NotAWeightVector(ValueError):
    """Raised when a state is not a simultaneous h0/h1/d eigenvector."""


@dataclass(frozen=True)
class WeightTriple:
    h0: Fraction
    h1: Fraction
    d: Fraction


def _field_basis(sign, m, fockmono, w, p):
    """X(m) (sign +1) or Y(m) (sign -1) on a basis triple; returns
    ((key, coeff), ...).

    Both fields are an oscillator dressed by the two exponentials and a
    lattice shift by sign*alpha: X uses A and the '+' exponentials, Y uses
    A* and the '-' ones.  The oscillator modes that act nontrivially are
    the `own` perturbations (holes for A, negated extra negatives for A*)
    and every t <= -3 not in `other` (extra negatives for A, negated
    holes for A*).
    """
    if sign > 0:
        sup, act, own, other = "+", wedge.a_act, w.holes, w.neg
    else:
        sup, act = "-", wedge.astar_act
        own = tuple(-s for s in w.neg)
        other = tuple(-s for s in w.holes)
    sp = sign * p
    out = {}
    for k2 in range(sum(fockmono) + 1):
        ann = fock._e_coeff_monomial(sup, "-", -k2, fockmono)
        if not ann:
            continue
        # z-exponent balance: k1 - k2 - (t+1)/2 - sign*p = -m with k1 >= 0.
        tmin = 2 * (m - sp - k2) - 1
        modes = [t for t in own if t >= tmin]
        modes.extend(t for t in range(-3, tmin - 1, -2) if t not in other)
        for t in modes:
            welem = act(t, w)
            if not welem:
                continue
            k1 = k2 + (t + 1) // 2 + sp - m
            for mono1, c1 in ann:
                for mono2, c2 in fock._e_coeff_monomial(sup, "+", k1, mono1):
                    for w2, cw in welem:
                        accumulate(out, (mono2, w2, p + sign), c1 * c2 * cw)
    return tuple(out.items())


@lru_cache(maxsize=None)
def _x_basis(m, fockmono, w, p):
    return _field_basis(1, m, fockmono, w, p)


@lru_cache(maxsize=None)
def _y_basis(m, fockmono, w, p):
    return _field_basis(-1, m, fockmono, w, p)


def x_act(m, s):
    return s.map_basis(lambda key: _x_basis(m, *key))


def y_act(m, s):
    return s.map_basis(lambda key: _y_basis(m, *key))


@lru_cache(maxsize=None)
def _h_basis(n, fockmono, w, p):
    if n == 0:
        return (((fockmono, w, p), Fraction(alpha0_eig(p))),)
    felem = fock.h_act(n, fock.FockElement.basis(fockmono))
    return tuple(((mono, w, p), c) for mono, c in felem)


def h_act_full(n, s):
    """H(n) on V: the Fock Heisenberg for n != 0, the charge eigenvalue 2p
    for n = 0."""
    return s.map_basis(lambda key: _h_basis(n, *key))


def c_act(s):
    return s.scale(-2)


def term_d_eig(fockmono, w, p):
    """d-eigenvalue of a basis triple: -(Fock degree) - (wedge degree)
    - p^2/2."""
    return Fraction(-sum(fockmono)) - w.degree() + lattice_d_eig(p)


def d_act(s):
    return s.map_basis(lambda key: (((key), term_d_eig(*key)),))


def chevalley_act(g, s):
    table = {
        "e0": lambda t: y_act(1, t),
        "e1": lambda t: x_act(0, t),
        "f0": lambda t: x_act(-1, t),
        "f1": lambda t: y_act(0, t),
        "h0": lambda t: c_act(t) - h_act_full(0, t),
        "h1": lambda t: h_act_full(0, t),
    }
    if g not in table:
        raise ValueError(f"unknown generator {g!r}")
    return table[g](s)


def _eigenvalue(op, s):
    res = op(s)
    key, c = next(iter(s.terms.items()))
    lam = res.coeff(key) / c
    if res != s.scale(lam):
        raise NotAWeightVector("state is not an eigenvector")
    return lam


def weight_of(s):
    """Eigenvalue triple (h0, h1, d) of a simultaneous eigenvector."""
    if not s:
        raise NotAWeightVector("zero state has no weight")
    return WeightTriple(
        h0=_eigenvalue(lambda t: chevalley_act("h0", t), s),
        h1=_eigenvalue(lambda t: chevalley_act("h1", t), s),
        d=_eigenvalue(d_act, s),
    )


def key_to_json(key):
    """JSON object of one basis key of a State or an OmegaState; "fock" is
    written only for keys with a Fock factor."""
    out = {"fock": list(key[0])} if len(key) == 3 else {}
    out["wedge"] = wedge.serialize_basis(key[-2])
    out["charge"] = key[-1]
    return out


def state_to_json(s):
    """Canonical JSON of a State or an OmegaState, ordered by degree."""
    def order(key):
        mono, w, p = key if len(key) == 3 else ((),) + key
        return (sum(mono) + w.degree(), p, mono, w.neg, w.holes)

    return {"terms": [{"coeff": str(s.terms[key]),
                       **key_to_json(key)}
                      for key in sorted(s.terms, key=order)]}


def state_from_json(data, cls=State):
    """Inverse of state_to_json for `cls`, State or OmegaState; malformed
    input raises ValueError (a missing field raises KeyError)."""
    terms = data.get("terms") if isinstance(data, dict) else None
    if not isinstance(terms, list) or not all(isinstance(t, dict)
                                              for t in terms):
        raise ValueError('expected {"terms": [term, ...]}')
    out = {}
    for term in terms:
        coeff, charge = term["coeff"], term["charge"]
        if type(coeff) not in (int, str) or type(charge) is not int:
            raise ValueError(f"bad coeff or charge in {term!r}")
        try:
            coeff = Fraction(coeff)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {term!r}") from None
        key = (wedge.parse_basis(term["wedge"]), charge)
        if issubclass(cls, State):
            key = (fock.parse_monomial(term["fock"]),) + key
        accumulate(out, key, coeff)
    return cls(out)
