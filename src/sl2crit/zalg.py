"""Z-operators on the vacuum space and their generalized commutators.

On the vacuum space (trivial Fock factor) each moded Z-operator reduces to
a single oscillator mode per charge sector, because the lattice z-power
contributes a pure monomial.  On the full module a Z-operator acts on the
vacuum-space factor alone (z_act_full).  The basis-level mode _z_basis,
its bound _reach and the Z kernel live in rep, whose X and Y are the same
modes dressed by the Heisenberg exponentials, so one cache serves X, Y
and Z±.  The series definition on the full module (X or Y dressed by the
inverse exponentials, zop_via_definition) is kept as a check that those
exponentials cancel the Heisenberg part of the field; the independent
evidence for X and Y is the direct oscillator sum in the tests.
"""

from __future__ import annotations

from . import fock, rep, wedge
from .linear import LinearCombination, combine
from .rep import _reach


class OmegaState(LinearCombination):
    """Finite rational combination of (wedge, charge) pairs."""


class NotInVacuumSpace(ValueError):
    """Raised when projecting a state with a nontrivial Fock factor."""


def omega_basis(wedgebasis=wedge.VACUUM, charge=0, coeff=1):
    return OmegaState.basis((wedgebasis, charge), coeff)


def omega_embed(s):
    """Include the vacuum space into the full module (Fock factor 1)."""
    return rep.State({((), w, p): c for (w, p), c in s.terms.items()})


def omega_project(s):
    """Strip the trivial Fock factor; reject states outside the vacuum
    space."""
    out = {}
    for (mono, w, p), c in s.terms.items():
        if mono:
            raise NotInVacuumSpace(f"nontrivial Fock factor {mono}")
        out[(w, p)] = c
    return OmegaState(out)


def z_act_full(sign, m, s):
    """Component m of Z^sign on a State or an OmegaState: the linear
    extension of its kernel rep.KERNELS["Z" + sign], which reads the
    basis-level mode rep._z_basis on the (w, p) end of a key.

    On the vacuum space this is the closed form.  On the full module it is
    the Heisenberg factorization: Z^sign(m) commutes with every H(n),
    n != 0, because the exponentials that dress the field in its
    definition cancel its Heisenberg part.  And V = Fock ⊗ Ω: the key
    (mono, w, p) is the product of the creation modes H(-n), n in mono,
    applied to the Heisenberg vacuum (w, p) in Ω.  So
    Z(m)(mono ⊗ ω) = mono ⊗ Z(m)ω.  zop_via_definition computes the same
    map from the definition and X or Y, which are built on _z_basis too,
    so it checks the Heisenberg dressing, not the oscillator.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return rep.act("Z" + sign, m, s)


def _pair_term(s1, s2, j1, j2, key):
    """Z^{s1}(j1) Z^{s2}(j2) on a basis key (w, p): (key, int) or None."""
    inner = rep._z_basis(s2, j2, key)
    if not inner:
        return None
    outer = rep._z_basis(s1, j1, inner[0])
    return (outer[0], outer[1] * inner[1]) if outer else None


def gen_commutator(s1, s2, m, n, s):
    """Coefficient of z^{-m} w^{-n} of the generalized commutator of
    Z^{s1}(z) and Z^{s2}(w), applied to a vacuum-space state.

    The binomial weights come from the expansion exponent
    (phi1, phi2)/(-2), which is +1 for opposite signs (a finite sum over
    k = 0, 1) and -1 for equal signs (an infinite series over k >= 0).
    The series ends at an exact bound: term k applies Z^{s1}(n + k) or
    Z^{s1}(m + k) to s first, and both vanish on every term (w, p) of s
    once n + k and m + k exceed _reach(s1, w, p), that is for
    k > max over the terms of _reach(s1, w, p) - min(m, n).

    Each term on a basis key is one key times an int (_pair_term), so the
    kernel on a basis key is the series summed in ints, and the result is
    its linear extension.
    """
    if s1 not in ("+", "-") or s2 not in ("+", "-"):
        raise ValueError("signs must be '+' or '-'")
    # (1 - w/z)^e contributes (w/z)^k with weight binom_series_coeff(e, k),
    # shifting the z-component down and the w-component up by k; the
    # swapped product expands in z/w and shifts the other way.  That weight
    # is 1, -1 for e = +1 (opposite signs) and 1 for every k when e = -1.
    if s1 != s2:
        weights = [1, -1]
    else:
        kmax = max((_reach(s1, w, p) for (w, p), _ in s),
                   default=-1) - min(m, n)
        weights = [1] * (kmax + 1)

    def on_basis(key):
        sums = {}
        for k, wt in enumerate(weights):
            for term, sg in ((_pair_term(s1, s2, m - k, n + k, key), wt),
                             (_pair_term(s2, s1, n - k, m + k, key), -wt)):
                if term:
                    sums[term[0]] = sums.get(term[0], 0) + sg * term[1]
        return sums.items(), 1
    return s.map_basis(on_basis)


def zop_via_definition(sgn, m, s):
    """Coefficient of z^{-m} of the dressed field defining the Z-operator
    on the full module: annihilation-side exponentials around X (for '+')
    or Y (for '-'), evaluated as an exact triple convolution.

    On a key (mono, w, p) the annihilation coefficient at depth b gives
    Fock monomials mono1 with int coefficients; the field component
    j = m + a - b (z-balance a - b - j = -m) on (mono1, w, p) gives ints
    over its own denominator; and the creation coefficient at z^a gives
    ints over fock._e_den(a).  Field components above
    sum(mono1) + _reach(sgn, w, p) vanish on (mono1, w, p): every
    oscillator mode that acts there would need a negative creation power
    in the z-balance of rep._field_basis, as Z^sgn does above _reach.
    The kernel on a key is the sum over (b, mono1, a), taken in ints over
    the lcm of the denominators (linear.combine), and the result is its
    linear extension.
    """
    if sgn not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    sup = "-" if sgn == "+" else "+"
    sign = 1 if sgn == "+" else -1

    def on_basis(key):
        mono, w, p = key
        parts = []
        for b in range(sum(mono) + 1):
            for mono1, c1 in fock._e_coeff_monomial(sup, "-", -b, mono):
                cap = sum(mono1) + _reach(sgn, w, p)
                for a in range(cap - m + b + 1):
                    terms, den = rep._field_basis(sign, m + a - b, mono1, w, p)
                    if not terms:
                        continue
                    image = [((mono3, w2, p2), c2 * c3)
                             for (mono2, w2, p2), c2 in terms
                             for mono3, c3 in fock._e_coeff_monomial(
                                 sup, "+", a, mono2)]
                    parts.append((c1, (image, den * fock._e_den(a))))
        sums, lift = combine(parts)
        return sums.items(), lift
    return s.map_basis(on_basis)
