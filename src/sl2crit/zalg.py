"""Z-operators on the vacuum space and their generalized commutators.

By V = Fock ⊗ Ω a vacuum-space vector is a State on keys ((), w, p), and a
Z-operator acts on the Ω factor alone: on a key (mono, w, p) each moded
Z-operator reduces to a single oscillator mode per charge sector on
(w, p), because the lattice z-power contributes a pure monomial, and mono
is carried over.  The basis-level mode _z_basis, its bound _reach and the
Z letters live in rep, which applies them as rep.act("Z+", m, s) and
rep.act("Z-", m, s); its X and Y are the same modes dressed by the
Heisenberg exponentials, so one cache serves X, Y and Z±.  A same-sign
generalized commutator is an infinite series whose products with outer
mode a <= min(m, n) cancel in pairs; on a key (w, p) of reach R it is the
finite sum sign(m - n) * sum Z(a) Z(m + n - a) over
max(min(m, n) + 1, m + n - R) <= a <= min(max(m, n), R + 1), which
gen_commutator derives.  The series definition on the full module (X or
Y dressed by the inverse exponentials, zop_via_definition) is kept as a
check that those exponentials cancel the Heisenberg part of the field;
the independent evidence for X and Y is the direct oscillator sum in the
tests.
"""

from __future__ import annotations

from functools import partial

from . import fock, rep
from .linear import combine
from .rep import _reach


def _pair_term(s1, s2, j1, j2, key):
    """Z^{s1}(j1) Z^{s2}(j2) on the Ω part (w, p) of a basis key:
    ((w2, p2), int) or None."""
    inner = rep._z_basis(s2, j2, key)
    if not inner:
        return None
    outer = rep._z_basis(s1, j1, inner[0])
    return (outer[0], outer[1] * inner[1]) if outer else None


def _gencom_basis(s1, s2, m, n, key):
    """The kernel of gen_commutator on a basis key (mono, w, p), over den
    1.  The Z-modes act on (w, p) alone: the sum is taken on (w, p), and
    mono is put back on each key whose sum is nonzero."""
    # (1 - w/z)^e contributes (w/z)^k with weight (-1)^k C(e, k),
    # shifting the z-component down and the w-component up by k; the
    # swapped product expands in z/w and shifts the other way.  For
    # opposite signs e = +1: the weights 1, -1 at k = 0, 1.  For equal
    # signs the series telescopes to the finite sum of gen_commutator.
    mono, wp = key[0], key[1:]
    if s1 != s2:
        products = ((1, s1, s2, m, n), (-1, s2, s1, n, m),
                    (-1, s1, s2, m - 1, n + 1), (1, s2, s1, n - 1, m + 1))
    else:
        r = _reach(s1, *wp)
        sg = 1 if m > n else -1
        products = [(sg, s1, s1, a, m + n - a)
                    for a in range(max(min(m, n) + 1, m + n - r),
                                   min(max(m, n), r + 1) + 1)]
    sums = {}
    for wt, sa, sb, ja, jb in products:
        term = _pair_term(sa, sb, ja, jb, wp)
        if term:
            sums[term[0]] = sums.get(term[0], 0) + wt * term[1]
    return [((mono,) + wp2, c) for wp2, c in sums.items() if c], 1


def gen_commutator(s1, s2, m, n, s):
    """Coefficient of z^{-m} w^{-n} of the generalized commutator of
    Z^{s1}(z) and Z^{s2}(w), applied to a State: the linear extension of
    the kernel _gencom_basis.

    The binomial weights come from the expansion exponent
    (phi1, phi2)/(-2), which is +1 for opposite signs (a finite sum over
    k = 0, 1) and -1 for equal signs, where every weight is 1:
        sum_{k >= 0} [Z(m - k) Z(n + k) - Z(n - k) Z(m + k)],
    Z = Z^{s1} = Z^{s2}.  On a basis key (mono, w, p) the sum telescopes
    to a finite one.  Put a = m - k in the first product and a = n - k in
    the second: both are Z(a) Z(m + n - a), summed over a <= m and over
    a <= n.  Let R = _reach(s1, w, p).  The inner mode m + n - a vanishes
    on (w, p) above R, so both sums are finite, and the products with
    a <= min(m, n) cancel term by term.  What is left is
        sign(m - n) * sum of Z(a) Z(m + n - a), min(m, n) < a <= max(m, n),
    at most |m - n| products, none for m = n.  It is clipped to
    m + n - R <= a <= R + 1.  The outer mode acts on a key of charge
    p +- 1, and a flip of sign s1 either undoes an own mode of w or
    perturbs the other side, so the own modes of that key are among those
    of w and its reach is at most R + 1.  Each term on a basis key is one
    key times an int (_pair_term), so the kernel is a sum of ints.
    """
    if s1 not in ("+", "-") or s2 not in ("+", "-"):
        raise ValueError("signs must be '+' or '-'")
    return s.map_basis(partial(_gencom_basis, s1, s2, m, n))


def _zop_basis(sgn, m, key):
    """The kernel of zop_via_definition on a basis triple (mono, w, p).

    The annihilation coefficient at depth b gives Fock monomials mono1
    with int coefficients; the field component j = m + a - b (z-balance
    a - b - j = -m) on (mono1, w, p) gives ints over its own denominator;
    and the creation coefficient at z^a gives ints over fock._e_den(a).
    Field components above sum(mono1) + _reach(sgn, w, p) vanish on
    (mono1, w, p): every oscillator mode that acts there would need a
    negative creation power in the z-balance of the X or Y letter, as
    Z^sgn does above _reach.  The sum over (b, mono1, a) is taken in ints
    over the lcm of the denominators (linear.combine).
    """
    sup, field = ("-", "X") if sgn == "+" else ("+", "Y")
    mono, w, p = key
    parts = []
    for b in range(sum(mono) + 1):
        for mono1, c1 in fock._e_coeff_monomial(sup, "-", -b, mono):
            cap = sum(mono1) + _reach(sgn, w, p)
            for a in range(cap - m + b + 1):
                terms, den = rep._kernel(field, m + a - b, (mono1, w, p))
                if not terms:
                    continue
                image = [((mono3, w2, p2), c2 * c3)
                         for (mono2, w2, p2), c2 in terms
                         for mono3, c3 in fock._e_coeff_monomial(
                             sup, "+", a, mono2)]
                parts.append((c1, (image, den * fock._e_den(a))))
    sums, lift = combine(parts)
    return sums.items(), lift


def zop_via_definition(sgn, m, s):
    """Coefficient of z^{-m} of the dressed field defining the Z-operator
    on the full module: annihilation-side exponentials around X (for '+')
    or Y (for '-'), evaluated as an exact triple convolution.  It is the
    linear extension of the kernel _zop_basis.
    """
    if sgn not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return s.map_basis(partial(_zop_basis, sgn, m))
