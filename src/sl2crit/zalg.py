"""Z-operators on the vacuum space and their generalized commutators.

On the vacuum space (trivial Fock factor) each moded Z-operator reduces to
a single oscillator mode per charge sector, because the lattice z-power
contributes a pure monomial.  On the full module a Z-operator acts on the
vacuum-space factor alone (z_act_full).  The series definition on the full
module (oscillator field dressed by annihilation-side exponentials) is kept
as an independent cross-check.
"""

from __future__ import annotations

from . import fock, rep, wedge
from .linear import LinearCombination, accumulate
from .scalars import binom_series_coeff


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


def _z_basis(sign, m, key):
    """Component m of Z^sign on a basis key (w, p) of the vacuum space:
    one oscillator mode, A(m - p - 1/2) for '+' and A*(m + p - 1/2) for
    '-', with the charge shifted by one in the direction of the sign.
    Returns ((w2, p2), int coefficient), or None when the mode annihilates
    (w, p)."""
    w, p = key
    step = 1 if sign == "+" else -1
    t = 2 * (m - step * p) - 1
    term = wedge.flip(t, step * t, step < 0, w)
    return ((term[0], p + step), term[1]) if term else None


def _z_act(sign, m, s):
    """Component m of Z^sign on the vacuum space, the linear extension of
    _z_basis."""
    def on_basis(key):
        term = _z_basis(sign, m, key)
        return (term,) if term else ()
    return s.map_basis(on_basis)


def zplus_act(m, s):
    """Component m of the raising Z-operator, charge up by one."""
    return _z_act("+", m, s)


def zminus_act(m, s):
    """Component m of the lowering Z-operator, charge down by one."""
    return _z_act("-", m, s)


def z_act_full(sign, m, s):
    """Component m of Z^sign on the full module, through the Heisenberg
    factorization.

    Z^sign(m) commutes with every H(n), n != 0: the exponentials that
    dress the field in its definition cancel its Heisenberg part.  And
    V = Fock ⊗ Ω: the key (mono, w, p) is the product of the creation
    modes H(-n), n in mono, applied to the Heisenberg vacuum (w, p) in Ω.
    So Z(m)(mono ⊗ ω) = mono ⊗ Z(m)ω, and Z(m)ω is the closed form
    _z_act.  zop_via_definition computes the same map from the definition
    and stays as the independent cross-check.
    """
    def on_basis(key):
        term = _z_basis(sign, m, key[1:])
        return (((key[0],) + term[0], term[1]),) if term else ()
    return s.map_basis(on_basis)


def _pair_term(s1, s2, j1, j2, key):
    """Z^{s1}(j1) Z^{s2}(j2) on a basis key (w, p): (key, int) or None."""
    inner = _z_basis(s2, j2, key)
    if not inner:
        return None
    outer = _z_basis(s1, j1, inner[0])
    return (outer[0], outer[1] * inner[1]) if outer else None


def _reach(sign, w, p):
    """Bound on the modes of Z^sign that act on (w, p): Z^sign(j) is zero
    for every j above it.

    Z^+(j) inserts u_t, t = 2(j - p) - 1, which must be absent: a hole,
    or t <= -3 (at t = 1 the scalar t/2 - 1/2 vanishes).  Z^-(j) removes
    u_r, r = 1 - 2(j + p), which must be present: an extra negative
    factor, or r >= 3 (at r = -1 the scalar vanishes).  So the largest
    mode that can act comes from the outermost hole (for '+') or the
    outermost extra negative factor (for '-'), or from t = -3 or r = 3
    when there is none.
    """
    if sign == "+":
        return max([(t + 1) // 2 for t in w.holes], default=-1) + p
    return max([(1 - t) // 2 for t in w.neg], default=-1) - p


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
    series is summed in ints per input key and scaled by that key's
    coefficient once.
    """
    if s1 not in "+-" or s2 not in "+-":
        raise ValueError("signs must be '+' or '-'")
    e = 1 if s1 != s2 else -1
    kmax = 1 if e == 1 else max((_reach(s1, w, p) for (w, p), _ in s),
                                default=-1) - min(m, n)
    # (1 - w/z)^e contributes (w/z)^k with weight binom_series_coeff(e, k),
    # +1 or -1 here, shifting the z-component down and the w-component up
    # by k; the swapped product expands in z/w and shifts the other way.
    weights = [binom_series_coeff(e, k).numerator for k in range(kmax + 1)]
    out = {}
    for key, c in s:
        sums = {}
        for k, wt in enumerate(weights):
            for term, sg in ((_pair_term(s1, s2, m - k, n + k, key), wt),
                             (_pair_term(s2, s1, n - k, m + k, key), -wt)):
                if term:
                    accumulate(sums, term[0], sg * term[1])
        for key2, v in sums.items():
            accumulate(out, key2, c * v)
    return OmegaState(out)


def _e_coeff_state(sup, sub, k, s):
    """Exponential-operator coefficient acting on the Fock factor of a full
    state."""
    def on_basis(key):
        mono, w, p = key
        return [((mono2, w, p), c)
                for mono2, c in fock._e_coeff_monomial(sup, sub, k, mono)]
    return s.map_basis(on_basis)


def _mode_cap(sgn, s):
    """Bound on the field modes with a nonzero action on some term of s."""
    return max(sum(mono) + _reach(sgn, w, p) for (mono, w, p), _ in s)


def zop_via_definition(sgn, m, s):
    """Coefficient of z^{-m} of the dressed field defining the Z-operator
    on the full module: annihilation-side exponentials around X (for '+')
    or Y (for '-'), evaluated as an exact triple convolution."""
    if sgn not in "+-":
        raise ValueError("sign must be '+' or '-'")
    sup = "-" if sgn == "+" else "+"
    field = rep.x_act if sgn == "+" else rep.y_act
    total = rep.State.zero()
    bmax = max([sum(mono) for (mono, _, _), _ in s], default=0)
    for b in range(bmax + 1):
        inner = _e_coeff_state(sup, "-", -b, s)
        if not inner:
            continue
        cap = _mode_cap(sgn, inner)
        # z-balance: a - b - j = -m for the field component j = m + a - b;
        # components above `cap` annihilate every term of `inner`.
        for a in range(0, cap - m + b + 1):
            mid = field(m + a - b, inner)
            if not mid:
                continue
            total = total + _e_coeff_state(sup, "+", a, mid)
    return total

