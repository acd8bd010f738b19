"""Z-operators on the vacuum space and their generalized commutators.

On the vacuum space (trivial Fock factor) each moded Z-operator reduces to
a single oscillator mode per charge sector, because the lattice z-power
contributes a pure monomial.  The series definition on the full module
(oscillator field dressed by annihilation-side exponentials) is kept as an
independent cross-check.
"""

from __future__ import annotations

from . import fock, rep, wedge
from .linear import LinearCombination
from .scalars import HalfInt, binom_series_coeff


class OmegaState(LinearCombination):
    """Finite rational combination of (wedge, charge) pairs."""


class NotInVacuumSpace(ValueError):
    """Raised when projecting a state with a nontrivial Fock factor."""


class NoTerminationBound(RuntimeError):
    """The certified bound for an infinite generalized-commutator sum
    failed; indicates an implementation bug."""


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


def zplus_act(m, s):
    """Component m of the raising Z-operator: one oscillator mode per
    charge sector, charge up by one."""
    def on_basis(key):
        w, p = key
        welem = wedge.a_act(HalfInt(2 * (m - p) - 1), w)
        return [((w2, p + 1), c) for w2, c in welem]
    return s.map_basis(on_basis)


def zminus_act(m, s):
    """Component m of the lowering Z-operator, charge down by one."""
    def on_basis(key):
        w, p = key
        welem = wedge.astar_act(HalfInt(2 * (m + p) - 1), w)
        return [((w2, p - 1), c) for w2, c in welem]
    return s.map_basis(on_basis)


_Z_ACT = {"+": zplus_act, "-": zminus_act}


def _pair_term(s1, s2, j1, j2, s):
    """Z^{s1}(j1) Z^{s2}(j2) applied to s."""
    return _Z_ACT[s1](j1, _Z_ACT[s2](j2, s))


def _termination_bound(m, n, s):
    """Certified cutoff for the e = -1 sums: beyond it the double action
    falls off the finite perturbation of every term."""
    extent = 0
    maxp = 0
    for (w, p), _ in s:
        if w.holes:
            extent = max(extent, (w.holes[-1] + 1) // 2)
        if w.neg:
            extent = max(extent, (-w.neg[0] + 1) // 2)
        maxp = max(maxp, abs(p))
    return extent + abs(m) + abs(n) + 2 * maxp + 4


def gen_commutator(s1, s2, m, n, s):
    """Coefficient of z^{-m} w^{-n} of the generalized commutator of
    Z^{s1}(z) and Z^{s2}(w), applied to a vacuum-space state.

    The binomial weights come from the expansion exponent
    (phi1, phi2)/(-2), which is +1 for opposite signs (finite sum) and -1
    for equal signs (infinite series, terminating on any fixed state with
    a certified bound).
    """
    if s1 not in "+-" or s2 not in "+-":
        raise ValueError("signs must be '+' or '-'")
    e = 1 if s1 != s2 else -1

    def term(k):
        # (1 - w/z)^e contributes (w/z)^k with weight binom_series_coeff(e, k),
        # shifting the z-component down and the w-component up by k; the
        # swapped product expands in z/w and shifts the other way.
        c = binom_series_coeff(e, k)
        return (_pair_term(s1, s2, m - k, n + k, s)
                - _pair_term(s2, s1, n - k, m + k, s)).scale(c)

    if e == 1:
        return term(0) + term(1)

    kmax = _termination_bound(m, n, s)
    total = OmegaState.zero()
    for k in range(kmax + 1):
        total = total + term(k)
    for k in range(kmax + 1, kmax + 4):
        if term(k):
            raise NoTerminationBound(
                f"term k={k} nonzero beyond certified bound {kmax}")
    return total


def _e_coeff_state(sup, sub, k, s):
    """Exponential-operator coefficient acting on the Fock factor of a full
    state."""
    def on_basis(key):
        mono, w, p = key
        return [((mono2, w, p), c)
                for mono2, c in fock._e_coeff_monomial(sup, sub, k, mono)]
    return s.map_basis(on_basis)


def _mode_cap(sgn, s):
    """Largest field mode with a nonzero action on any term of s."""
    cap = None
    for (mono, w, p), _ in s:
        fdeg = sum(mono)
        if sgn == "+":
            reach = max([(t + 1) // 2 for t in w.holes], default=-1)
            j = fdeg + p + reach
        else:
            reach = max([(-t + 1) // 2 for t in w.neg], default=-1)
            j = fdeg - p + reach
        cap = j if cap is None else max(cap, j)
    return cap


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
        if cap is None:
            continue
        # z-balance: a - b - j = -m for the field component j = m + a - b;
        # components above `cap` annihilate every term of `inner`.
        for a in range(0, cap - m + b + 1):
            mid = field(m + a - b, inner)
            if not mid:
                continue
            total = total + _e_coeff_state(sup, "+", a, mid)
    return total

