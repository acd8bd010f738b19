"""Bosonic Fock space: the polynomial algebra on creation modes H(-n), n > 0.

The central element acts as -2, so annihilation modes act as scaled formal
derivatives: H(m) with m > 0 sends a monomial to -4m times its partial
derivative with respect to the variable H(-m).  The exponential operators
built from these modes are evaluated coefficientwise and eagerly, one
z-power at a time.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .linear import LinearCombination, combine

# A Fock monomial is a tuple of positive integer parts, sorted descending;
# part n stands for one factor H(-n).  The empty tuple is the vacuum 1.


def monomial(*parts):
    if any(p < 1 for p in parts):
        raise ValueError("parts must be positive integers")
    return tuple(sorted(parts, reverse=True))


class FockElement(LinearCombination):
    """Finite rational combination of Fock monomials."""


ONE = FockElement.basis(())

# Entries kept by the three caches below; each bound is a few times the
# largest count measured at an acceptance window, so those windows evict
# nothing, and any larger window recomputes instead of growing the process.
# _partitions holds one entry per (n, distinct): 12 after criterion 2, 14
# after the census through twice-degree 12.
PARTITION_CACHE_SIZE = 1 << 6
# _e_coeff_monomial holds 4,280 entries after criterion 2, 6,680 after
# criterion 4 and 848 after criterion 6.
E_CACHE_SIZE = 1 << 14
# A _vertex_monomial row depends only on (sup, k, mono), so X and Y share
# it across every wedge, charge and mode with the same k: the current suite
# at window (3,5,2) makes 16,330 lookups on 844 rows, at (4,10,2) 361,710
# on 3,990.
VERTEX_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=PARTITION_CACHE_SIZE)
def _partitions(n, distinct=False):
    """All partitions of n as descending tuples (cached); with `distinct`,
    only those into distinct parts."""
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            prefix.append(p)
            rec(remaining - p, p - 1 if distinct else p, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def _h_act_monomial(n, mono):
    """H(n) on a single monomial, as a list of (monomial, int) pairs."""
    if n == 0:
        raise ValueError("H(0) does not act on the Fock factor")
    if n < 0:
        return [(tuple(sorted(mono + (-n,), reverse=True)), 1)]
    # H(n), n > 0: -4n times the formal derivative in the part n.
    k = mono.count(n)
    if k == 0:
        return []
    reduced = list(mono)
    reduced.remove(n)
    return [(tuple(reduced), -4 * n * k)]


def _h_kernel(n, mono):
    """The kernel of h_act on a monomial, over den 1."""
    return _h_act_monomial(n, mono), 1


def h_act(n, v):
    """Action of the Heisenberg mode H(n), n != 0, on a Fock element: the
    linear extension of _h_kernel."""
    if n == 0:
        raise ValueError("H(0) does not act on the Fock factor")
    return v.map_basis(lambda mono: _h_kernel(n, mono))


def _e_den(k):
    """Denominator that clears the z^k coefficients of the exponentials:
    2^k k! for a creation power k > 0, 1 for an annihilation power.

    Annihilation: H(n) = -4n times a derivative, so the exponent
    ± sum H(n)/2n z^-n is a Taylor shift by ∓2 in each variable and has
    integer coefficients.  Creation: a partition of k with l parts and
    centralizer order z contributes ±1/(2^l z), and both k!/z and
    2^(k-l) are integers.
    """
    return 2 ** k * factorial(k) if k > 0 else 1


@lru_cache(maxsize=E_CACHE_SIZE)
def _e_coeff_monomial(sup, sub, k, mono):
    """z^k coefficient of the exponential operator applied to a monomial,
    times _e_den(k): a tuple of (monomial, int) pairs.

    sup/sub are '+' or '-', naming the superscript and subscript of the
    operator: subscript '+' is the creation exponential
    exp(∓ sum H(-n)/2n z^n), subscript '-' the annihilation exponential
    exp(± sum H(n)/2n z^-n), with the sign read off the superscript.

    Both follow from |k| E_k = sum_{n=1..|k|} n a_n E_{k∓n}, the recursion for
    E(z) = exp(sum_{n>=1} a_n z^{±n}) with commuting n a_n = sign H(∓n)/2,
    run on the scaled ints: term n is lifted by _e_den(k) // _e_den(k∓n),
    and the sum is divided by 2|k|, raising ArithmeticError unless exact.
    Each E_j is computed once through the cache; the depth is |k|.
    """
    if sup not in ("+", "-") or sub not in ("+", "-"):
        raise ValueError("sup and sub must be '+' or '-'")
    if sub == "+" and k < 0:
        raise ValueError("creation exponential has no negative z-powers")
    if sub == "-" and k > 0:
        raise ValueError("annihilation exponential has no positive z-powers")
    if k == 0:
        return ((mono, 1),)

    sign = -1 if sup == sub else 1
    step = 1 if k > 0 else -1
    den = _e_den(k)
    out = {}
    for n in range(1, abs(k) + 1):
        lift = den // _e_den(k - step * n)
        for m2, c2 in _e_coeff_monomial(sup, sub, k - step * n, mono):
            for m3, c3 in _h_act_monomial(-step * n, m2):
                out[m3] = out.get(m3, 0) + lift * c2 * c3
    rows = [(m, *divmod(sign * c, 2 * abs(k))) for m, c in out.items() if c]
    if any(r for _, _, r in rows):
        raise ArithmeticError(f"E^{sup}_{sub} coefficient at z^{k} on "
                              f"{mono} times {den} is not an integer")
    return tuple((m, q) for m, q, _ in rows)


@lru_cache(maxsize=VERTEX_CACHE_SIZE)
def _vertex_monomial(sup, k, mono):
    """The kernel of the z^k coefficient of E^sup_+(z) E^sup_-(z) on a
    monomial: (((monomial, nonzero int), ...), _e_den(sum(mono) + k)).

    This is the Heisenberg part of X (sup '+') and Y (sup '-'): the sum
    over k1 - k2 = k of the creation kernel at z^k1 on the annihilation
    rows at z^-k2, by one linear.combine.  The annihilation side lowers
    the degree by k2, so k2 <= sum(mono).  The row at k2 = sum(mono) is
    never empty and 2^k k! divides 2^k' k'! for k <= k', so the lcm of the
    terms is _e_den(sum(mono) + k).
    """
    sums, den = combine([(c1, _e_kernel(sup, "+", k2 + k, m1))
                         for k2 in range(max(0, -k), sum(mono) + 1)
                         for m1, c1 in _e_coeff_monomial(sup, "-", -k2, mono)])
    return tuple(sums.items()), den


def _e_kernel(sup, sub, k, mono):
    """The kernel of e_coeff: the table's ints over _e_den(k)."""
    return _e_coeff_monomial(sup, sub, k, mono), _e_den(k)


def e_coeff(sup, sub, k, v):
    """Coefficient of z^k of the chosen exponential operator applied to v:
    the linear extension of _e_kernel."""
    return v.map_basis(lambda mono: _e_kernel(sup, sub, k, mono))


def parse_monomial(data):
    """A monomial from its JSON form, a list of positive integer parts."""
    if not isinstance(data, list) or any(type(p) is not int for p in data):
        raise ValueError(f"Fock monomial must be a list of integers: {data!r}")
    return monomial(*data)
