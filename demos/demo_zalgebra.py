"""Moded operators on the vacuum space.

The dressed raising and lowering fields restrict to the vacuum space of
the Heisenberg algebra, where their modes act by a single oscillator
together with a charge shift.  This script shows the closed-form action,
checks it against the definition as a triple-sum of field components,
and evaluates the generalized commutator relations.
"""

from sl2crit import rep, wedge, zalg


def fmt(s):
    return [(wedge.serialize_basis(w), p, str(c)) for (_, w, p), c in s]


def main():
    # A vacuum-space vector is a State with Fock factor 1: keys ((), w, p).
    vac = rep.basis_state((), wedge.VACUUM, 0)
    print("Z+(-1) vacuum ->", fmt(rep.act("Z+", -1, vac)))
    print("Z-(-1) vacuum ->", fmt(rep.act("Z-", -1, vac)))
    print()

    # Closed form versus the definition (field components dressed with
    # exponential operators), on a vacuum-space state.
    s = rep.basis_state((), wedge.WedgeBasis((-3,), ()), 1)
    for m in range(-2, 3):
        direct = zalg.zop_via_definition("+", m, s)
        closed = rep.act("Z+", m, s)
        assert direct == closed, m
    print("definition and closed form agree for Z+ modes -2..2")

    # Generalized commutator with opposite signs: eigenvalue 2p - 2m.
    for p in (-1, 0, 2):
        s = rep.basis_state((), wedge.VACUUM, p)
        for m in (-2, 0, 1):
            got = zalg.gen_commutator("+", "-", m, -m, s)
            assert got == s.scale(2 * p - 2 * m), (p, m)
    print("[Z+(m), Z-(-m)]-type commutator acts by 2p - 2m")

    # Same-sign generalized commutators vanish; the infinite sum ends at
    # an exact bound, past which every term applies a mode beyond the
    # outermost hole or extra negative factor of the wedge.
    for m in (-2, 0, 3):
        for n in (-1, 2):
            assert not zalg.gen_commutator("+", "+", m, n, vac)
            assert not zalg.gen_commutator("-", "-", m, n, vac)
    print("same-sign generalized commutators vanish (series ends at the "
          "wedge reach)")

    # The dressed modes commute with the Heisenberg annihilators, so
    # they genuinely preserve the vacuum space.
    for n in (1, 2, 3):
        out = rep.act("H", n, zalg.zop_via_definition("+", -1, s))
        assert out == zalg.zop_via_definition("+", -1, rep.act("H", n, s))
    print("Z modes commute with the Heisenberg annihilators")


if __name__ == "__main__":
    main()
