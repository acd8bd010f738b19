"""Oscillator action on the semi-infinite wedge space.

Applies a few A and A* modes to the vacuum word, then verifies the
anticommutator {A(m), A*(n)} = -(m^2 - 1/4) delta_{m+n,0} on a small
window of basis vectors.
"""

from fractions import Fraction

from sl2crit import wedge
from sl2crit.harness import wedge_bases_up_to


def main():
    print("vacuum word:", wedge.serialize_basis(wedge.VACUUM))
    vac = wedge.WedgeElement.basis(wedge.VACUUM)
    for kind in ("A", "A*"):
        for t in (-3, -5, 3):
            out = wedge.apply_mode(kind, t, vac)
            print(f"{kind}({t}/2) vacuum ->",
                  [(wedge.serialize_basis(w), str(c)) for w, c in out])
    print()

    checks = 0
    for w in wedge_bases_up_to(4):
        v = wedge.WedgeElement.basis(w)
        for tm in range(-7, 8, 2):
            for tn in range(-7, 8, 2):
                # Modes are passed doubled: tm = 2m, tn = 2n.
                lhs = (wedge.apply_mode("A", tm,
                                        wedge.apply_mode("A*", tn, v))
                       + wedge.apply_mode("A*", tn,
                                          wedge.apply_mode("A", tm, v)))
                want = v.scale(-(Fraction(tm, 2) ** 2 - Fraction(1, 4))) \
                    if tm + tn == 0 else wedge.WedgeElement.zero()
                assert lhs == want, (tm, tn, w)
                checks += 1
    print(f"anticommutator identity holds on {checks} (m, n, basis) triples")


if __name__ == "__main__":
    main()
