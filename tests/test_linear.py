from fractions import Fraction

import pytest

from sl2crit import fock, rep, wedge, zalg
from sl2crit.fock import FockElement
from sl2crit.linear import LinearCombination, combine
from sl2crit.rep import State
from sl2crit.wedge import VACUUM, WedgeBasis, WedgeElement


class Half(Fraction):
    """A Fraction subclass, which the constructor must not store as is."""


def test_coefficients_are_exactly_fraction():
    v = LinearCombination({"a": 3, "b": Half(1, 2), "c": Fraction(-2, 5),
                           "d": 0, "e": Fraction(0)})
    assert v.terms == {"a": 3, "b": Fraction(1, 2), "c": Fraction(-2, 5)}
    assert all(type(c) is Fraction for _, c in v)


class Vector(LinearCombination):
    """A subclass, which map_basis must return."""


def test_map_basis_sums_kernels_exactly():
    # "a" and "b" both send 1/2 to "z", with opposite signs, so "z" cancels.
    kernel = {"a": ((("z", 3), ("y", 1)), 6),
              "b": ((("z", -2), ("x", 5)), 2),
              "c": ((), 1)}
    v = Vector({"a": 1, "b": Fraction(1, 2), "c": 7})
    got = v.map_basis(kernel.__getitem__)
    assert type(got) is Vector
    assert got.terms == {"y": Fraction(1, 6), "x": Fraction(5, 4)}
    assert all(type(c) is Fraction for _, c in got)
    assert Vector.zero().map_basis(kernel.__getitem__) == Vector.zero()


def test_combine_drops_cancelled_keys():
    # 3 * (a: 2, b: 1)/6 and -1 * (a: 1)/1 cancel on "a"; b cancels too.
    assert combine([(3, ((("a", 2), ("b", 1)), 6)),
                    (-1, ((("a", 1),), 1)),
                    (-1, ((("b", 1),), 2))]) == ({}, 6)
    assert combine([(1, ((("a", 1),), 2)), (1, ((("a", 1),), 3))]) \
        == ({"a": 5}, 6)


# Three basis keys per operator and the coefficients 2/3, -5/4, 7/2, whose
# denominators differ from each other and from the kernels'.
COEFFS = (Fraction(2, 3), Fraction(-5, 4), Fraction(7, 2))
STATE_KEYS = (((), VACUUM, 0), ((2, 1), WedgeBasis((-3,), ()), 1),
              ((1, 1), WedgeBasis((), (3,)), -1))
OMEGA_KEYS = (((), VACUUM, 0), ((), WedgeBasis((-3,), ()), 1),
              ((), WedgeBasis((-5,), (3,)), -1))
FOCK_KEYS = ((), (2, 1), (1, 1))
WEDGE_KEYS = (VACUUM, WedgeBasis((-3,), ()), WedgeBasis((), (3,)))

LINEAR_MAPS = [
    ("x_act", State, STATE_KEYS, lambda s: rep.act("X", -1, s)),
    ("y_act", State, STATE_KEYS, lambda s: rep.act("Y", 0, s)),
    ("h_act_full", State, STATE_KEYS, lambda s: rep.act("H", 1, s)),
    ("d_act", State, STATE_KEYS, lambda s: rep.act("d", 0, s)),
    ("z_act_full-state", State, STATE_KEYS,
     lambda s: rep.act("Z+", -1, s)),
    ("z_act_full-omega", State, OMEGA_KEYS,
     lambda s: rep.act("Z-", -1, s)),
    ("zop_via_definition", State, STATE_KEYS,
     lambda s: zalg.zop_via_definition("+", -1, s)),
    # The same-sign commutators vanish identically, so only the
    # opposite-sign one has images to compare.
    ("gen_commutator", State, OMEGA_KEYS,
     lambda s: zalg.gen_commutator("+", "-", 1, -1, s)),
    ("fock.h_act", FockElement, FOCK_KEYS, lambda v: fock.h_act(1, v)),
    ("wedge.apply_mode", WedgeElement, WEDGE_KEYS,
     lambda v: wedge.apply_mode("A*", -3, v)),
]


@pytest.mark.parametrize("cls,keys,op", [m[1:] for m in LINEAR_MAPS],
                         ids=[m[0] for m in LINEAR_MAPS])
def test_operator_is_termwise_sum_of_basis_images(cls, keys, op):
    want = {}
    for key, c in zip(keys, COEFFS):
        for key2, c2 in op(cls.basis(key)):
            want[key2] = want.get(key2, 0) + c * c2
    got = op(cls(dict(zip(keys, COEFFS))))
    assert got == cls(want)
    assert got
