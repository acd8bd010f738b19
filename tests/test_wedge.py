"""The sign bookkeeping here is checked against a literal-word oracle: a
truncated wedge word is kept as an explicit ascending list of doubled
indices, insertion prepends and sorts with an inversion-count sign, and
removal uses the (-1)^{k+1} position sign.  No parity shortcuts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2crit import wedge
from sl2crit.wedge import VACUUM, WedgeBasis, WedgeElement, apply_mode

TAIL = 41  # doubled cutoff for explicit words; beyond it nothing is touched


def explicit_word(w, tail=TAIL):
    word = list(w.neg) + [-1]
    word += [t for t in range(3, tail + 1, 2) if t not in w.holes]
    return sorted(word)


def word_to_basis(word, tail=TAIL):
    neg = tuple(t for t in word if t < -1)
    holes = tuple(t for t in range(3, tail + 1, 2) if t not in word)
    return WedgeBasis(neg, holes)


def oracle_insert(t, word):
    """u_t ^ (word): sign from sorting the prepended letter into place."""
    if t in word:
        return None
    inversions = sum(1 for s in word if s < t)
    return (-1) ** inversions, sorted(word + [t])


def oracle_remove(t, word):
    """Partial annihilation: (-1)^{k+1} with k the 1-based position."""
    if t not in word:
        return None
    k = word.index(t) + 1
    rest = [s for s in word if s != t]
    return (-1) ** (k + 1), rest


def oracle_a(t, w):
    scalar = Fraction(t - 1, 2)
    if scalar == 0:
        return WedgeElement.zero()
    res = oracle_insert(t, explicit_word(w))
    if res is None:
        return WedgeElement.zero()
    sign, word = res
    return WedgeElement.basis(word_to_basis(word), sign * scalar)


def oracle_astar(t, w):
    scalar = Fraction(t - 1, 2)
    if scalar == 0:
        return WedgeElement.zero()
    res = oracle_remove(-t, explicit_word(w))
    if res is None:
        return WedgeElement.zero()
    sign, word = res
    return WedgeElement.basis(word_to_basis(word), sign * scalar)


def small_bases(maxdeg):
    from sl2crit.harness import wedge_bases_up_to
    return wedge_bases_up_to(maxdeg)


class TestDegree:
    def test_vacuum(self):
        assert VACUUM.degree() == 0

    def test_worked_example_twenty(self):
        w = WedgeBasis((-11, -5, -3), (5, 9, 13))
        assert w.degree() == 20

    def test_single_negative(self):
        assert WedgeBasis((-3,), ()).degree() == 1


class TestOscillatorActions:
    def test_a_on_vacuum(self):
        got = apply_mode("A", -3, WedgeElement.basis(VACUUM))
        assert got == WedgeElement.basis(WedgeBasis((-3,), ()), -2)

    def test_a_at_half_vanishes(self):
        for w in small_bases(3):
            assert not apply_mode("A", 1, WedgeElement.basis(w))
            assert not apply_mode("A*", 1, WedgeElement.basis(w))

    def test_a_hole_filling_sign(self):
        # Filling the hole at 5/2 walks past -1/2 and 3/2: even sign.
        got = apply_mode("A", 5, WedgeElement.basis(WedgeBasis((), (5,))))
        assert got == WedgeElement.basis(VACUUM, 2)

    def test_astar_first_factor(self):
        got = apply_mode("A*", 3, WedgeElement.basis(WedgeBasis((-3,), ())))
        assert got == WedgeElement.basis(VACUUM, 1)

    def test_astar_digs_hole(self):
        got = apply_mode("A*", -5, WedgeElement.basis(VACUUM))
        assert got == WedgeElement.basis(WedgeBasis((), (5,)), -3)

    def test_rejects_integer_mode(self):
        with pytest.raises(ValueError):
            apply_mode("A", 2, WedgeElement.basis(VACUUM))

    def test_against_literal_word_oracle(self):
        for w in small_bases(5):
            v = WedgeElement.basis(w)
            for t in range(-13, 14, 2):
                assert apply_mode("A", t, v) == oracle_a(t, w), ("A", t, w)
                assert apply_mode("A*", t, v) == oracle_astar(t, w), \
                    ("A*", t, w)

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(min_value=1, max_value=6), max_size=3),
           st.sets(st.integers(min_value=1, max_value=6), max_size=3),
           st.integers(min_value=-15, max_value=15).filter(lambda t: t % 2))
    def test_oracle_property(self, negdepths, holedepths, t):
        w = WedgeBasis(tuple(sorted(-2 * d - 1 for d in negdepths)),
                       tuple(sorted(2 * d + 1 for d in holedepths)))
        v = WedgeElement.basis(w)
        assert apply_mode("A", t, v) == oracle_a(t, w)
        assert apply_mode("A*", t, v) == oracle_astar(t, w)


class TestInvariants:
    def test_closure(self):
        # Every output basis vector again satisfies the space constraints
        # (constructor validation would raise otherwise).
        for w in small_bases(4):
            v = WedgeElement.basis(w)
            for t in range(-9, 10, 2):
                for elem in (apply_mode("A", t, v), apply_mode("A*", t, v)):
                    for w2, _ in elem:
                        assert w2.supports(-1) and not w2.supports(1)

    def test_charge_shift(self):
        for w in small_bases(4):
            v = WedgeElement.basis(w)
            for t in range(-9, 10, 2):
                for w2, _ in apply_mode("A", t, v):
                    assert w2.charge == w.charge + 1
                for w2, _ in apply_mode("A*", t, v):
                    assert w2.charge == w.charge - 1

    def test_anticommutators_small_window(self):
        for w in small_bases(4):
            v = WedgeElement.basis(w)
            for tm in range(-7, 8, 2):
                for tn in range(-7, 8, 2):
                    mixed = (apply_mode("A", tm, apply_mode("A*", tn, v))
                             + apply_mode("A*", tn, apply_mode("A", tm, v)))
                    want = v.scale(-(Fraction(tm, 2) ** 2 - Fraction(1, 4))) \
                        if tm + tn == 0 else WedgeElement.zero()
                    assert mixed == want

    def test_degree_count_matches_pair_of_strict_partitions(self):
        # Number of bases of degree k = [q^k] prod (1+q^m)^2.
        order = 10
        poly = [Fraction(1)] + [Fraction(0)] * order
        for m in range(1, order + 1):
            for _ in range(2):
                for i in range(order, m - 1, -1):
                    poly[i] += poly[i - m]
        from sl2crit.harness import wedge_bases_of_degree
        for k in range(order + 1):
            assert len(wedge_bases_of_degree(k)) == poly[k]


def test_serialization_round_trip():
    for w in small_bases(5):
        assert wedge.parse_basis(wedge.serialize_basis(w)) == w
    w = WedgeBasis((-11, -3), (5,))
    assert wedge.parse_basis(wedge.serialize_basis(w)) == w
    assert wedge.serialize_basis(w) == {"neg": ["-11/2", "-3/2"],
                                        "holes": ["5/2"]}


def test_basis_is_its_tuple():
    w = WedgeBasis((-5, -3), (7,))
    assert isinstance(w, tuple) and w == ((-5, -3), (7,))
    assert hash(w) == hash(((-5, -3), (7,)))
    assert {((-5, -3), (7,)): 1}[w] == 1
    assert (w.neg, w.holes) == ((-5, -3), (7,))
    assert repr(w) == "WedgeBasis(neg=(-5, -3), holes=(7,))"
    assert repr(VACUUM) == "WedgeBasis(neg=(), holes=())"
    assert not hasattr(w, "__dict__")


@pytest.mark.parametrize("sign", [1, -1])
def test_acting_modes_are_own_modes_or_deep(sign):
    """rep._reach, which bounds the Z-modes that X, Y and Z± try, counts
    only wedge.own_modes and t <= -3."""
    for w in small_bases(5):
        own = wedge.own_modes(sign, w)
        for t in range(-15, 16, 2):
            if wedge.flip(sign, t, w) is not None:
                assert t in own or t <= -3, (sign, t, w)


def test_invalid_bases_rejected():
    with pytest.raises(ValueError):
        WedgeBasis((-1,), ())
    with pytest.raises(ValueError):
        WedgeBasis((), (1,))
    with pytest.raises(ValueError):
        WedgeBasis((-3, -3), ())
    with pytest.raises(ValueError):
        WedgeBasis((), (4,))
    with pytest.raises(ValueError, match="neg must be strictly ascending"):
        WedgeBasis((-3, -5), ())
    with pytest.raises(ValueError, match="holes must be strictly ascending"):
        WedgeBasis((), (5, 5))
