"""The raising/lowering components are cross-checked against a brute-force
series oracle: each tensor factor is expanded as a truncated formal series
(the exponentials by raw power series of their exponent, the oscillator
field mode by mode, the lattice z-power literally) and the z-coefficient
is extracted from the triple convolution."""

import importlib
import json
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import sl2crit
from sl2crit import fock, rep, wedge, zalg
from sl2crit.fock import FockElement
from sl2crit.harness import CheckSpec, state_basis, verify_current_relations
from sl2crit.rep import (NotAWeightVector, State, alpha0_eig, basis_state,
                         c_act, chevalley_act, d_act, h_act_full,
                         lattice_d_eig, v0, v1, weight_of, x_act, y_act)
from sl2crit.zalg import OmegaState

N_TRUNC = 8


def _apply_single(n, scalar, elem):
    """scalar * H(n) applied to a Fock element."""
    return fock.h_act(n, elem).scale(scalar)


def _apply_exp(entries, v, ncap):
    """exp(sum of scalar*H(mode)*z^zexp) applied to v, as a dict
    z-exponent -> FockElement truncated to |z-exponent| <= ncap.

    Raw power series: sum_r (linear part)^r / r!.
    """
    total = {0: v}
    term = {0: v}
    r = 0
    while term:
        r += 1
        new = {}
        for e, elem in term.items():
            for zexp, n, scalar in entries:
                e2 = e + zexp
                if abs(e2) > ncap:
                    continue
                add = _apply_single(n, scalar, elem)
                if not add:
                    continue
                prev = new.get(e2, FockElement.zero())
                new[e2] = prev + add
        term = {e: elem.scale(Fraction(1, r)) for e, elem in new.items()
                if elem}
        for e, elem in term.items():
            total[e] = total.get(e, FockElement.zero()) + elem
        if r > 4 * ncap:
            raise AssertionError("oracle truncation failed to terminate")
    return {e: elem for e, elem in total.items() if elem}


def _exp_entries(sup, sub, ncap):
    if sub == "+":
        sgn = -1 if sup == "+" else 1
        return [(n, -n, Fraction(sgn, 2 * n)) for n in range(1, ncap + 1)]
    sgn = 1 if sup == "+" else -1
    return [(-n, n, Fraction(sgn, 2 * n)) for n in range(1, ncap + 1)]


def oracle_field(kind, m, key, ncap=N_TRUNC):
    """Coefficient of z^{-m} of the raising ('x') or lowering ('y') field
    on a basis triple, by direct truncated-series convolution."""
    fm, w, p = key
    sup = "+" if kind == "x" else "-"
    mode_act = wedge.a_act if kind == "x" else wedge.astar_act
    lat = -p if kind == "x" else p
    dp = 1 if kind == "x" else -1

    ann = _apply_exp(_exp_entries(sup, "-", ncap), FockElement.basis(fm), ncap)
    out = {}
    for e_ann, felem in ann.items():
        creations = _apply_exp(_exp_entries(sup, "+", ncap), felem, ncap)
        for t in range(-2 * ncap - 1, 2 * ncap + 2, 2):
            welem = mode_act(t, w)
            if not welem:
                continue
            zf = -(t + 1) // 2
            e_cre = -m - e_ann - zf - lat
            if e_cre < 0:
                continue
            assert e_cre <= ncap, "oracle truncation too small"
            for mono2, c2 in creations.get(e_cre, FockElement.zero()):
                for w2, cw in welem:
                    k = (mono2, w2, p + dp)
                    out[k] = out.get(k, Fraction(0)) + c2 * cw
    return State(out)


class TestFieldComponentsAgainstOracle:
    @pytest.mark.parametrize("key", [
        ((), wedge.VACUUM, 0),
        ((), wedge.VACUUM, -1),
        ((1,), wedge.VACUUM, 0),
        ((2, 1), wedge.WedgeBasis((-3,), ()), 1),
        ((), wedge.WedgeBasis((-5,), (3,)), -1),
        ((1, 1), wedge.WedgeBasis((), (3,)), 0),
    ])
    def test_x_and_y_match(self, key):
        s = State.basis(key)
        for m in range(-2, 3):
            assert x_act(m, s) == oracle_field("x", m, key), ("x", m, key)
            assert y_act(m, s) == oracle_field("y", m, key), ("y", m, key)


def direct_field(sign, m, key):
    """X(m) (sign +1) or Y(m) (sign -1) on a basis triple by the direct
    sum over the annihilation depth k2 and the oscillator mode t of
    E_+(k1) flip(sign, t) E_-(-k2), with k1 fixed by the z-balance
    k1 - k2 - (t+1)/2 - sign*p = -m; no Z-operator is involved."""
    mono, w, p = key
    sup = "+" if sign > 0 else "-"
    # A perturbation at doubled index ±t adds (t - 1)/2 to the wedge
    # degree, so no mode above 2 degree + 1 undoes one.
    tmax = 2 * w.degree() + 1
    out = State.zero()
    for k2 in range(sum(mono) + 1):
        ann = fock.e_coeff(sup, "-", -k2, FockElement.basis(mono))
        for t in range(2 * (m - sign * p - k2) - 1, tmax + 1, 2):
            term = wedge.flip(sign, t, w)
            if term is None:
                continue
            w2, cw = term
            cre = fock.e_coeff(sup, "+", k2 + (t + 1) // 2 + sign * p - m, ann)
            out += State({(mono2, w2, p + sign): c * cw for mono2, c in cre})
    return out


@pytest.mark.parametrize("sign", [1, -1])
def test_field_kernel_matches_direct_oscillator_sum(sign):
    # Every key of state_basis(8, 2) and m = -3..3: the kernel read as
    # Fractions, with no repeated key and no zero, is the direct sum.
    nonzero = 0
    for key in state_basis(8, 2):
        for m in range(-3, 4):
            terms, den = rep._field_basis(sign, m, *key)
            got = {k: Fraction(c, den) for k, c in terms}
            assert len(got) == len(terms) and all(got.values())
            assert got == direct_field(sign, m, key).terms, (sign, m, key)
            nonzero += bool(got)
    assert nonzero > 500


class TestGroundTruthVectors:
    def test_f0_v0(self):
        want = basis_state((), wedge.WedgeBasis((-3,), ()), 1, -2)
        assert chevalley_act("f0", v0()) == want

    def test_x0_kills_v0(self):
        assert x_act(0, v0()).is_zero()

    def test_annihilations(self):
        for g in ("e0", "e1", "f1"):
            assert chevalley_act(g, v0()).is_zero(), g
        for g in ("e0", "e1", "f0"):
            assert chevalley_act(g, v1()).is_zero(), g

    def test_f1_v1_from_oracle(self):
        # The lowering step out of v1; value fixed by the literal series
        # oracle (coefficient +2: the removed factor sits in the second
        # slot of the word, and e1.(f1.v1) = -2 v1 pins the sign).
        got = chevalley_act("f1", v1())
        assert got == oracle_field("y", 0, ((), wedge.VACUUM, -1))
        want = basis_state((), wedge.WedgeBasis((), (3,)), -2, 2)
        assert got == want

    def test_two_step_lowering_raising(self):
        assert chevalley_act("e0", chevalley_act("f0", v0())) == v0().scale(-2)
        assert chevalley_act("e1", chevalley_act("f1", v1())) == v1().scale(-2)

    def test_h_and_c(self):
        assert chevalley_act("h0", v0()) == v0().scale(-2)
        assert chevalley_act("h1", v0()).is_zero()
        assert chevalley_act("h0", v1()).is_zero()
        assert chevalley_act("h1", v1()) == v1().scale(-2)
        assert c_act(v0()) == v0().scale(-2)

    def test_h_creation_on_vacuum(self):
        want = basis_state((2,), wedge.VACUUM, 0)
        assert h_act_full(-2, v0()) == want

    def test_d_eigenvalues(self):
        assert d_act(v0()).is_zero()
        assert d_act(v1()) == v1().scale(Fraction(-1, 2))
        s = basis_state((2,), wedge.VACUUM, 0)
        assert d_act(s) == s.scale(-2)


class TestWeights:
    def test_v0(self):
        w = weight_of(v0())
        assert (w.h0, w.h1, w.d) == (-2, 0, 0)

    def test_v1(self):
        w = weight_of(v1())
        assert (w.h0, w.h1, w.d) == (0, -2, Fraction(-1, 2))

    def test_mixed_vector_rejected(self):
        with pytest.raises(NotAWeightVector):
            weight_of(v0() + v1())

    def test_zero_rejected(self):
        with pytest.raises(NotAWeightVector):
            weight_of(State.zero())


class TestStructuralInvariants:
    def test_charge_particle_correlation(self):
        # wedge charge minus lattice charge is preserved by every generator.
        keys = [((1,), wedge.WedgeBasis((-3,), ()), 0),
                ((), wedge.WedgeBasis((), (3, 5)), -1)]
        for key in keys:
            s = State.basis(key)
            rel = key[1].charge - key[2]
            for op in [lambda t: x_act(1, t), lambda t: x_act(-2, t),
                       lambda t: y_act(0, t), lambda t: y_act(-1, t),
                       lambda t: h_act_full(2, t),
                       lambda t: h_act_full(-1, t)]:
                for (fm2, w2, p2), _ in op(s):
                    assert w2.charge - p2 == rel

    def test_linearity(self):
        s = v0() + basis_state((1,), wedge.VACUUM, 0, Fraction(1, 3))
        assert c_act(s) == c_act(v0()) + c_act(
            basis_state((1,), wedge.VACUUM, 0, Fraction(1, 3)))

    def test_xy_bracket_with_central_term(self):
        s = basis_state((1,), wedge.WedgeBasis((-3,), ()), -1)
        for m in range(-2, 3):
            lhs = x_act(m, y_act(-m, s)) - y_act(-m, x_act(m, s))
            want = h_act_full(0, s) + s.scale(-2 * m)
            assert lhs == want

    def test_h0_rejected_by_fock_layer(self):
        with pytest.raises(ValueError):
            fock.h_act(0, fock.ONE)


class TestCompiledWindow:
    ACT = {"X": x_act, "Y": y_act, "H": h_act_full,
           "Z+": lambda m, s: zalg.z_act_full("+", m, s),
           "Z-": lambda m, s: zalg.z_act_full("-", m, s),
           "d": lambda m, s: d_act(s)}

    def test_columns_match_fraction_fields(self):
        # Every column built for window (4, 1) with modes -2..2, for every
        # operator of rep.KERNELS, on the basis and on the images under one
        # more operator, equals the State action on its key; one- and
        # two-op words equal the State path.
        assert set(self.ACT) == set(rep.KERNELS)
        win = rep.Window()
        words = 0
        for key in state_basis(4, 1):
            i = win.intern(key)
            assert win.residual(i, (1, ())) == State.basis(key)
            for a in rep.KERNELS:
                for m in range(-2, 3):
                    image = self.ACT[a](m, State.basis(key))
                    assert win.residual(i, (1, ((a, m),))) == image
                    for b in rep.KERNELS:
                        got = win.residual(i, (1, ((b, -m), (a, m))))
                        assert got == self.ACT[b](-m, image), (key, a, m, b)
                    words += 1 + len(rep.KERNELS)
        assert words == 3990
        assert len(win._columns) > 1000
        for (op, m, i), (col, den) in win._columns.items():
            assert type(den) is int and all(type(c) is int for _, c in col)
            got = {win.keys[j]: Fraction(c, den) for j, c in col}
            assert got == self.ACT[op](m, State.basis(win.keys[i])).terms

    def test_residual_is_zero_exactly_when_the_vector_is(self):
        win = rep.Window()
        i = win.intern(((), wedge.VACUUM, 0))
        # X(-3) v0 has coefficients -1/4 and 1/2 and charge 1, so H(0)
        # acts on it by 2.
        x3 = (("X", -3),)
        hx3 = (("H", 0), ("X", -3))
        assert any(c.denominator > 1 for _, c in x_act(-3, v0()))
        assert not win.residual(i, (1, hx3), (-2, x3))
        assert win.residual(i, (1, hx3), (-1, x3)) == x_act(-3, v0())
        assert not win.residual(i, (2, ()), (-2, ()))
        assert win.residual(i, (1, ()), (1, ())) == v0().scale(2)


def _recorded_windows(spec):
    """Every rep.Window that verify_current_relations opens on spec, in
    order, kept alive after the run."""
    opened = []

    class Recording(rep.Window):
        def __init__(self):
            super().__init__()
            opened.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rep, "Window", Recording)
        assert verify_current_relations(spec).passed
    return opened


class TestSectors:
    SPEC = CheckSpec(mode_bound=3, max_twice_deg=5, charge_bound=2)

    @pytest.fixture(scope="class")
    def windows(self):
        return _recorded_windows(self.SPEC)

    def test_operators_conserve_the_sector(self):
        ops = {"X": x_act, "Y": y_act, "H": h_act_full,
               "Z+": lambda m, s: zalg.z_act_full("+", m, s),
               "Z-": lambda m, s: zalg.z_act_full("-", m, s)}
        terms = dict.fromkeys(ops, 0)
        for key in state_basis(6, 2):
            s = State.basis(key)
            for m in range(-3, 4):
                for name, op in ops.items():
                    image = op(m, s)
                    assert {rep.sector(k) for k in image.terms} \
                        <= {rep.sector(key)}, (key, name, m)
                    terms[name] += len(image)
        assert sum(terms.values()) > 3000 and min(terms.values()) > 100

    def test_window_columns_stay_in_their_sector(self, windows):
        columns = 0
        for win in windows:
            for (_, _, i), (col, _) in win._columns.items():
                c = rep.sector(win.keys[i])
                assert all(rep.sector(win.keys[j]) == c for j, _ in col)
                columns += 1
        assert columns > 10000

    def test_one_window_per_sector(self, windows):
        spec = self.SPEC
        sectors = {rep.sector(key) for key in
                   state_basis(spec.max_twice_deg, spec.charge_bound)}
        assert len(sectors) == len(windows) == 5
        seen = [{rep.sector(key) for key in win.keys} for win in windows]
        assert all(len(s) == 1 for s in seen)
        assert set().union(*seen) == sectors


def _cached_functions():
    """Module-level cached functions of the package, by module.name."""
    cached = {}
    for info in pkgutil.iter_modules(sl2crit.__path__):
        mod = importlib.import_module(f"sl2crit.{info.name}")
        cached.update((f"{info.name}.{name}", obj)
                      for name, obj in vars(mod).items()
                      if hasattr(obj, "cache_info")
                      and obj.__module__ == mod.__name__)
    return cached


def test_cached_functions_are_the_exponential_tables_and_z_basis():
    # The field kernels are uncached; the only caches are the partition,
    # exponential and vertex tables in fock and the Z kernel that X, Y
    # and Z± share.
    assert set(_cached_functions()) == {
        "fock._partitions", "fock._e_coeff_monomial",
        "fock._vertex_monomial", "rep._z_basis"}


def test_every_cache_is_bound_in_one_module():
    # An imported alias of a cache (`from .rep import _z_basis`) is a second
    # module attribute for the same cache, and bench/worker.py, which reads
    # cache_info() of every module attribute, would count it twice.
    homes = {}
    for info in pkgutil.iter_modules(sl2crit.__path__):
        mod = importlib.import_module(f"sl2crit.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info"):
                homes.setdefault(id(obj), []).append(f"{info.name}.{name}")
    assert sorted(homes.values()) == [[name]
                                      for name in sorted(_cached_functions())]


def test_every_cache_is_bounded():
    unbounded = [name for name, fn in _cached_functions().items()
                 if fn.cache_info().maxsize is None]
    assert unbounded == []


def test_state_serialization_round_trip():
    s = (basis_state((3, 1), wedge.WedgeBasis((-5,), (3,)), 2, Fraction(7, 3))
         + v1().scale(-1))
    assert rep.state_from_json(rep.state_to_json(s)) == s


# Wedges with up to three extra negative factors in -11/2..-3/2 and up to
# three holes in 3/2..11/2, as doubled indices.
WEDGES = st.builds(
    lambda neg, holes: wedge.WedgeBasis(tuple(sorted(neg)),
                                        tuple(sorted(holes))),
    st.sets(st.sampled_from(range(-11, -1, 2)), max_size=3),
    st.sets(st.sampled_from(range(3, 13, 2)), max_size=3))
COEFFS = st.fractions(-20, 20, max_denominator=12).filter(bool)
CHARGES = st.integers(-3, 3)
MONOMIALS = st.lists(st.integers(1, 4), max_size=4).map(
    lambda parts: fock.monomial(*parts))
STATES = st.one_of(
    st.dictionaries(st.tuples(MONOMIALS, WEDGES, CHARGES), COEFFS,
                    max_size=6).map(State),
    st.dictionaries(st.tuples(WEDGES, CHARGES), COEFFS,
                    max_size=6).map(OmegaState))


@settings(max_examples=150, deadline=None)
@given(STATES)
@example(State())
@example(OmegaState())
@example(basis_state((), wedge.WedgeBasis((-5, -3), (3, 9)), -2,
                     Fraction(-7, 4)))
def test_state_text_is_indent_2_json(s):
    text = rep.state_text(s)
    assert text == json.dumps(rep.state_to_json(s), indent=2)
    assert rep.state_from_json(json.loads(text), type(s)) == s


def test_unknown_generator():
    with pytest.raises(ValueError):
        chevalley_act("e2", v0())


def test_alpha0_eig():
    assert alpha0_eig(0) == 0
    assert alpha0_eig(1) == 2
    assert alpha0_eig(-1) == -2


def test_alpha0_additive_under_charge_shift():
    # Multiplying by e^{b*alpha} shifts the charge p to p + b.
    for p in range(-4, 5):
        for b in range(-3, 4):
            assert alpha0_eig(p + b) == alpha0_eig(p) + 2 * b


def test_d_eigenvalue():
    assert lattice_d_eig(0) == 0
    assert lattice_d_eig(-1) == Fraction(-1, 2)
    assert lattice_d_eig(2) == -2


def test_d_charge_symmetric():
    for p in range(7):
        assert lattice_d_eig(p) == lattice_d_eig(-p)
