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
from sl2crit.harness import (CheckSpec, state_basis,
                             verify_current_relations, wedge_bases_up_to)
from sl2crit.rep import (NotAWeightVector, State, act, alpha0_eig,
                         basis_state, c_act, chevalley_act, lattice_d_eig, v0,
                         v1, weight_of)

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
    mode = "A" if kind == "x" else "A*"
    lat = -p if kind == "x" else p
    dp = 1 if kind == "x" else -1

    ann = _apply_exp(_exp_entries(sup, "-", ncap), FockElement.basis(fm), ncap)
    out = {}
    for e_ann, felem in ann.items():
        creations = _apply_exp(_exp_entries(sup, "+", ncap), felem, ncap)
        for t in range(-2 * ncap - 1, 2 * ncap + 2, 2):
            welem = wedge.apply_mode(mode, t, wedge.WedgeElement.basis(w))
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
            assert act("X", m, s) == oracle_field("x", m, key), ("x", m, key)
            assert act("Y", m, s) == oracle_field("y", m, key), ("y", m, key)


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
            terms, den = rep._kernel("X" if sign > 0 else "Y", m, key)
            got = {k: Fraction(c, den) for k, c in terms}
            assert len(got) == len(terms) and all(got.values())
            assert got == direct_field(sign, m, key).terms, (sign, m, key)
            nonzero += bool(got)
    assert nonzero > 500


def test_reach_is_the_outermost_own_mode():
    # _reach reads the last hole or the first extra negative; the bound it
    # states is the one of wedge.own_modes, on 135 wedges x 7 charges.
    wedges = list(wedge_bases_up_to(8))
    assert len(wedges) == 135
    for w in wedges:
        for p in range(-3, 4):
            for sign, step in (("+", 1), ("-", -1)):
                want = ((max(wedge.own_modes(step, w), default=-3) + 1) // 2
                        + step * p)
                assert rep._reach(sign, w, p) == want, (sign, w, p)


class TestGroundTruthVectors:
    def test_f0_v0(self):
        want = basis_state((), wedge.WedgeBasis((-3,), ()), 1, -2)
        assert chevalley_act("f0", v0()) == want

    def test_x0_kills_v0(self):
        assert not act("X", 0, v0())

    def test_annihilations(self):
        for g in ("e0", "e1", "f1"):
            assert not chevalley_act(g, v0()), g
        for g in ("e0", "e1", "f0"):
            assert not chevalley_act(g, v1()), g

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
        assert not chevalley_act("h1", v0())
        assert not chevalley_act("h0", v1())
        assert chevalley_act("h1", v1()) == v1().scale(-2)
        assert c_act(v0()) == v0().scale(-2)

    def test_h_creation_on_vacuum(self):
        want = basis_state((2,), wedge.VACUUM, 0)
        assert act("H", -2, v0()) == want

    def test_d_eigenvalues(self):
        assert not act("d", 0, v0())
        assert act("d", 0, v1()) == v1().scale(Fraction(-1, 2))
        s = basis_state((2,), wedge.VACUUM, 0)
        assert act("d", 0, s) == s.scale(-2)


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
            for op in [lambda t: act("X", 1, t), lambda t: act("X", -2, t),
                       lambda t: act("Y", 0, t), lambda t: act("Y", -1, t),
                       lambda t: act("H", 2, t),
                       lambda t: act("H", -1, t)]:
                for (fm2, w2, p2), _ in op(s):
                    assert w2.charge - p2 == rel

    def test_linearity(self):
        s = v0() + basis_state((1,), wedge.VACUUM, 0, Fraction(1, 3))
        assert c_act(s) == c_act(v0()) + c_act(
            basis_state((1,), wedge.VACUUM, 0, Fraction(1, 3)))

    def test_xy_bracket_with_central_term(self):
        s = basis_state((1,), wedge.WedgeBasis((-3,), ()), -1)
        for m in range(-2, 3):
            lhs = act("X", m, act("Y", -m, s)) - act("Y", -m, act("X", m, s))
            want = act("H", 0, s) + s.scale(-2 * m)
            assert lhs == want

    def test_h0_rejected_by_fock_layer(self):
        with pytest.raises(ValueError):
            fock.h_act(0, fock.ONE)


class TestCompiledWindow:
    def test_words_match_fraction_fields(self):
        # On state_basis(4, 1) with modes -2..2, for every operator of
        # rep.LETTERS: one- and two-letter words, and three-letter words
        # that end in X, Y or H, equal the composed State path.
        assert set(rep.LETTERS) == {"X", "Y", "H", "Z+", "Z-", "d"}
        win = rep.Window({})
        words = triples = 0
        for key in state_basis(4, 1):
            assert win.residual(key, (1, ())) == State.basis(key)
            for a in rep.LETTERS:
                for m in range(-2, 3):
                    image = act(a, m, State.basis(key))
                    assert win.residual(key, (1, ((a, m),))) == image
                    for b in rep.LETTERS:
                        image2 = act(b, -m, image)
                        got = win.residual(key, (1, ((b, -m), (a, m))))
                        assert got == image2, (key, a, m, b)
                        for c in "XYH":
                            got = win.residual(
                                key, (3, ((c, 1), (b, -m), (a, m))))
                            want = act(c, 1, image2).scale(3)
                            assert got == want, (key, a, m, b, c)
                            triples += 1
                    words += 1 + len(rep.LETTERS)
        assert words == 3990 and triples == 10260
        assert len(win.rows) > 1000

    def test_residual_is_zero_exactly_when_the_vector_is(self):
        win = rep.Window({})
        key = ((), wedge.VACUUM, 0)
        # X(-3) v0 has coefficients -1/4 and 1/2 and charge 1, so H(0)
        # acts on it by 2.
        x3 = (("X", -3),)
        hx3 = (("H", 0), ("X", -3))
        assert any(c.denominator > 1 for _, c in act("X", -3, v0()))
        assert not win.residual(key, (1, hx3), (-2, x3))
        assert win.residual(key, (1, hx3), (-1, x3)) == act("X", -3, v0())
        assert not win.residual(key, (2, ()), (-2, ()))
        assert win.residual(key, (1, ()), (1, ())) == v0().scale(2)


def _recorded_windows(spec):
    """Every rep.Window that verify_current_relations opens on spec, in
    order, kept alive after the run with the keys that it was asked
    about."""
    opened = []

    class Recording(rep.Window):
        def __init__(self, rows):
            super().__init__(rows)
            self.keys = set()
            opened.append(self)

        def residual(self, key, *terms):
            self.keys.add(key)
            return super().residual(key, *terms)

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
        terms = dict.fromkeys(("X", "Y", "H", "Z+", "Z-"), 0)
        for key in state_basis(6, 2):
            s = State.basis(key)
            for m in range(-3, 4):
                for name in terms:
                    image = act(name, m, s)
                    assert {rep.sector(k) for k in image.terms} \
                        <= {rep.sector(key)}, (key, name, m)
                    terms[name] += len(image)
        assert sum(terms.values()) > 3000 and min(terms.values()) > 100

    def test_omega_paths_stay_in_their_sector(self, windows):
        paths = 0
        for win in windows:
            (c,) = {rep.sector(key) for key in win.keys}
            for (_, _, wp, _), out in win._letters.items():
                assert rep.sector(((),) + wp) == c
                assert all(rep.sector(((),) + wp2) == c
                           for _, wp2, *_ in out)
                paths += len(out)
        assert paths > 5000

    def test_one_window_per_sector(self, windows):
        spec = self.SPEC
        sectors = {rep.sector(key) for key in
                   state_basis(spec.max_twice_deg, spec.charge_bound)}
        assert len(sectors) == len(windows) == 5
        seen = [{rep.sector(key) for key in win.keys} for win in windows]
        assert all(len(s) == 1 for s in seen)
        assert set().union(*seen) == sectors

    def test_fock_rows_are_homogeneous(self, windows):
        # One table for the call, shared by its windows; each row is
        # homogeneous, and a nonempty one has the product of its labels'
        # dens: e_den(deg + k) for a vertex row Γ_k, 1 for H(n).
        (rows,) = {id(win.rows): win.rows for win in windows}.values()
        assert len(rows) > 1000
        for (labels, mono), (pairs, den) in rows.items():
            deg, want = sum(mono), 1
            for kind, n in labels:
                if kind == "H":
                    deg -= n
                else:
                    want, deg = want * fock._e_den(deg + n), deg + n
            assert {sum(mono2) for mono2, _ in pairs} <= {deg}
            assert all(type(c) is int and c for _, c in pairs)
            assert not pairs or den == want, (labels, mono)


def test_fock_rows_live_for_one_call():
    # A second call under a doubled vertex row sees the patch: [X, Y]
    # becomes 4 H, and the brackets with H stay linear in X and Y.
    spec = CheckSpec(mode_bound=1, max_twice_deg=4, charge_bound=1)
    assert verify_current_relations(spec).passed
    orig = fock._vertex_monomial

    def doubled(sup, k, mono):
        pairs, den = orig(sup, k, mono)
        return tuple((mono2, 2 * c) for mono2, c in pairs), den
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fock, "_vertex_monomial", doubled)
        report = verify_current_relations(spec)
    assert report.failures
    assert {f["identity"] for f in report.failures} == {"bracket_X_Y"}
    assert verify_current_relations(spec).passed


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


def test_rational_serialization():
    s = (rep.basis_state(coeff=Fraction(-3, 4))
         + rep.basis_state((1,), coeff=Fraction(10, 2)))
    coeffs = [t["coeff"] for t in rep.state_to_json(s)["terms"]]
    assert coeffs == ["-3/4", "5"]


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
    st.dictionaries(st.tuples(st.just(()), WEDGES, CHARGES), COEFFS,
                    max_size=6).map(State))


@settings(max_examples=150, deadline=None)
@given(STATES)
@example(State())
@example(basis_state((), wedge.WedgeBasis((-5, -3), (3, 9)), -2,
                     Fraction(-7, 4)))
def test_state_text_is_indent_2_json(s):
    text = rep.state_text(s)
    assert text == json.dumps(rep.state_to_json(s), indent=2)
    assert rep.state_from_json(json.loads(text)) == s


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
