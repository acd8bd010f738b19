"""The level -2 module V = Fock ⊗ restricted wedge ⊗ lattice and the exact
component actions of the affine generators on it.

The raising/lowering fields are the Z-operators dressed by the Heisenberg
exponentials: a finite sum over Z-modes of one cached Fock vertex row
times one cached oscillator flip.  Every bound in the sum is exact: the
Fock side is capped by the degree of the term, the Z-modes by the term's
outermost perturbation (_reach), so no heuristic cutoff is involved.

The lattice z-power reads the charge of the *input* term; this ordering is
what reproduces the ground-truth values of the simple lowering operators
on the two canonical highest weight vectors.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii as _quote
from math import lcm

from . import fock, wedge
from .linear import LinearCombination, combine


class State(LinearCombination):
    """Finite rational combination of (Fock monomial, wedge, charge) triples."""


def basis_state(fockmono=(), wedgebasis=wedge.VACUUM, charge=0, coeff=1):
    return State.basis((tuple(fockmono), wedgebasis, charge), coeff)


def v0():
    """Highest weight vector at charge 0: 1 ⊗ vacuum wedge ⊗ e^0."""
    return basis_state()


def v1():
    """Highest weight vector at charge -1: 1 ⊗ vacuum wedge ⊗ e^{-alpha}."""
    return basis_state(charge=-1)


# The lattice factor: charge p stands for e^{p*alpha}, and (alpha, alpha) = 2
# fixes both eigenvalues below.

def alpha0_eig(p):
    """Eigenvalue of the zero mode alpha(0) = H(0) on e^{p*alpha}."""
    return 2 * p


def lattice_d_eig(p):
    """Eigenvalue of the derivation d on e^{p*alpha}: -(p*alpha, p*alpha)/4."""
    return Fraction(-p * p, 2)


class NotAWeightVector(ValueError):
    """Raised when a state is not a simultaneous h0/h1/d eigenvector."""


WeightTriple = namedtuple("WeightTriple", ("h0", "h1", "d"))


# Entries kept by the _z_basis cache.  X, Y and the Z-operators apply the
# same one-oscillator flips across all their modes and sign pairs: the
# Z-algebra suite at window (3,3,2) makes 37,782 calls on 3,736 distinct
# (sign, mode, key) triples, the current suite at (4,10,2) 179,696 on 9,142.
Z_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=Z_CACHE_SIZE)
def _z_basis(sign, m, key):
    """Component m of Z^sign on a basis key (w, p) of the vacuum space:
    one oscillator mode, A(m - p - 1/2) for '+' and A*(m + p - 1/2) for
    '-', with the charge shifted by one in the direction of the sign.
    Returns ((w2, p2), int coefficient), or None when the mode annihilates
    (w, p)."""
    w, p = key
    step = 1 if sign == "+" else -1
    term = wedge.flip(step, 2 * (m - step * p) - 1, w)
    return ((term[0], p + step), term[1]) if term else None


def _reach(sign, w, p):
    """Bound on the modes of Z^sign that act on (w, p): Z^sign(j) is zero
    for every j above it.

    Z^sign(j) is the oscillator flip(step, t, w), step = +1 for '+' and -1
    for '-', at t = 2(j - step*p) - 1.  It acts only at the modes of
    wedge.own_modes and at t <= -3 (t = 1 has the scalar t/2 - 1/2 = 0).
    So the largest j that can act comes from the outermost own mode, or
    from t = -3 when there is none.  WedgeBasis keeps both of its tuples
    ascending, so that mode is the last hole for '+' and minus the first
    extra negative for '-', read in O(1).
    """
    if sign == "+":
        holes = w.holes
        return ((holes[-1] if holes else -3) + 1) // 2 + p
    neg = w.neg
    return ((-neg[0] if neg else -3) + 1) // 2 - p


# Every operator on V = Fock ⊗ Ω has one definition, split over the two
# factors, which _kernel and Window both read.  Its Ω side, a letter, maps
# (m, (w, p), deg), deg the degree of the Fock factor, to its paths
#     (label, (w2, p2), int, den, degree change):
# the Fock map that label names (_fock_map; None is the identity) times
# the Ω key (w2, p2) times int/den.  Every Fock map is homogeneous and
# changes the degree by the path's last entry, so deg is all that a letter
# needs of the Fock factor.

def _field_letter(sup, m, wp, deg):
    """X(m) (sup '+') or Y(m) (sup '-'): one path per Z-mode j that acts.

    X(z) = E^+_+(z) E^+_-(z) Z^+(z) and Y the same with the '-' signs: the
    Heisenberg exponentials dress the Z-operator, and V = Fock ⊗ Ω.  The
    field's oscillator at mode t with creation power k1 and annihilation
    depth k2 balances as k1 - k2 - (t+1)/2 - sign*p = -m.  Put
    t = 2(j - sign*p) - 1, the mode of Z(j) (_z_basis); then
    k1 - k2 = j - m, so
        X(m) (mono ⊗ ω) = sum_j Γ_{j-m}(mono) ⊗ Z(j) ω,
    Γ_k the z^k coefficient of the two exponentials, labelled (sup, k)
    (the fock kernel _vertex_monomial, over 2^K K! at K = deg + k).
    Γ_k vanishes below k = -deg and Z(j) above _reach, so j runs over
    m - deg .. _reach.  Distinct j flip distinct modes and give distinct
    wedges, so no Ω key repeats.
    """
    out = []
    for j in range(_reach(sup, *wp), m - deg - 1, -1):
        z = _z_basis(sup, j, wp)
        if z:
            out.append(((sup, j - m), z[0], z[1], 1, j - m))
    return out


def _h_letter(n, wp, deg):
    """H(n): the Fock mode, labelled ("H", n), for n != 0; the scalar
    alpha0_eig(p) for n = 0."""
    if n:
        return ((("H", n), wp, 1, 1, -n),)
    p = wp[1]
    return ((None, wp, alpha0_eig(p), 1, 0),) if p else ()


def _z_letter(sign, m, wp, deg):
    """Z^sign(m): the oscillator flip _z_basis on Ω alone.

    Z^sign(m) commutes with every H(n), n != 0, because the exponentials
    that dress the field in its definition cancel its Heisenberg part.
    And V = Fock ⊗ Ω: the key (mono, w, p) is the product of the creation
    modes H(-n), n in mono, applied to the Heisenberg vacuum (w, p) in Ω.
    So Z(m)(mono ⊗ ω) = mono ⊗ Z(m)ω.  zalg.zop_via_definition computes
    the same map from the definition and X or Y, which are built on
    _z_basis too, so it checks the Heisenberg dressing, not the
    oscillator.
    """
    z = _z_basis(sign, m, wp)
    return ((None, z[0], z[1], 1, 0),) if z else ()


def _d_letter(m, wp, deg):
    """d, ignoring m: twice its eigenvalue -deg - (wedge degree) - p^2/2,
    over 2; () at 0."""
    w, p = wp
    c = int(2 * (lattice_d_eig(p) - deg - w.degree()))
    return ((None, wp, c, 2, 0),) if c else ()


# Operator name -> letter.  _kernel and Window look a letter up here when
# they call it, so a patched entry acts in both.
LETTERS = {"X": partial(_field_letter, "+"), "Y": partial(_field_letter, "-"),
           "H": _h_letter, "Z+": partial(_z_letter, "+"),
           "Z-": partial(_z_letter, "-"), "d": _d_letter}


def _fock_map(label, mono):
    """The Fock map of a label on a monomial, as its fock kernel
    (((mono2, int), ...), den): fock._h_kernel for ("H", n), else the
    vertex row Γ_k of sup, fock._vertex_monomial."""
    kind, n = label
    if kind == "H":
        return fock._h_kernel(n, mono)
    return fock._vertex_monomial(kind, n, mono)


def _kernel(op, m, key):
    """op(m) on a basis triple, (((key2, int), ...), den): the one-letter
    word of LETTERS, each path lifted to the lcm of their denominators.
    X and Y come over the den of their vertex row of largest creation
    power K = deg + j - m."""
    mono, w, p = key
    deg = sum(mono)
    paths = []
    lift = 1
    for label, wp, c, den, _ in LETTERS[op](m, (w, p), deg):
        if label:
            pairs, d = _fock_map(label, mono)
            if not pairs:
                continue
            den *= d
        else:
            pairs = ((mono, 1),)
        paths.append((pairs, wp, c, den))
        lift = lcm(lift, den)
    out = []
    for pairs, (w2, p2), c, den in paths:
        c *= lift // den
        out += [((mono2, w2, p2), c * x) for mono2, x in pairs]
    return out, lift


def act(op, m, s):
    """op(m) on a state, d ignoring m: the linear extension of _kernel.
    An op that is not in LETTERS is refused before s is read."""
    if op not in LETTERS:
        raise ValueError(f"unknown operator {op!r}")
    return s.map_basis(partial(_kernel, op, m))


def sector(key):
    """The sector c = p - charge(w) of a basis triple, which every operator
    in LETTERS conserves: X, Y and Z± move p and charge(w) together."""
    return key[2] - key[1].charge


class Window:
    """Words of LETTERS on the keys of one sector, factor by factor.

    A word is expanded over Ω first, by letters cached per
    (op, m, (w, p), deg) for the life of the window; every operator
    conserves the sector, so these only meet Ω keys of it.  Each path then
    reads one Fock word row from `rows`, a table that does not depend on
    the sector and that the windows of one suite call share.
    """

    def __init__(self, rows):
        self.rows = rows
        self._letters = {}

    def _letter(self, op, m, wp, deg):
        """The paths of LETTERS[op] at (m, wp, deg)."""
        paths = self._letters.get((op, m, wp, deg))
        if paths is None:
            paths = self._letters[op, m, wp, deg] = tuple(
                LETTERS[op](m, wp, deg))
        return paths

    def _row(self, labels, mono):
        """The Fock maps of labels, innermost first, composed on mono:
        (((mono2, int), ...), den), each step one combine of the images of
        the inner row.  Every map is homogeneous, so a nonempty row's den
        is the product of theirs."""
        if not labels:
            return ((mono, 1),), 1
        row = self.rows.get((labels, mono))
        if row is None:
            inner, den = self._row(labels[:-1], mono)
            sums, d = combine([(c, _fock_map(labels[-1], mono2))
                               for mono2, c in inner])
            row = self.rows[labels, mono] = tuple(sums.items()), den * d
        return row

    def residual(self, key, *terms):
        """The sum of scalar * word(key) over (int, word) terms, a word
        being a tuple of (op, m), outermost first; () is the identity.

        Each path of a word, (labels, Ω key, degree, int, den), gets the
        Fock row of its labels, and the rows are summed per Ω key in ints
        over the lcm of all the denominators.  The result is a State,
        which is zero exactly when those integer vectors are."""
        mono, w, p = key
        rows = self.rows
        start = [((), (w, p), sum(mono), 1, 1)]
        parts = []
        for a, word in terms:
            vec = start
            for op, m in reversed(word):
                vec = [(labels + (label,) if label else labels, wp2,
                        deg + step, s * c, d * den)
                       for labels, wp, deg, s, d in vec
                       for label, wp2, c, den, step
                       in self._letter(op, m, wp, deg)]
            for labels, wp, _, s, d in vec:
                pairs, den = (rows.get((labels, mono))
                              or self._row(labels, mono))
                if pairs:
                    parts.append((wp, pairs, a * s, d * den))
        lift = lcm(*[d for *_, d in parts])
        # By hand: a combine per Ω key ran 6% more bytecode on (3,5,2).
        sums = {}
        for wp, pairs, s, d in parts:
            out = sums.get(wp)
            if out is None:
                out = sums[wp] = {}
            s *= lift // d
            for mono2, c in pairs:
                out[mono2] = out.get(mono2, 0) + s * c
        return State({(mono2,) + wp: Fraction(c, lift)
                      for wp, out in sums.items()
                      for mono2, c in out.items() if c})


def c_act(s):
    return s.scale(-2)


# Chevalley generator -> the (op, m) that it is; h0 = c - h1.
CHEVALLEY = {"e0": ("Y", 1), "e1": ("X", 0), "f0": ("X", -1),
             "f1": ("Y", 0), "h1": ("H", 0)}


def chevalley_act(g, s):
    if g == "h0":
        return c_act(s) - chevalley_act("h1", s)
    if g not in CHEVALLEY:
        raise ValueError(f"unknown generator {g!r}")
    return act(*CHEVALLEY[g], s)


def _eigenvalue(op, s):
    res = op(s)
    key, c = next(iter(s.terms.items()))
    lam = res.coeff(key) / c
    if res != s.scale(lam):
        raise NotAWeightVector("state is not an eigenvector")
    return lam


def weight_of(s):
    """Eigenvalue triple (h0, h1, d) of a simultaneous eigenvector."""
    if not s:
        raise NotAWeightVector("zero state has no weight")
    return WeightTriple(_eigenvalue(partial(chevalley_act, "h0"), s),
                        _eigenvalue(partial(chevalley_act, "h1"), s),
                        _eigenvalue(partial(act, "d", 0), s))


def key_to_json(key):
    """JSON object of one basis key (mono, w, p) of a State."""
    mono, w, p = key
    return {"fock": list(mono), "wedge": wedge.serialize_basis(w),
            "charge": p}


def state_to_json(s):
    """Canonical JSON of a State, ordered by degree."""
    def order(key):
        mono, w, p = key
        return (sum(mono) + w.degree(), p, mono, w.neg, w.holes)

    return {"terms": [{"coeff": str(s.terms[key]),
                       **key_to_json(key)}
                      for key in sorted(s.terms, key=order)]}


# One term of state_to_json as json.dumps(indent=2) writes it at the depth
# of the "terms" list: coeff, fock, neg, holes, charge.
_TERM = """\
    {
      "coeff": %s,
      "fock": %s,
      "wedge": {
        "neg": %s,
        "holes": %s
      },
      "charge": %s
    }"""


def _list_text(items, indent):
    """A list of encoded items with its entries at `indent`, as indent-2
    json.dumps writes it as the value of a key."""
    items = list(items)
    if not items:
        return "[]"
    pad = " " * indent
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[2:]}]"


def _term_text(term):
    w = term["wedge"]
    return _TERM % (_quote(term["coeff"]),
                    _list_text(map(str, term["fock"]), 8),
                    _list_text(map(_quote, w["neg"]), 10),
                    _list_text(map(_quote, w["holes"]), 10), term["charge"])


def state_text(s):
    """json.dumps(state_to_json(s), indent=2), written from the fixed layout
    of a term: strings through the C escaper of the json module, ints
    through str.  The json module encodes indented output in pure Python,
    which made it the largest cost of `sl2crit act`."""
    terms = state_to_json(s)["terms"]
    if not terms:
        return '{\n  "terms": []\n}'
    return ('{\n  "terms": [\n' + ",\n".join(map(_term_text, terms))
            + "\n  ]\n}")


def state_from_json(data):
    """Inverse of state_to_json.  Malformed input raises ValueError; a
    missing field is named with the index of its term."""
    terms = data.get("terms") if isinstance(data, dict) else None
    if not isinstance(terms, list) or not all(isinstance(t, dict)
                                              for t in terms):
        raise ValueError('expected {"terms": [term, ...]}')
    out = {}
    for i, term in enumerate(terms):
        try:
            coeff, charge, w = term["coeff"], term["charge"], term["wedge"]
            mono = term["fock"]
        except KeyError as exc:
            raise ValueError(f"term {i} has no {exc.args[0]!r} field") \
                from None
        if type(coeff) not in (int, str) or type(charge) is not int:
            raise ValueError(f"bad coeff or charge in {term!r}")
        # "n" or "n/d" by int(): Fraction("1e100000000") builds 10**100000000.
        num, slash, den = str(coeff).partition("/")
        try:
            coeff = Fraction(int(num), int(den) if slash else 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {term!r}") from None
        key = (fock.parse_monomial(mono), wedge.parse_basis(w), charge)
        out[key] = out.get(key, 0) + coeff
    return State(out)
