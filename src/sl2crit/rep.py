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
# Z-algebra suite at window (3,3,2) makes 80,438 calls on 4,994 distinct
# (sign, mode, key) triples, the current suite at (4,10,2) 552,792 on 9,142.
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
    from t = -3 when there is none.
    """
    step = 1 if sign == "+" else -1
    return (max(wedge.own_modes(step, w), default=-3) + 1) // 2 + step * p


def _field_basis(sign, m, fockmono, w, p):
    """X(m) (sign +1) or Y(m) (sign -1) on a basis triple, as integer
    numerators over one denominator: (((key, int), ...), den).

    X(z) = E^+_+(z) E^+_-(z) Z^+(z) and Y the same with the '-' signs: the
    Heisenberg exponentials dress the Z-operator, and V = Fock ⊗ Ω.  The
    field's oscillator at mode t with creation power k1 and annihilation
    depth k2 balances as k1 - k2 - (t+1)/2 - sign*p = -m.  Put
    t = 2(j - sign*p) - 1, the mode of Z(j) (_z_basis); then
    k1 - k2 = j - m, so
        X(m) (mono ⊗ ω) = sum_j Γ_{j-m}(mono) ⊗ Z(j) ω,
    Γ_k the z^k coefficient of the two exponentials
    (fock._vertex_monomial).  With deg = sum(mono), Γ_k vanishes below
    k = -deg and Z(j) above _reach, so j runs over m - deg .. _reach.
    Distinct j flip distinct modes and give distinct wedges, so no key
    repeats.  Γ_k has denominator fock._e_den(deg + k), so
    den = fock._e_den(K) for the largest creation power K = deg + j - m
    that occurs.
    """
    sup = "+" if sign > 0 else "-"
    deg = sum(fockmono)
    key = (w, p)
    zs = [(j, z) for j in range(_reach(sup, w, p), m - deg - 1, -1)
          if (z := _z_basis(sup, j, key))]
    if not zs:
        return (), 1
    den = fock._e_den(deg + zs[0][0] - m)
    out = []
    for j, ((w2, p2), cz) in zs:
        lift = cz * (den // fock._e_den(deg + j - m))
        out += [((mono2, w2, p2), lift * c)
                for mono2, c in fock._vertex_monomial(sup, j - m, fockmono)]
    return out, den


def _h_terms(n, fockmono, w, p):
    """H(n) on a basis triple: ((key, nonzero int), ...).  The coefficient
    is 1 for n < 0, -4nk for n > 0 and 2p for n = 0."""
    if n == 0:
        return (((fockmono, w, p), alpha0_eig(p)),) if p else ()
    return tuple(((mono, w, p), c)
                 for mono, c in fock._h_act_monomial(n, fockmono))


def _z_terms(sign, m, key):
    """Z^sign(m) on the (w, p) end of a State key."""
    term = _z_basis(sign, m, key[1:])
    return (((key[0],) + term[0], term[1]),) if term else (), 1


def term_d_eig(fockmono, w, p):
    """d-eigenvalue of a basis triple: -(Fock degree) - (wedge degree)
    - p^2/2."""
    return Fraction(-sum(fockmono)) - w.degree() + lattice_d_eig(p)


def _d_terms(key):
    """d on a basis triple, as twice its eigenvalue over 2; () at 0."""
    c = int(2 * term_d_eig(*key))
    return ((key, c),) if c else (), 2


# Operator name -> integer kernel (m, key) -> (((key2, int), ...), den), d
# ignoring m.  Each entry looks its function up when called, so patches act.
KERNELS = {
    "X": lambda m, key: _field_basis(1, m, *key),
    "Y": lambda m, key: _field_basis(-1, m, *key),
    "H": lambda m, key: (_h_terms(m, *key), 1),
    "Z+": lambda m, key: _z_terms("+", m, key),
    "Z-": lambda m, key: _z_terms("-", m, key),
    "d": lambda m, key: _d_terms(key),
}


def act(op, m, s):
    """op(m) on a state: the linear extension of KERNELS[op]."""
    return s.map_basis(partial(KERNELS[op], m))


# The fields under their public names; d_act(s) takes no mode.
x_act = partial(act, "X")
y_act = partial(act, "Y")
h_act_full = partial(act, "H")
d_act = partial(act, "d", 0)


def sector(key):
    """The sector c = p - charge(w) of a basis triple, which every operator
    in KERNELS conserves: X, Y and Z± move p and charge(w) together."""
    return key[2] - key[1].charge


class Window:
    """The operators of KERNELS compiled for one sector, fraction-free.

    Basis keys are interned to int ids on first use, and the column of an
    operator on an id is built once from its kernel, as int numerators
    over one column denominator.  Every operator conserves the sector, so
    a window opened for one sector only ever interns keys of it.  The
    columns live as long as the window.
    """

    def __init__(self):
        self.keys = []
        self._ids = {}
        self._columns = {}

    def intern(self, key):
        """The int id of a key."""
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.keys)
            self.keys.append(key)
        return i

    def _column(self, op, m, i):
        """op(m) on id i, op a name in KERNELS: (((id, int), ...), den)."""
        col = self._columns.get((op, m, i))
        if col is None:
            terms, den = KERNELS[op](m, self.keys[i])
            col = self._columns[op, m, i] = (
                tuple((self.intern(k), c) for k, c in terms), den)
        return col

    def residual(self, i, *terms):
        """The sum of scalar * word(key i) over (int, word) terms, a word
        being a tuple of (op, m), outermost first; () is the identity.

        Each word is expanded into scaled columns, the innermost used as
        built, and all of them go into one integer `combine` over the lcm
        of their denominators.  The result is a State, which is zero
        exactly when that integer vector is."""
        parts = []
        for a, word in terms:
            vec = [(a, (((i, 1),), 1))]
            for op, m in reversed(word):
                outer = []
                for b, (ids, d) in vec:
                    for j, c in ids:
                        pairs, den = self._column(op, m, j)
                        outer.append((b * c, (pairs, den * d)))
                vec = outer
            parts += vec
        out, lift = combine(parts)
        return State({self.keys[j]: Fraction(c, lift)
                      for j, c in out.items()})


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
                        _eigenvalue(d_act, s))


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
