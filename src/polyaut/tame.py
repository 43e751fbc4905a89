"""Tame generator words and the elementary-then-diagonal normal form.

Generators come in three kinds: Diagonal (c_1 X_1, ..., c_n X_n) with all
c_i nonzero, Elementary (X_i replaced by X_i + g where g does not involve
X_i), and invertible Affine maps X -> AX + b.  A TameWord is a finite
composition, written left to right with the leftmost factor applied last,
F = G_1 o ... o G_s.

normal_form rewrites any word as E_1 o ... o E_s o D in one left to right
scan that keeps the product D of the diagonals seen so far.  The scan has
three cases.  A diagonal is merged into D exactly.  An elementary is pushed
through D once, using the exact rewriting D o E = E~ o D: E~ adds
g~ = c_i * g(X_1/c_1, ..., X_n/c_n) to slot i, and the push is checked
exactly in slot i, the only coordinate where the two sides can differ,
term by term as an integer identity between numerators.  An
affine factor is expanded once, when it is made, by Gauss-Jordan
elimination in integers, which also refuses a singular A; its determinant
and inverse read that expansion too.  In the scan its matrix steps are
each pushed through D as one scalar and built into its elementary once,
and its diagonals are merged; one matrix identity checks the block: it
must recompose to D o [A | b], compared in integers too.  So every
certificate of the normal form is an integer identity, and none
substitutes or composes polynomials.  A failed check raises
InconsistencyError, so it holds under python -O too.  These checks
certify the whole normal form, and the word is never composed as a map
to check it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import sub
from typing import Union

from .endo import Endo
from .poly import (
    InconsistencyError, Poly, Record, _brief, _normal, _over_lcm, check_dimension, is_int,
)
from .textio import _read_rational, parse_poly, render_poly


def _fraction(v) -> Fraction:
    """v as a Fraction: v itself when its type is Fraction, since building
    a Fraction from one goes through the numbers ABCs again."""
    return v if type(v) is Fraction else Fraction(v)


class Diagonal(Record):
    """(c_1 X_1, ..., c_n X_n) with every c_i nonzero; c is a tuple of
    Fractions."""

    __slots__ = ("c",)

    def __post_init__(self):
        c = tuple(map(_fraction, self.c))
        if not c:
            raise ValueError("diagonal needs at least one entry")
        if any(v == 0 for v in c):
            raise ValueError("diagonal entries must be nonzero")
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return len(self.c)


class Elementary(Record):
    """X_i replaced by X_i + g, all other coordinates fixed; i is an int
    and g a Poly that must not involve X_i."""

    __slots__ = ("i", "g")

    def __post_init__(self):
        if not isinstance(self.g, Poly):
            raise ValueError("g must be a Poly")
        if not is_int(self.i) or not 1 <= self.i <= self.g.n:
            raise ValueError(
                f"index {_brief(self.i)} out of range for dimension {self.g.n}"
            )
        if any(mono[self.i - 1] != 0 for mono in self.g.num):
            raise ValueError(f"g may not involve x{self.i}")

    @property
    def n(self) -> int:
        return self.g.n


class Affine(Record):
    """X -> AX + b with det A != 0; A is a tuple of rows and b a tuple,
    all of Fractions.

    The constructor expands the map once (_expand_affine) and keeps the
    steps on _steps, which is not a field: equality, hashing, repr, copy
    and pickle read A and b alone, and a copy expands, so checks, again
    through the constructor.  A singular A has no expansion and is refused
    with ValueError.
    """

    __slots__ = ("A", "b", "_steps")
    _fields = ("A", "b")

    def __post_init__(self):
        A = tuple(tuple(map(_fraction, row)) for row in self.A)
        b = tuple(map(_fraction, self.b))
        n = len(A)
        if n == 0 or any(len(row) != n for row in A) or len(b) != n:
            raise ValueError("need a square matrix and a matching vector")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_steps", _expand_affine(A, b))

    @property
    def n(self) -> int:
        return len(self.A)


Generator = Union[Diagonal, Elementary, Affine]


#: The largest dimension a word document may give.  The normal form of
#: even the empty word holds n scalars, so a short document with a huge n
#: would otherwise build and print a huge diagonal.
MAX_WORD_DIMENSION = 10**6


class TameWord(Record):
    """A composition G_1 o ... o G_s of generators (the tuple factors) in
    dimension n; the empty word is the identity."""

    __slots__ = ("factors", "n")

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        check_dimension(self.n)
        for f in factors:
            if not isinstance(f, (Diagonal, Elementary, Affine)):
                raise ValueError(f"not a generator: {f!r}")
            if f.n != self.n:
                raise ValueError(
                    f"factor dimension {f.n} does not match word dimension {self.n}"
                )

    def __len__(self):
        return len(self.factors)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "factors": [_gen_to_json(f) for f in self.factors]}

    @classmethod
    def from_json_dict(cls, doc) -> "TameWord":
        if not isinstance(doc, dict) or "n" not in doc or "factors" not in doc:
            raise ValueError("word document needs 'n' and 'factors'")
        n = doc["n"]
        check_dimension(n)
        if n > MAX_WORD_DIMENSION:
            raise ValueError(
                f"word dimension {_brief(n)} is above the cap {MAX_WORD_DIMENSION}"
            )
        if not isinstance(doc["factors"], list):
            raise ValueError("'factors' must be a list")
        return cls(tuple(_gen_from_json(f, n) for f in doc["factors"]), n)


def _gen_to_json(f: Generator) -> dict:
    if isinstance(f, Elementary):
        return {"kind": "elementary", "i": f.i, "g": render_poly(f.g)}
    if isinstance(f, Diagonal):
        return {"kind": "diagonal", "c": [str(v) for v in f.c]}
    return {
        "kind": "affine",
        "A": [[str(v) for v in row] for row in f.A],
        "b": [str(v) for v in f.b],
    }


def _json_rational(v) -> Fraction:
    """An exact rational from a JSON integer or a string such as "-2/3"
    (textio._read_rational); a JSON float is already rounded to binary, so
    it is refused."""
    if is_int(v):
        return Fraction(v)
    if isinstance(v, str):
        return _read_rational(v)
    raise ValueError(f"expected an integer or a rational string, got {_brief(v)}")


def _json_rationals(v, field: str) -> tuple:
    if not isinstance(v, list):
        raise ValueError(f"{field} must be a list of rationals, got {_brief(v)}")
    return tuple(_json_rational(x) for x in v)


def _gen_from_json(doc, n: int) -> Generator:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError(f"not a generator document: {_brief(doc)}")
    kind = doc["kind"]
    try:
        if kind == "elementary":
            if not is_int(doc["i"]):
                raise ValueError(f"'i' must be an integer, got {_brief(doc['i'])}")
            if not isinstance(doc["g"], str):
                raise ValueError(f"'g' must be a string, got {_brief(doc['g'])}")
            return Elementary(doc["i"], parse_poly(doc["g"], n))
        if kind == "diagonal":
            return Diagonal(_json_rationals(doc["c"], "'c'"))
        if kind == "affine":
            if not isinstance(doc["A"], list):
                raise ValueError(f"'A' must be a list of rows, got {_brief(doc['A'])}")
            return Affine(
                tuple(_json_rationals(row, "a row of 'A'") for row in doc["A"]),
                _json_rationals(doc["b"], "'b'"),
            )
    except KeyError as exc:
        raise ValueError(f"generator document missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed generator document: {exc}") from exc
    raise ValueError(f"unknown generator kind {_brief(kind)}")


# ----------------------------------------------------------------------
# words as maps

def gen_to_endo(f: Generator) -> Endo:
    n = f.n
    if isinstance(f, Diagonal):
        return Endo([Poly._raw(n, {_unit_exponent(n, l): v.numerator}, v.denominator)
                     for l, v in enumerate(f.c)])
    if isinstance(f, Elementary):
        return Endo([x + f.g if k == f.i - 1 else x for k, x in enumerate(Poly.variables(n))])
    units = [_unit_exponent(n, j) for j in range(n)]
    return Endo([_over_lcm(n, {(0,) * n: b, **dict(zip(units, row))})
                 for row, b in zip(f.A, f.b)])


def word_to_endo(w: TameWord) -> Endo:
    result = Endo.identity(w.n)
    for f in w.factors:
        result = result.compose(gen_to_endo(f))
    return result


def generator_determinant(f: Generator) -> Fraction:
    """Jacobian determinant contributed by one generator.  For an affine
    map it is the product of the entries of its expansion's diagonals: a
    transvection has determinant 1, and a row swap contributes the -1 of
    its diagonal."""
    if isinstance(f, Elementary):
        return Fraction(1)
    if isinstance(f, Diagonal):
        return prod(f.c)
    return prod((v for s in f._steps if isinstance(s, Diagonal) for v in s.c),
                start=Fraction(1))


# ----------------------------------------------------------------------
# inversion

def invert_generator(f: Generator) -> Generator:
    """The inverse generator.  An affine map is inverted through its
    expansion, with no elimination of its own: the steps in reverse order,
    each transvection negated and each diagonal inverted, recompose
    (_affine_matrix) to [A^-1 | -A^-1 b]."""
    if isinstance(f, Diagonal):
        return Diagonal(tuple(1 / v for v in f.c))
    if isinstance(f, Elementary):
        return Elementary(f.i, -f.g)
    n = f.n
    cols = _affine_matrix(n, [invert_generator(s) if isinstance(s, Diagonal)
                              else _transvection(n, s[0], s[1], -s[2])
                              for s in reversed(f._steps)])
    cols = [[Fraction(v, d) for v in col] for col, d in cols]
    return Affine(tuple(zip(*cols[:n])), tuple(cols[n]))


def invert_word(w: TameWord) -> TameWord:
    """(G_1 o ... o G_s)^{-1} = G_s^{-1} o ... o G_1^{-1}."""
    return TameWord(tuple(invert_generator(f) for f in reversed(w.factors)), w.n)


# ----------------------------------------------------------------------
# affine expansion

def _unit_exponent(n: int, l: int) -> tuple:
    # the exponent tuple of X_{l+1} in n variables
    return (0,) * l + (1,) + (0,) * (n - l - 1)


def _transvection(n: int, i: int, l: int, a: Fraction) -> Elementary:
    # the step (i, l, a): X_{i+1} += a * X_{l+1}, or += a if l = n; a != 0
    mono = (0,) * n if l == n else _unit_exponent(n, l)
    return Elementary(i + 1, Poly._raw(n, {mono: a.numerator}, a.denominator))


def affine_to_word(f: Affine) -> TameWord:
    """Express an invertible affine map as elementaries and diagonals.

    The translation part becomes n constant elementaries; the linear part
    is reduced by Gauss-Jordan elimination in integers, emitting the
    inverse of each row operation as a transvection, a zero pivot fixed by
    a row swap expanded as T_{i,j} = A_{i,j,1} o A_{j,i,-1} o A_{i,j,1} o D~
    with D~ = -1 in slot i; whatever diagonal remains is the last factor
    (_expand_affine, kept on f).  Each step becomes its elementary once, and
    _check_block raises InconsistencyError unless they recompose to [A | b].
    """
    factors = [s if isinstance(s, Diagonal) else _transvection(f.n, *s) for s in f._steps]
    _check_block(f, factors, (1,) * f.n)
    return TameWord(tuple(factors), f.n)


def _expand_affine(A: tuple, b: tuple) -> tuple:
    """The factors of affine_to_word for X -> AX + b, unchecked, as steps
    (i, l, a) (see _transvection) and Diagonals; no Poly or Elementary is
    built.  The Affine constructor runs it once on its validated A and b
    and keeps the result; a column with no pivot means A is singular, and
    raises ValueError.

    Row i of A is held as ints r_i over a denominator d_i.  Clearing entry
    k of row i with pivot row k (pivot p_k = r_k[k]) is the step with
    scalar r_i[k] * d_k / (p_k * d_i), one Fraction, and leaves the row
    p_k * r_i - r_i[k] * r_k over d_i * p_k, both divided by the gcd of
    its entries and its denominator.
    """
    n = len(A)
    steps = [(i, n, v) for i, v in enumerate(b) if v]
    rows = []
    for row in A:
        d = lcm(*(v.denominator for v in row))
        rows.append(([v.numerator * (d // v.denominator) for v in row], d))
    for k in range(n):
        r = next((r for r in range(k, n) if rows[r][0][k]), None)
        if r is None:
            raise ValueError("affine part is singular")
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            steps += [(k, r, Fraction(1)), (r, k, Fraction(-1)), (k, r, Fraction(1)),
                      Diagonal(tuple(Fraction(-1 if l == k else 1) for l in range(n)))]
        top, dk = rows[k]
        pk = top[k]
        for i in range(n):
            row, di = rows[i]
            a = row[k]
            if i != k and a:
                steps.append((i, k, Fraction(a * dk, pk * di)))
                row = [pk * x - a * y if y else pk * x for x, y in zip(row, top)]
                g = gcd(di * pk, *row)
                rows[i] = ([x // g for x in row], di * pk // g)
    diag = tuple(Fraction(row[k], d) for k, (row, d) in enumerate(rows))
    if any(v != 1 for v in diag):
        steps.append(Diagonal(diag))
    return tuple(steps)


def _affine_matrix(n: int, factors) -> list:
    """The n + 1 columns of [A | b] for the map X -> AX + b that the factors
    compose to, each as a list of ints over one positive denominator, or
    None if a factor has a term of degree two or more.

    In homogeneous coordinates, composing with a factor on the right is a
    column operation on [A | b], which starts as the identity: a diagonal
    scales column l by c_l, and adding a*X_l (or the constant a) to slot i
    adds a times column i to column l (or to the last column).  Column i
    never moves, since g does not involve X_i.
    """
    cols = [([int(r == l) for r in range(n)], 1) for l in range(n + 1)]
    for f in factors:
        if isinstance(f, Diagonal):
            cols[:n] = [col if c == 1 else ([c.numerator * v for v in col[0]],
                                            col[1] * c.denominator)
                        for c, col in zip(f.c, cols)]
            continue
        src, ds = cols[f.i - 1]
        q = f.g.den * ds
        for mono, a in f.g.num.items():
            if sum(mono) > 1:
                return None
            l = mono.index(1) if any(mono) else n
            col, d = cols[l]
            den = lcm(d, q)
            s, t = den // d, a * (den // q)
            cols[l] = ([v * s + t * w for v, w in zip(col, src)], den)
    return cols


def _check_block(f: Affine, factors, c: tuple) -> None:
    """Raise InconsistencyError unless the factors, read back as a matrix
    (_affine_matrix), recompose to diag(c) o f, whose column l is
    (c_r * A[r][l])_r and last column (c_r * b_r)_r; compared in integers."""
    cols = _affine_matrix(f.n, factors)
    if cols is None or any(v * s.denominator * e.denominator != d * s.numerator * e.numerator
                           for (col, d), want in zip(cols, [*zip(*f.A), f.b])
                           for v, e, s in zip(col, want, c)):
        raise InconsistencyError("affine expansion does not recompose to [A | b]")


# ----------------------------------------------------------------------
# the normal form

def _scaled_addend(g: Poly, c: tuple, i: int) -> Poly:
    """g~ = c_i * g(X_1/c_1, ..., X_n/c_n), term by term, in integers.

    With c_l = p_l/q_l in lowest terms and t_l the largest exponent of X_l
    in g = num/den, the term v/den * X^m becomes
    v * p_i * prod_l q_l^m_l * p_l^(t_l - m_l) * X^m over the one
    denominator den * q_i * prod_l p_l^t_l.  Every c_l is nonzero, so no
    coefficient vanishes, and one gcd makes the result canonical.
    """
    ps = [v.numerator for v in c]
    qs = [v.denominator for v in c]
    tops = list(map(max, zip(*g.num)))
    pi, qi = ps[i - 1], qs[i - 1]
    return _normal(g.n, {
        mono: v * pi * prod(map(pow, qs, mono)) * prod(map(pow, ps, map(sub, tops, mono)))
        for mono, v in g.num.items()
    }, g.den * qi * prod(map(pow, ps, tops)))


def push_diagonal(d: Diagonal, e: Elementary) -> tuple:
    """Rewrite D o E as (E~, D) with E~ elementary in the same slot.

    g~ = c_i * g(X_1/c_1, ..., X_n/c_n); both sides add to slot i, where
    D contributes the factor c_i and E~'s addend must absorb it after the
    variables have already been scaled.  g~ is computed term by term, in
    integers (_scaled_addend); the composition identity
    D o E = E~ o D is the contract, checked on every call, and
    InconsistencyError is raised if it fails.  Off slot i both sides are
    c_l * X_l by the shapes of Diagonal and Elementary, so the identity
    holds exactly when slot i agrees: g~(c_1 X_1, ..., c_n X_n) == c_i * g.
    D maps each monomial to a nonzero multiple of itself, so this holds
    exactly when g~ and g have the same monomials and, for each of them
    m, with c_l = p_l/q_l, the integer identity
    g~_m * prod p_l^m_l * q_i * den(g) == g_m * p_i * prod q_l^m_l * den(g~)
    holds between the numerators.  The check builds no Poly, and its
    forward powers are not those of _scaled_addend, so it does not rerun
    the routine it checks.
    """
    if d.n != e.n:
        raise ValueError(f"dimension mismatch: {d.n} vs {e.n}")
    g = e.g
    g_new = _scaled_addend(g, d.c, e.i)
    ps = [v.numerator for v in d.c]
    qs = [v.denominator for v in d.c]
    ci = d.c[e.i - 1]
    left, right = ci.denominator * g.den, ci.numerator * g_new.den
    if g_new.num.keys() != g.num.keys() or any(
        v * prod(map(pow, ps, mono)) * left != g.num[mono] * prod(map(pow, qs, mono)) * right
        for mono, v in g_new.num.items()
    ):
        raise InconsistencyError("push identity D o E = E~ o D failed")
    return Elementary(e.i, g_new), d


def _merge_diagonals(d1: Diagonal, d2: Diagonal) -> Diagonal:
    # D1 o D2 scales entrywise
    return Diagonal(tuple(a * b for a, b in zip(d1.c, d2.c)))


class NormalForm(Record):
    """E_1 o ... o E_s o D, a tuple of Elementary and one Diagonal.

    One made by normal_form recomposes to the word it came from: every
    step that builds it is certified (see normal_form), so the map is
    never composed to check it."""

    __slots__ = ("elementaries", "diagonal")

    def __post_init__(self):
        object.__setattr__(self, "elementaries", tuple(self.elementaries))
        n = self.diagonal.n
        for e in self.elementaries:
            if not isinstance(e, Elementary) or e.n != n:
                raise ValueError(f"not an elementary of dimension {n}: {e!r}")

    @property
    def n(self) -> int:
        return self.diagonal.n

    def to_word(self) -> TameWord:
        return TameWord(self.elementaries + (self.diagonal,), self.n)


def _push_step(c: tuple, i: int, l: int, a: Fraction) -> tuple:
    # the step (i, l, a) pushed through diag(c): a * c_i / c_l, with c_n = 1
    ci, cl = c[i], c[l] if l < len(c) else 1
    return i, l, Fraction(a.numerator * ci.numerator * cl.denominator,
                          a.denominator * ci.denominator * cl.numerator)


def _push_affine(d: Diagonal, f: Affine) -> tuple:
    """Rewrite D o f as E~_1 o ... o E~_k o D', returned as ([E~_j], D').

    Each step of the expansion kept on f is pushed through the diagonal
    merged so far as one scalar (_push_step) and built into its elementary
    once, and each diagonal is merged; one matrix identity checks the block
    (_check_block).
    """
    n, c = f.n, d.c
    block = []
    for s in f._steps:
        if isinstance(s, Diagonal):
            d = _merge_diagonals(d, s)
        else:
            block.append(_transvection(n, *_push_step(d.c, *s)))
    _check_block(f, block + [d], c)
    return block, d


def normal_form(w: TameWord) -> NormalForm:
    """Rewrite a tame word as elementaries followed by one diagonal.

    One scan from left to right keeps the product of the diagonals seen so
    far, merges each further diagonal into it, pushes each elementary
    through it exactly once, and pushes each affine factor through it as
    one block (_push_affine).  Pushing through a product of diagonals
    gives the same g~ as pushing through them one at a time, since
    c_i * g(X/c) is multiplicative in c.

    The result recomposes to w, by induction over the scan.  Before the
    scan, the empty prefix is the identity, no elementaries then the
    identity diagonal.  If a prefix equals E_1 o ... o E_m o D, the prefix
    one factor longer has three cases.  A diagonal D' gives
    E_1 o ... o E_m o (D o D'), because merging diagonals is exact.  An
    elementary E gives E_1 o ... o E_m o E~ o D, because push_diagonal
    checks D o E = E~ o D.  An affine f gives
    E_1 o ... o E_m o E~_1 o ... o E~_k o D', because _push_affine checks
    D o f = E~_1 o ... o E~_k o D' as one matrix identity.  A failed check
    raises InconsistencyError, so no unchecked result is returned, and the
    word is never composed as a map.
    """
    elementaries = []
    diag = Diagonal((1,) * w.n)
    for f in w.factors:
        if isinstance(f, Diagonal):
            diag = _merge_diagonals(diag, f)
        elif isinstance(f, Elementary):
            e_new, diag = push_diagonal(diag, f)
            elementaries.append(e_new)
        else:
            block, diag = _push_affine(diag, f)
            elementaries += block
    return NormalForm(tuple(elementaries), diag)
