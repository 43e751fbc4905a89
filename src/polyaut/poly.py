"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in n variables is a finite map from monomials to nonzero
rational coefficients.  A monomial is a plain tuple of n non-negative
integer exponents, so

    x1^2 * x3  in dimension 3   ->   (2, 0, 1)

A Poly stores its coefficients as integer numerators over one
denominator, as FLINT's fmpq_mpoly stores a rational content times an
integer polynomial: `num` is {exponent tuple: nonzero int} and `den` an
int > 0 with gcd(den, *num.values()) = 1.  So  x1^2*x3 - 2/3  is

    num = {(2, 0, 1): 3, (0, 0, 0): -2},  den = 3

and the zero polynomial is num = {}, den = 1.  Each polynomial has exactly
one such form, so equality and hashing compare (n, num, den).  `terms`,
the {exponent tuple: Fraction} map, is a view, built from num and den the
first time it is read and kept; the arithmetic never builds it.  Every
operation is exact and polynomial identity testing is reliable.  Values
are immutable after construction; all operations build new objects, and
each result divides out its one content gcd (`_normal`).  Every kernel on
this form lives here: sums and `endo.linear_combination` are one scaled
sum (`_combine`); the constructor and parser share one lcm step (`_over_lcm`).

Every product goes through one integer kernel, `_convolve`: those of
`Poly.__mul__`, and the powers and prefix products of `_substitute`, the
one substitution routine, which packs its arguments once for a list of
polynomials (`Poly.substitute` passes one, `Endo.compose` a whole map).
For the length of one product each operand's numerators are keyed by its
exponent tuple packed into a single int (after Monagan and Pearce, CASC
2007), so the inner loop adds ints and multiplies ints, and the result
lies over the product of the denominators.  It is unpacked once: its keys
are decoded, and one gcd makes it canonical.  The kernel does only the
work its operands need.  A substitution whose arguments all have one
term, such as the scalings c_l * x_l of a diagonal, skips it: each term
then maps straight to one term.  A square (the same packed dict twice, as
`Poly.__pow__` and the second power of an argument give it) takes each
cross product once.  Exact division (`_divide_packed`) shares the
packing, in `Poly.divide_exact` and in `_det`, the Bareiss determinant.

Every other module imports this one, so it also holds what they all
share.  `Record` is the base of every immutable value class: Poly itself,
the maps, matrices and univariate polynomials, and the documents,
reports, tame words and witnesses.  It gives them one constructor,
equality, hashing, repr, and copy and pickle support.  Also shared are
`is_int`, the check for counts and exponents, `check_dimension`, the one
for dimensions, `_brief`, which quotes a value in an error message, and
the error classes `InconsistencyError` and `VerificationError`.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction
from functools import reduce
from itertools import groupby
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from operator import lshift, mul, sub
from typing import Mapping, Sequence, Union

Monomial = tuple  # exponent tuple, one entry per variable
Rational = Union[int, Fraction]

#: Total degree of the zero polynomial: a sentinel below every integer.
NEG_INF = float("-inf")


def is_int(v) -> bool:
    """True for an int that is not a bool: True and False are no counts,
    dimensions or exponents, though bool subclasses int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _brief(value) -> str:
    """repr(value) cut to at most 60 characters, so that an error line that
    quotes a value read from input stays one readable line however long or
    deeply nested the value is."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:56] + " ..."


def check_dimension(n):
    """Raise ValueError unless n is a positive int (not a bool)."""
    if not is_int(n) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {_brief(n)}")


class InconsistencyError(ValueError):
    """The data contradicts the claim it was supposed to certify."""


class VerificationError(Exception):
    """An identity the construction guarantees failed to check out; this
    signals a bug in the library, not bad input."""


class Record:
    """Base of the immutable value classes: Poly, Endo, SquareMatrixPoly,
    UniPoly, MapDocument, LFReport, the tame generators, words and normal
    forms, and Witness.

    A subclass names its constructor fields in _fields, in argument order,
    and their default values in _defaults.  _fields defaults to __slots__,
    which may also hold slots derived from the fields or cached; a field
    that is not a slot is a property whose setter stores into one, as
    Poly's terms does.  The class gets a constructor with one parameter per
    field, which sets the fields and then calls __post_init__; that may
    check them, normalise one and set the other slots with
    object.__setattr__.  Records are equal when they have the same class
    and equal fields, hash by their fields, print as Cls(field=value, ...),
    and copy and pickle through the constructor.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # compiled once per class from its field names, as dataclasses do:
        # a real signature, and no argument binding at run time
        fields = cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in cls._defaults else f
                           for f in fields)
        body = "".join(f"    _setattr(self, {f!r}, {f})\n" for f in fields)
        values = "".join(f"self.{f}, " for f in fields)
        ns = {"_setattr": object.__setattr__, "_defaults": cls._defaults}
        exec(f"def __init__(self, {params}):\n{body}    self.__post_init__()\n"
             f"def _values(self):\n    return ({values})\n", ns)
        for name in ("__init__", "_values"):
            ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, ns[name])

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since fields
        # cannot be assigned afterwards
        return type(self), self._values()

    def to_json(self) -> str:
        """to_json_dict as one line of JSON, for records that define it."""
        import json

        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str):
        """from_json_dict of one JSON document, for records that define it."""
        from .textio import _read_json

        return cls.from_json_dict(_read_json(text))


def monomial_degree(mono: Monomial) -> int:
    """Total degree of an exponent tuple."""
    return sum(mono)


def _validated_terms(n: int, terms: Mapping[Monomial, Rational]) -> dict:
    clean = {}
    for mono, coeff in terms.items():
        if not isinstance(mono, tuple) or len(mono) != n:
            raise ValueError(f"monomial {mono!r} does not have dimension {n}")
        if any(not is_int(e) or e < 0 for e in mono):
            raise ValueError(f"monomial {mono!r} has a bad exponent")
        c = Fraction(coeff)
        if c:
            clean[mono] = c
    return clean


_setattr = object.__setattr__


class Poly(Record):
    """A sparse polynomial with exact rational coefficients, stored as
    integer numerators num over one denominator den (see the module
    docstring); terms is the {exponent tuple: Fraction} view."""

    __slots__ = ("n", "num", "den", "_terms")
    _fields = ("n", "terms")
    _defaults = {"terms": None}

    def __post_init__(self):
        check_dimension(self.n)
        terms = _validated_terms(self.n, self._terms or {})
        canonical = _over_lcm(self.n, terms)
        _setattr(self, "num", canonical.num)
        _setattr(self, "den", canonical.den)
        _setattr(self, "_terms", terms)  # the view, built already

    @property
    def terms(self) -> dict:
        """{exponent tuple: Fraction}, built from num and den the first
        time it is read and kept; the arithmetic never reads it."""
        terms = self._terms
        if terms is None:
            den = self.den
            terms = {m: Fraction(v, den) for m, v in self.num.items()}
            _setattr(self, "_terms", terms)
        return terms

    @terms.setter
    def terms(self, terms):
        # reached only through object.__setattr__, by the constructor that
        # Record generates: __post_init__ validates what it stores
        _setattr(self, "_terms", terms)

    @classmethod
    def _raw(cls, n: int, num: dict, den: int = 1) -> "Poly":
        # Internal fast path: num / den must already be canonical (int
        # values, no zeros, exponent tuples of length n, den > 0 and
        # gcd(den, *num.values()) == 1); _normal makes it so.
        self = object.__new__(cls)
        _setattr(self, "n", n)
        _setattr(self, "num", num)
        _setattr(self, "den", den)
        _setattr(self, "_terms", None)
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value: Rational) -> "Poly":
        check_dimension(n)
        c = Fraction(value)
        return cls._raw(n, {(0,) * n: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        """The polynomial x_i (1-based index)."""
        check_dimension(n)
        if not is_int(i) or not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exp = [0] * n
        exp[i - 1] = 1
        return cls._raw(n, {tuple(exp): 1})

    @classmethod
    def variables(cls, n: int) -> tuple["Poly", ...]:
        """All n coordinate variables, in order."""
        return tuple(cls.variable(n, i) for i in range(1, n + 1))

    # ------------------------------------------------------------------
    # basic structure

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.n)

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self.num.get(mono, 0), self.den)

    def sorted_terms(self) -> list:
        """Terms in descending lexicographic order of exponent tuples."""
        return sorted(self.terms.items(), reverse=True)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.n == other.n and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(self.n, other)
        return NotImplemented

    def __hash__(self):
        # a constant equals its value (above), so it hashes as the value
        if not any(map(any, self.num)):
            return hash(self.constant_term())
        return hash((self.n, frozenset(self.num.items()), self.den))

    def __repr__(self):
        return f"Poly({self.n}, {dict(self.sorted_terms())!r})"

    def __str__(self):
        from .textio import render_poly

        return render_poly(self)

    # ------------------------------------------------------------------
    # arithmetic

    def _check_same_dimension(self, other: "Poly"):
        if self.n != other.n:
            raise ValueError(
                f"dimension mismatch: {self.n} vs {other.n}"
            )

    def _plus(self, a: int, other, b: int) -> "Poly":
        # a * self + b * other, for other a Poly or a scalar
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.n, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        self._check_same_dimension(other)
        return _combine(self.n, ((a, self), (b, other)))

    def __add__(self, other) -> "Poly":
        return self._plus(1, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.n, {m: -v for m, v in self.num.items()}, self.den)

    def __sub__(self, other) -> "Poly":
        return self._plus(1, other, -1)

    def __rsub__(self, other) -> "Poly":
        return self._plus(-1, other, 1)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            return _normal(self.n, {m: v * c for m, v in self.num.items()} if c else {},
                           self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_dimension(other)
        a, b = self.num, other.num
        if not a or not b:
            return Poly.zero(self.n)
        shifts = _shifts(self.n, max(map(sum, a)) + max(map(sum, b)))
        ia = _pack(a, shifts)
        # a square packs once, so that the kernel sees one dict twice
        ib = ia if a is b else _pack(b, shifts)
        return _unpack(self.n, _convolve(ia, ib), self.den * other.den, shifts)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if not is_int(e) or e < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {e!r}")
        result = Poly.constant(self.n, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # calculus and degree

    def total_degree(self):
        """Max total degree over terms; NEG_INF for the zero polynomial."""
        if not self.num:
            return NEG_INF
        return max(map(sum, self.num))

    def top_form(self) -> "Poly":
        """The homogeneous component of highest total degree (the leading form)."""
        if not self.num:
            return self
        d = self.total_degree()
        return _normal(self.n, {m: v for m, v in self.num.items() if sum(m) == d}, self.den)

    def partial_derivative(self, i: int) -> "Poly":
        """Formal partial derivative with respect to x_i (1-based index)."""
        if not is_int(i) or not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        k = i - 1
        # distinct terms with x_i in them have distinct derivatives
        return _normal(self.n, {
            mono[:k] + (mono[k] - 1,) + mono[k + 1:]: v * mono[k]
            for mono, v in self.num.items() if mono[k]
        }, self.den)

    # ------------------------------------------------------------------
    # substitution

    def substitute(self, args: Sequence["Poly"]) -> "Poly":
        """Total substitution: replace x_i by args[i-1] (all at once).

        The args may live in a different dimension m; the result then has
        dimension m.  Raises ValueError if the argument count is not n.
        """
        return _substitute((self,), args)[0]

    # ------------------------------------------------------------------
    # exact division

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Exact quotient self / divisor; raises ValueError on any remainder."""
        self._check_same_dimension(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        da = self.total_degree()
        shifts = _shifts(self.n, max(da, divisor.total_degree()))
        b = _pack(divisor.num, shifts)
        # by Gauss's lemma the quotient by a primitive divisor lies in Z[x]
        content = gcd(*b.values())
        b = {k: v // content for k, v in b.items()}
        q = _divide_packed(_pack(self.num, shifts), b, shifts, da)
        lb = divisor.den
        return _unpack(self.n, {k: v * lb for k, v in q.items()}, self.den * content, shifts)


def _normal(n: int, num: dict, den: int) -> Poly:
    """The Poly num / den, for num with int values and no zeros and an int
    den != 0: the content gcd(den, *num.values()), with den's sign, is
    divided out, so that den > 0 and num / den is canonical."""
    if den != 1:
        g = gcd(den, *num.values())
        if den < 0:
            g = -g
        if g != 1:
            num = {m: v // g for m, v in num.items()}
            den //= g
    return Poly._raw(n, num, den)


def _over_lcm(n: int, values: Mapping) -> Poly:
    """The Poly with coefficients values, {exponent tuple: int or Fraction
    in lowest terms}, zeros dropped, over den, the lcm of the denominators.
    A prime's power in den is its power in some c.denominator, whose
    numerator it does not divide: so num / den is canonical, with no gcd."""
    den = lcm(*(c.denominator for c in values.values()))
    return Poly._raw(n, {m: c.numerator * (den // c.denominator)
                         for m, c in values.items() if c}, den)


def _combine(n: int, pairs: Sequence) -> Poly:
    """The sum of c * p over the (c, p) pairs, each c a nonzero int or
    Fraction and each p a Poly of dimension n, summed in ints over one
    common denominator, the lcm of c.denominator * p.den; a sum of zero is
    dropped, and one _normal makes the result canonical."""
    den = 1
    for c, p in pairs:
        den = lcm(den, c.denominator * p.den)
    acc: dict = {}
    get = acc.get
    for c, p in pairs:
        scale = c.numerator * (den // (c.denominator * p.den))
        for mono, v in p.num.items():
            s = get(mono, 0) + scale * v
            if s:
                acc[mono] = s
            else:
                del acc[mono]
    return _normal(n, acc, den)


# ----------------------------------------------------------------------
# substitution

def _substitute(polys: Sequence[Poly], args: Sequence[Poly]) -> list:
    """[p.substitute(args) for p in polys], for polys of one dimension n.

    The arguments are checked first.  When each has exactly one term,
    every term maps to one term (_substitute_monomials) and nothing is
    packed.  Otherwise they are packed and raised to their powers once for
    the whole list, up to the largest exponent over all the polys, in one
    field width; then each poly takes its own Horner pass, in which a
    prefix's product of powers starts from its first nonzero power.
    """
    n = polys[0].n
    args = list(args)
    if len(args) != n:
        raise ValueError(f"expected {n} substitution arguments, got {len(args)}")
    m = args[0].n
    for q in args:
        if q.n != m:
            raise ValueError("substitution arguments have mixed dimensions")
    if all(len(q.num) == 1 for q in args):
        return [_substitute_monomials(p, args, m) for p in polys]
    monos = [mono for p in polys for mono in p.num]
    if not monos:
        return [Poly.zero(m) for _ in polys]
    last = n - 1
    max_exp = list(map(max, zip(*monos)))
    # one field width for the arguments, their powers and every
    # partial product: none exceeds the degree of the largest result
    degs = [max(q.total_degree(), 0) for q in args]
    shifts = _shifts(m, max(sum(map(mul, mono, degs)) for mono in monos))
    # each argument as its numerators, then their powers; every term of a
    # poly goes over the one common denominator
    # p.den * prod L_k^max_exp[k], with L_k the denominator of argument k
    powers, scales = [], []
    for q, top in zip(args, max_exp):
        pw, lk = [{0: 1}], 1
        if top:
            packed, lk = _pack(q.num, shifts), q.den
            pw.append(packed)
            for _ in range(top - 1):
                pw.append(_convolve(pw[-1], packed))
        powers.append(pw)
        scales.append([lk ** (top - e) for e in range(top + 1)])
    scale = prod(sc[0] for sc in scales)
    results = []
    for p in polys:  # a zero p has no prefix and comes out zero
        # Horner-style in the last variable: per prefix (the other
        # exponents), sum the scaled powers of the last argument, then one
        # product with the prefix's product of powers.
        out: dict = {}
        for prefix, group in groupby(
            sorted(p.num.items()), key=lambda kv: kv[0][:last]
        ):
            inner: dict = {}
            get = inner.get
            for mono, s in group:
                for sc, e in zip(scales, mono):
                    s *= sc[e]
                for key, v in powers[last][mono[last]].items():
                    inner[key] = get(key, 0) + s * v
            factors = [pw[e] for pw, e in zip(powers, prefix) if e]
            _convolve(reduce(_convolve, factors) if factors else {0: 1}, inner, out)
        results.append(_unpack(m, out, p.den * scale, shifts))
    return results


def _substitute_monomials(p: Poly, args: Sequence[Poly], m: int) -> Poly:
    """p substituted with one-term arguments (a_k / d_k) * x^e_k, in
    dimension m: the term c * x^mono goes to the one term
    c * prod a_k^mono_k * d_k^(t_k - mono_k) * x^(sum mono_k * e_k), all
    over p.den * prod d_k^t_k, with t_k the top exponent of x_k in p.
    Terms that land on the same monomial are added, and a sum of zero is
    dropped."""
    exps, nums = zip(*(next(iter(q.num.items())) for q in args))
    dens = [q.den for q in args]
    tops = list(map(max, zip(*p.num)))
    cols = list(zip(*exps))  # cols[j][k]: exponent of x_j in argument k
    out = {}
    for mono, c in p.num.items():
        key = tuple([sum(map(mul, mono, col)) for col in cols])
        c *= prod(map(pow, nums, mono)) * prod(map(pow, dens, map(sub, tops, mono)))
        if key in out:
            out[key] += c
        else:
            out[key] = c
    return _normal(m, {k: v for k, v in out.items() if v}, p.den * prod(map(pow, dens, tops)))


# ----------------------------------------------------------------------
# the product kernel: exponent tuples packed into one int, coefficients as
# integer numerators over the operands' denominators

def _shifts(n: int, degree_bound: int) -> range:
    """Bit offsets of n exponent fields for products of degree <= degree_bound.

    Every exponent of such a product is at most degree_bound, so adding
    packed exponents never carries from one field of
    bit_length(degree_bound) + 1 bits into the next.  The spare top bit
    shows a borrow in exact division (_divide_packed), and keeps the width
    positive when everything is constant.
    """
    width = degree_bound.bit_length() + 1
    return range(0, n * width, width)


def _pack(num: dict, shifts: range, scale: int = 1) -> dict:
    """{packed exponents: numerator * scale} for the numerators num of a
    polynomial: only the keys are rebuilt when scale is 1."""
    values = num.values() if scale == 1 else [v * scale for v in num.values()]
    return dict(zip([sum(map(lshift, m, shifts)) for m in num], values))


def _unpack(n: int, packed: dict, den: int, shifts: range) -> Poly:
    """The Poly packed / den: each key decoded into its exponent tuple, the
    zeros dropped and one content gcd divided out (_normal)."""
    mask = (1 << shifts.step) - 1
    return _normal(n, {
        tuple([(k >> s) & mask for s in shifts]): v
        for k, v in packed.items()
        if v
    }, den)


def _convolve(a: dict, b: dict, out: dict | None = None) -> dict:
    """Product of two packed term maps, added into out (a new dict if None).

    When a and b are the same dict, the product is a square, and each
    cross product a_i * a_j with i < j is taken once and doubled.  Zero
    coefficients may remain in the result; _unpack drops them.
    """
    if out is None:
        out = {}
    get = out.get
    if a is b:
        items = list(a.items())
        for i, (ka, ca) in enumerate(items):
            k = ka + ka
            out[k] = get(k, 0) + ca * ca
            ca += ca  # a_i * a_j below stands for a_j * a_i too
            for kb, cb in items[i + 1:]:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        return out
    if len(a) > len(b):
        a, b = b, a
    b = list(b.items())
    for ka, ca in a.items():
        for kb, cb in b:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _divide_packed(a: dict, b: dict, shifts: range, degree: int) -> dict:
    """Exact quotient a / b over Z[x], b nonzero and free of zero terms.

    a may hold zeros and is used up as the remainder; deg(a) <= degree,
    the degree the shifts were made for.  Int order on keys is a monomial
    order since fields never carry; a field's spare top bit shows a borrow
    where b's leading key does not divide.  Raises ValueError on a nonzero
    remainder or on a quotient term of degree above degree - deg(b), which
    no exact quotient has and which could overflow a field."""
    width = shifts.step
    mask = (1 << width) - 1
    high = sum(1 << (s + width - 1) for s in shifts)
    lead = max(b)
    lc = b[lead]
    room = degree - max(sum((k >> s) & mask for s in shifts) for k in b)
    rest = [(k, -v) for k, v in b.items() if k != lead]
    heap = [-k for k in a]
    heapify(heap)
    q = {}
    while heap:
        k = -heappop(heap)
        c = a.pop(k)
        if c:
            qk = ((k | high) - lead) ^ high
            qc, r = divmod(c, lc)
            if r or qk & high or sum((qk >> s) & mask for s in shifts) > room:
                raise ValueError("inexact polynomial division")
            q[qk] = qc
            for kb, cb in rest:
                t = qk + kb
                v = a.get(t)
                if v is None:
                    heappush(heap, -t)
                a[t] = (v or 0) + qc * cb
    return q


def _det(rows: tuple) -> Poly:
    """The determinant of a square grid of Polys of one dimension: one
    fraction-free (Bareiss) elimination over row-scaled, packed integer
    entries.

    Each step forms m[k][k]*m[i][j] - m[i][k]*m[k][j] with the product
    kernel and divides it exactly by the previous pivot; the result is
    unpacked once over the product of the row scales.
    """
    size = len(rows)
    dim = rows[0][0].n
    # a numerator multiplies two minors: at most twice the rows' degree sum
    bound = 2 * sum(max(max(map(sum, p.num), default=0) for p in r) for r in rows)
    shifts = _shifts(dim, bound)
    scales = [lcm(*(p.den for p in r)) for r in rows]
    m = [[_pack(p.num, shifts, lr // p.den) for p in r] for r, lr in zip(rows, scales)]
    scale = prod(scales)
    for k in range(size - 1):
        piv = next((r for r in range(k, size) if m[r][k]), None)
        if piv is None:
            return Poly.zero(dim)
        if piv != k:
            m[piv], m[k] = m[k], m[piv]
            scale = -scale
        mk = m[k]
        for mi in m[k + 1:]:
            neg = {key: -v for key, v in mi[k].items()}
            for j in range(k + 1, size):
                num = _convolve(neg, mk[j], _convolve(mk[k], mi[j]))
                mi[j] = (
                    _divide_packed(num, prev, shifts, bound)
                    if k
                    else {key: v for key, v in num.items() if v}
                )
        prev = mk[k]
    return _unpack(dim, m[-1][-1], scale, shifts)
