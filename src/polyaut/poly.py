"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in n variables is a finite map from monomials to nonzero
rational coefficients.  A monomial is a plain tuple of n non-negative
integer exponents, so

    x1^2 * x3  in dimension 3   ->   (2, 0, 1)

and the polynomial  x1^2*x3 - 2/3  is stored as

    {(2, 0, 1): Fraction(1), (0, 0, 0): Fraction(-2, 3)}

The zero polynomial is the empty map.  All coefficients are
`fractions.Fraction`, so every operation in this module is exact and
polynomial identity testing is reliable.  Values are immutable after
construction; all operations build new objects.

Every product goes through one integer kernel, `_convolve`: those of
`Poly.__mul__`, and the powers and prefix products of `_substitute`, the
one substitution routine, which packs its arguments once for a list of
polynomials (`Poly.substitute` passes one, `Endo.compose` a whole map).
For the length of one product each operand becomes integer numerators
over one common denominator, keyed by its exponent tuple packed into a
single int (after Monagan and Pearce, CASC 2007), so the inner loop adds
ints and multiplies ints.  The result is unpacked once, back into the
canonical map above.  The kernel does only the work its operands need.
A substitution whose arguments all have one term, such as the scalings
c_l * x_l of a diagonal, skips it: each term then maps straight to one
term.  A square (the same packed dict twice, as `Poly.__pow__` and the
second power of an argument give it) takes each cross product once.
Exact division (in `Poly.divide_exact` and the determinant in `endo`)
shares the packing: `_divide_packed`.  Packing lives only inside these
kernels; `terms` stays the canonical {exponent tuple: Fraction} map.

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
from operator import lshift, mul
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
    which may also hold slots derived from the fields or cached.  The class
    gets a constructor with one parameter per field, which sets the fields
    and then calls __post_init__; that may check them, normalise one and
    set the other slots with object.__setattr__.  Records are equal when
    they have the same class and equal fields, hash by their fields, print
    as Cls(field=value, ...), and copy and pickle through the constructor.
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


class Poly(Record):
    """A sparse polynomial with exact rational coefficients."""

    __slots__ = ("n", "terms")
    _defaults = {"terms": None}

    def __post_init__(self):
        check_dimension(self.n)
        object.__setattr__(self, "terms", _validated_terms(self.n, self.terms or {}))

    @classmethod
    def _raw(cls, n: int, terms: dict) -> "Poly":
        # Internal fast path: terms must already be canonical
        # (Fraction coefficients, no zeros, exponent tuples of length n).
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
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
        return cls._raw(n, {(0,) * n: c} if c else {})

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        """The polynomial x_i (1-based index)."""
        check_dimension(n)
        if not is_int(i) or not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exp = [0] * n
        exp[i - 1] = 1
        return cls._raw(n, {tuple(exp): Fraction(1)})

    @classmethod
    def variables(cls, n: int) -> tuple["Poly", ...]:
        """All n coordinate variables, in order."""
        return tuple(cls.variable(n, i) for i in range(1, n + 1))

    # ------------------------------------------------------------------
    # basic structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.n, Fraction(0))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def sorted_terms(self) -> list:
        """Terms in descending lexicographic order of exponent tuples."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.n == other.n and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(self.n, other)
        return NotImplemented

    def __hash__(self):
        # a constant equals its value (above), so it hashes as the value
        if not any(map(any, self.terms)):
            return hash(self.constant_term())
        return hash((self.n, frozenset(self.terms.items())))

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

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.n, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        self._check_same_dimension(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                del out[mono]
        return Poly._raw(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.n, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Poly.zero(self.n)
            return Poly._raw(self.n, {m: v * c for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_dimension(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return Poly.zero(self.n)
        shifts = _shifts(self.n, max(map(sum, a)) + max(map(sum, b)))
        ia, la = _pack(a, shifts)
        # a square packs once, so that the kernel sees one dict twice
        ib, lb = (ia, la) if a is b else _pack(b, shifts)
        return Poly._raw(self.n, _unpack(_convolve(ia, ib), la * lb, shifts))

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
        if not self.terms:
            return NEG_INF
        return max(map(sum, self.terms))

    def top_form(self) -> "Poly":
        """The homogeneous component of highest total degree (the leading form)."""
        if not self.terms:
            return self
        d = self.total_degree()
        return Poly._raw(self.n, {m: c for m, c in self.terms.items() if sum(m) == d})

    def partial_derivative(self, i: int) -> "Poly":
        """Formal partial derivative with respect to x_i (1-based index)."""
        if not is_int(i) or not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        k = i - 1
        out = {}
        for mono, c in self.terms.items():
            e = mono[k]
            if e:
                m = mono[:k] + (e - 1,) + mono[k + 1:]
                s = out.get(m, 0) + c * e
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly._raw(self.n, out)

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
        a, la = _pack(self.terms, shifts)
        b, lb = _pack(divisor.terms, shifts)
        # by Gauss's lemma the quotient by a primitive divisor lies in Z[x]
        content = gcd(*b.values())
        b = {k: v // content for k, v in b.items()}
        q = {k: v * lb for k, v in _divide_packed(a, b, shifts, da).items()}
        return Poly._raw(self.n, _unpack(q, la * content, shifts))


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
    if all(len(q.terms) == 1 for q in args):
        return [Poly._raw(m, _substitute_monomials(p.terms, args)) for p in polys]
    monos = [mono for p in polys for mono in p.terms]
    if not monos:
        return [Poly.zero(m) for _ in polys]
    last = n - 1
    max_exp = list(map(max, zip(*monos)))
    # one field width for the arguments, their powers and every
    # partial product: none exceeds the degree of the largest result
    degs = [max(q.total_degree(), 0) for q in args]
    shifts = _shifts(m, max(sum(map(mul, mono, degs)) for mono in monos))
    # each argument as numerators over its own denominator, then its
    # powers; every term of a poly goes over the one common denominator
    # lcm(its coefficient denominators) * prod L_k^max_exp[k]
    powers, scales = [], []
    for q, top in zip(args, max_exp):
        pw, lk = [{0: 1}], 1
        if top:
            packed, lk = _pack(q.terms, shifts)
            pw.append(packed)
            for _ in range(top - 1):
                pw.append(_convolve(pw[-1], packed))
        powers.append(pw)
        scales.append([lk ** (top - e) for e in range(top + 1)])
    scale = prod(sc[0] for sc in scales)
    results = []
    for p in polys:  # a zero p has no prefix and comes out zero
        lc = lcm(*(c.denominator for c in p.terms.values()))
        # Horner-style in the last variable: per prefix (the other
        # exponents), sum the scaled powers of the last argument, then one
        # product with the prefix's product of powers.
        out: dict = {}
        for prefix, group in groupby(
            sorted(p.terms.items()), key=lambda kv: kv[0][:last]
        ):
            inner: dict = {}
            get = inner.get
            for mono, c in group:
                s = c.numerator * (lc // c.denominator)
                for sc, e in zip(scales, mono):
                    s *= sc[e]
                for key, v in powers[last][mono[last]].items():
                    inner[key] = get(key, 0) + s * v
            factors = [pw[e] for pw, e in zip(powers, prefix) if e]
            _convolve(reduce(_convolve, factors) if factors else {0: 1}, inner, out)
        results.append(Poly._raw(m, _unpack(out, lc * scale, shifts)))
    return results


def _substitute_monomials(terms: dict, args: Sequence[Poly]) -> dict:
    """The canonical terms of the substitution of one-term arguments
    a_k * x^e_k: the term c * x^mono goes to the one term
    c * prod a_k^mono_k * x^(sum mono_k * e_k).  Terms that land on the
    same monomial are added, and a sum of zero is dropped."""
    exps, coeffs = zip(*(next(iter(q.terms.items())) for q in args))
    nums = [a.numerator for a in coeffs]
    dens = [a.denominator for a in coeffs]
    cols = list(zip(*exps))  # cols[j][k]: exponent of x_j in argument k
    out = {}
    for mono, c in terms.items():
        key = tuple([sum(map(mul, mono, col)) for col in cols])
        c = Fraction(c.numerator * prod(map(pow, nums, mono)),
                     c.denominator * prod(map(pow, dens, mono)))
        if key in out:
            out[key] += c
        else:
            out[key] = c
    return {k: v for k, v in out.items() if v}


# ----------------------------------------------------------------------
# the product kernel: exponent tuples packed into one int, coefficients as
# integer numerators over one denominator per operand

def _shifts(n: int, degree_bound: int) -> range:
    """Bit offsets of n exponent fields for products of degree <= degree_bound.

    Every exponent of such a product is at most degree_bound, so adding
    packed exponents never carries from one field of
    bit_length(degree_bound) + 1 bits into the next; the spare top bit
    also keeps the width positive when everything is constant.
    """
    width = degree_bound.bit_length() + 1
    return range(0, n * width, width)


def _pack(terms: dict, shifts: range, den: int = 0) -> tuple:
    """({packed exponents: integer numerator}, den), where den defaults to
    the lcm of the coefficient denominators."""
    den = den or lcm(*(c.denominator for c in terms.values()))
    return {
        sum(map(lshift, m, shifts)): c.numerator * (den // c.denominator)
        for m, c in terms.items()
    }, den


def _unpack(packed: dict, den: int, shifts: range) -> dict:
    """The canonical {exponent tuple: Fraction} map of packed / den."""
    mask = (1 << shifts.step) - 1
    return {
        tuple([(k >> s) & mask for s in shifts]): Fraction(v, den)
        for k, v in packed.items()
        if v
    }


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
