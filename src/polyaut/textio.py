"""Text and JSON formats for polynomials and maps.

Expression grammar (whitespace-insensitive):

    expr   :=  ["-"] term { ("+" | "-") term }
    term   :=  unary { "*" unary }
    unary  :=  "-" unary | power
    power  :=  atom [ "^" nat ]
    atom   :=  rational | variable | "(" expr ")"

Variables are x1..xN (case-insensitive); when n <= 3 the aliases X, Y, Z
are also accepted.  Rational literals are `p` or `p/q`, in the digits 0-9
only, as in every number this module reads.  Multiplication is
always explicit: `2*x1*x2^3`, never `2x1` (which would make `x12` ambiguous).
`^` binds tightest, then unary minus, then `*`, then binary +/-.

The parser reads each expression in one pass over its tokens.  A term is
one coefficient, kept as an integer numerator and denominator, and one
list of n exponents: each number, p/q and variable, with its power and
its unary minus signs, multiplies straight into these two.  Only a
parenthesized factor is parsed into a Poly, raised with Poly.__pow__, and
multiplied into its term.  Every term of an expression is added into one
dict, and when the Poly is made the zero coefficients are dropped and the
rest put over the lcm of their denominators, once.

A map is a comma-separated list of n expressions.  Rendering emits terms in
descending lexicographic order of exponent vectors, always with x1..xN
names, so parse(render(p)) == p and equal polynomials render identically.
It reads a polynomial's integer numerators and its one denominator, and
brings each coefficient to lowest terms with one gcd.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .endo import Endo
from .poly import Poly, Record, _brief, check_dimension


class ParseError(ValueError):
    """Syntax or semantic error in an expression, with source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


_TOKEN_RE = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^/(),])|(?P<bad>\S)"
)


def _tokenize(text: str) -> list:
    """The tokens of text, each (kind, text, position), from one scan; an
    operator's kind is the operator itself.  A character that starts no
    token and is not whitespace is an error."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, val = m.lastgroup, m.group()
        if kind == "op":
            kind = val
        elif kind == "bad":
            raise ParseError(f"unexpected character {val!r}", m.start())
        tokens.append((kind, val, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        check_dimension(n)
        self.n = n
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def accept(self, kind: str) -> bool:
        if self.tokens[self.k][0] == kind:
            self.k += 1
            return True
        return False

    def fail(self, message: str):
        raise ParseError(message, self.peek()[2])

    # ------------------------------------------------------------------

    def expr(self) -> Poly:
        acc = {}  # every term of the sum, added in place
        sign = -1 if self.accept("-") else 1
        while True:
            self.term(acc, sign)
            if self.accept("+"):
                sign = 1
            elif self.accept("-"):
                sign = -1
            else:
                break
        # each value is an int or a Fraction in lowest terms (a zero's
        # denominator is 1), so over the lcm of their denominators the
        # numerators have no common factor
        den = lcm(*(c.denominator for c in acc.values()))
        return Poly._raw(self.n, {
            m: c.numerator * (den // c.denominator) for m, c in acc.items() if c
        }, den)

    def term(self, acc: dict, num: int) -> None:
        """Add one term, times num (1 or -1), into acc.  Its numbers and
        variables, with their powers and signs, multiply into one
        coefficient num/den and one exponent list; only a parenthesized
        factor is a Poly."""
        tokens = self.tokens
        den = 1
        exps = [0] * self.n
        product = None  # of the parenthesized factors
        while True:
            if tokens[self.k][0] == "-":
                num *= self.minus()
            kind, val, pos = tokens[self.k]
            self.k += 1
            if kind == "int":
                p, q = int(val), 1
                if self.accept("/"):
                    dkind, dval, dpos = tokens[self.k]
                    self.k += 1
                    if dkind != "int":
                        raise ParseError("denominator must be an integer", dpos)
                    q = int(dval)
                    if q == 0:
                        raise ParseError("zero denominator", dpos)
                    # lowest terms before a power, so that (0/q)^e costs
                    # what 0^e does, and (6/4)^e what (3/2)^e does
                    g = gcd(p, q)
                    p, q = p // g, q // g
                e = self.exponent()
                num, den = num * p**e, den * q**e
            elif kind == "name":
                exps[self.variable_index(val, pos) - 1] += self.exponent()
            elif kind == "(":
                f = self.expr()
                if not self.accept(")"):
                    self.fail("expected ')'")
                e = self.exponent()
                if e != 1:
                    f = f**e
                product = f if product is None else product * f
            else:
                raise ParseError(
                    "expected a number, variable, or '('" if kind != "end"
                    else "unexpected end of input",
                    pos,
                )
            if not self.accept("*"):
                break
        if product is None:
            mono = tuple(exps)
            coeff = num if den == 1 else Fraction(num, den)
            c = acc.get(mono)
            acc[mono] = coeff if c is None else c + coeff
        else:
            den *= product.den
            coeff = num if den == 1 else Fraction(num, den)
            for m, c in product.num.items():
                mono = tuple(map(add, m, exps))
                c *= coeff
                s = acc.get(mono)
                acc[mono] = c if s is None else s + c

    def minus(self) -> int:
        """The sign of a chain of unary minus signs: one call per sign, as
        the grammar's unary recurses, so a chain too long for the
        interpreter stack is nested too deeply, like parentheses."""
        self.k += 1
        return -self.minus() if self.tokens[self.k][0] == "-" else -1

    def exponent(self) -> int:
        """The exponent after "^" if there is one, else 1."""
        if not self.accept("^"):
            return 1
        kind, val, pos = self.tokens[self.k]
        self.k += 1
        if kind != "int":
            raise ParseError("exponent must be a non-negative integer", pos)
        return int(val)

    def variable_index(self, name: str, pos: int) -> int:
        m = re.fullmatch(r"[xX]([0-9]+)", name)
        if m:
            # past n if longer than n; int() has a digit limit
            digits = m.group(1).lstrip("0") or "0"
            i = int(digits) if len(digits) <= len(str(self.n)) else 0
        elif name.lower() in ("x", "y", "z") and self.n <= 3:
            i = "xyz".index(name.lower()) + 1
        else:
            raise ParseError(f"unknown variable {_brief(name)}", pos)
        if not 1 <= i <= self.n:
            shown = name if len(name) <= 60 else name[:56] + " ..."
            raise ParseError(f"variable {shown} out of range for dimension {self.n}", pos)
        return i


def _too_deep(p: _Parser) -> ParseError:
    # the grammar recurses once per parenthesis or unary minus, so deep
    # nesting exhausts the interpreter stack; that is bad input, not a crash
    return ParseError("expression nested too deeply", p.peek()[2])


def _parse(text: str, n: int, coordinates: bool) -> list:
    """The expressions of text: one, or with coordinates n of them,
    comma-separated.  Too few commas are found before any polynomial, with
    its n-entry exponent tuples, is built."""
    p = _Parser(text, n)
    # every comma in text is a token, since text tokenized
    got = 1 + text.count(",") if coordinates else n
    if got < n:
        raise ParseError(f"expected {n} comma-separated coordinates, got {got}", len(text))
    try:
        exprs = [p.expr()]
        while coordinates and p.accept(","):
            exprs.append(p.expr())
    except RecursionError:
        raise _too_deep(p) from None
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected {_brief(val)} after expression", pos)
    if got > n:
        raise ParseError(f"expected {n} comma-separated coordinates, got {got}", pos)
    return exprs


def parse_poly(text: str, n: int) -> Poly:
    """Parse one expression as a dimension-n polynomial."""
    return _parse(text, n, False)[0]


def parse_map(text: str, n: int) -> Endo:
    """Parse n comma-separated expressions as an endomorphism."""
    return Endo(_parse(text, n, True))


# ----------------------------------------------------------------------
# rendering

def render_poly(p: Poly) -> str:
    """Deterministic rendering; terms in descending lex order."""
    if p.is_zero:
        return "0"
    names = [f"x{i}" for i in range(1, p.n + 1)]
    return _render_terms(sorted(p.num.items(), reverse=True), p.den, names)


def _render_terms(terms, common, names) -> str:
    """The nonzero terms (exponent tuple, integer numerator) over the
    denominator common, in the order given, as a sum: each coefficient is
    brought to lowest terms by one gcd, its sign joins the terms, a
    coefficient 1 before a monomial is left out, and names[i] is the
    variable of exponent i."""
    pieces = []
    for mono, num in terms:
        den = common
        if den != 1:
            g = gcd(num, den)
            num, den = num // g, den // g
        if num < 0:
            pieces.append(" - " if pieces else "-")
            num = -num
        elif pieces:
            pieces.append(" + ")
        # the magnitude as Fraction.__str__ prints it
        mag = str(num) if den == 1 else f"{num}/{den}"
        mono_str = "*".join(
            [v if e == 1 else f"{v}^{e}" for v, e in zip(names, mono) if e]
        )
        if mono_str:
            pieces.append(mono_str if num == den == 1 else f"{mag}*{mono_str}")
        else:
            pieces.append(mag)
    return "".join(pieces)


def render_map(g: Endo) -> str:
    return ", ".join(render_poly(c) for c in g.coords)


# ----------------------------------------------------------------------
# the JSON map document

class MapDocument(Record):
    """A map endo (an Endo) with optional name and notes strings (default
    None), as the JSON document {"n", "coords", "name", "notes"}.

    from_json_dict validates a document and parses each coordinate once;
    to_json_dict renders the coordinates, which parse back to the same
    polynomials, so nothing is parsed on the way out."""

    __slots__ = ("endo", "name", "notes")
    _defaults = {"name": None, "notes": None}

    def __post_init__(self):
        if not isinstance(self.endo, Endo):
            raise ValueError(f"endo must be an Endo, got {_brief(self.endo)}")
        for field in ("name", "notes"):
            value = getattr(self, field)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"'{field}' must be a string, got {_brief(value)}")

    def to_json_dict(self) -> dict:
        doc = {"n": self.endo.n, "coords": [render_poly(c) for c in self.endo.coords]}
        if self.name is not None:
            doc["name"] = self.name
        if self.notes is not None:
            doc["notes"] = self.notes
        return doc

    @classmethod
    def from_json_dict(cls, doc) -> "MapDocument":
        if not isinstance(doc, dict):
            raise ValueError("map document must be a JSON object")
        unknown = set(doc) - {"n", "coords", "name", "notes"}
        if unknown:
            raise ValueError(f"unknown map document fields: {_brief(sorted(unknown))}")
        if "n" not in doc or "coords" not in doc:
            raise ValueError("map document needs 'n' and 'coords'")
        n, coords = doc["n"], doc["coords"]
        if not isinstance(coords, list) or not all(isinstance(c, str) for c in coords):
            raise ValueError("'coords' must be a list of strings")
        check_dimension(n)
        if len(coords) != n:
            raise ValueError(f"expected {n} coordinate expressions, got {len(coords)}")
        endo = Endo([parse_poly(expr, n) for expr in coords])
        return cls(endo, doc.get("name"), doc.get("notes"))


_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _read_rational(text: str) -> Fraction:
    """A rational given as text: an optional minus sign, decimal digits,
    and optionally a slash and a nonzero denominator, as in "-2/3".
    Anything else is a ValueError; in particular exponent notation such as
    "1e999999999", which Fraction would expand into all its digits."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"expected a rational p or p/q, got {_brief(text)}")
    num, _, den = text.partition("/")
    if den and not int(den):
        raise ValueError(f"zero denominator in {_brief(text)}")
    return Fraction(int(num), int(den or 1))


def _read_json(text: str):
    """json.loads for the document readers: malformed JSON, and JSON nested
    too deeply for the decoder's recursion, are ValueErrors."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
