"""The recursive parser: the reference for textio's one-pass parser.

Each atom of this parser is a Poly, each `*` and `^` is Poly arithmetic
and each `+` copies the sum so far.  textio builds each term as one
coefficient and one exponent list instead; this is the code it replaced,
kept for the tests to compare values and errors against.
"""

import re
from fractions import Fraction

from polyaut.endo import Endo
from polyaut.poly import Poly, _brief, check_dimension
from polyaut.textio import ParseError


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^/(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if at >= len(text):
                break
            raise ParseError(f"unexpected character {text[at]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
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

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def accept(self, text: str) -> bool:
        kind, val, _ = self.peek()
        if kind == "op" and val == text:
            self.k += 1
            return True
        return False

    def fail(self, message: str):
        raise ParseError(message, self.peek()[2])

    # ------------------------------------------------------------------

    def expr(self) -> Poly:
        p = -self.term() if self.accept("-") else self.term()
        while True:
            if self.accept("+"):
                p = p + self.term()
            elif self.accept("-"):
                p = p - self.term()
            else:
                return p

    def term(self) -> Poly:
        p = self.unary()
        while self.accept("*"):
            p = p * self.unary()
        return p

    def unary(self) -> Poly:
        if self.accept("-"):
            return -self.unary()
        return self.power()

    def power(self) -> Poly:
        base = self.atom()
        if self.accept("^"):
            kind, val, pos = self.next()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", pos)
            return base ** int(val)
        return base

    def atom(self) -> Poly:
        kind, val, pos = self.next()
        if kind == "int":
            num = int(val)
            if self.accept("/"):
                dkind, dval, dpos = self.next()
                if dkind != "int":
                    raise ParseError("denominator must be an integer", dpos)
                if int(dval) == 0:
                    raise ParseError("zero denominator", dpos)
                return Poly.constant(self.n, Fraction(num, int(dval)))
            return Poly.constant(self.n, num)
        if kind == "name":
            return Poly.variable(self.n, self.variable_index(val, pos))
        if kind == "op" and val == "(":
            p = self.expr()
            if not self.accept(")"):
                self.fail("expected ')'")
            return p
        raise ParseError(
            "expected a number, variable, or '('" if kind != "end"
            else "unexpected end of input",
            pos,
        )

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
    got = 1 + sum(tok[:2] == ("op", ",") for tok in p.tokens) if coordinates else n
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
