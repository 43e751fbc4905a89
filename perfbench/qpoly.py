"""Exact polynomial helpers owned by the benchmark.

The generator and the oracle use these instead of the library, so a defect
in the library's arithmetic cannot hide itself.  A polynomial is a dict
{exponent tuple: Fraction} with no zero coefficients; a map is a list of
such dicts.  Only what generation and checking need is here: products and
substitution to build inputs, point evaluation and derivatives to check
outputs, and a reader for the library's canonical rendering.
"""

from __future__ import annotations

import re
from fractions import Fraction


def var(n: int, i: int) -> dict:
    """The polynomial x_i (1-based)."""
    return {tuple(int(j == i - 1) for j in range(n)): Fraction(1)}


def const(n: int, c) -> dict:
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = tuple(a + b for a, b in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def substitute(p: dict, args: list, n: int) -> dict:
    """p(args[0], ..., args[k-1]) in dimension n."""
    total: dict = {}
    for mono, c in p.items():
        term = const(n, c)
        for a, e in zip(args, mono):
            for _ in range(e):
                term = mul(term, a)
        total = add(total, term)
    return total


def compose(f: list, g: list) -> list:
    """f o g (g applied first)."""
    n = len(g)
    return [substitute(p, g, n) for p in f]


def evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for mono, c in p.items():
        t = c
        for v, e in zip(point, mono):
            if e:
                t *= v ** e
        total += t
    return total


def apply(f: list, point) -> tuple:
    return tuple(evaluate(p, point) for p in f)


# Long tame words blow up rational point values (each degree-3 elementary
# can triple their size), so words are evaluated in GF(P) instead: still an
# exact test, which two different maps of degree D pass at a random point
# with probability at most D / P.
P = 2**127 - 1


def to_mod(c) -> int:
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, P) % P


def evaluate_mod(p: dict, point) -> int:
    total = 0
    for mono, c in p.items():
        t = to_mod(c)
        for v, e in zip(point, mono):
            if e:
                t = t * pow(v, e, P) % P
        total += t
    return total % P


def derivative(p: dict, i: int) -> dict:
    """d p / d x_i (0-based i)."""
    out = {}
    for mono, c in p.items():
        e = mono[i]
        if e:
            out[mono[:i] + (e - 1,) + mono[i + 1:]] = c * e
    return out


def det(rows) -> Fraction:
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    d = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            d = -d
        d *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[k])]
    return d


# ----------------------------------------------------------------------
# text: the library's canonical rendering, written and read back

_RATIONAL = re.compile(r"\d+(?:/\d+)?")
_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?")


class Malformed(ValueError):
    """Output text is not in the canonical rendering."""


def parse_rendered(text: str, n: int) -> dict:
    """Read one polynomial as the library renders it: terms in descending
    lex order joined by ' + ' / ' - ', each 'c*x1^e1*...' with c omitted
    when it is 1.  Anything else raises Malformed."""
    text = text.strip()
    if text == "0":
        return {}
    pieces = re.split(r" ([+-]) ", text)
    signs = ["+"] + pieces[1::2]
    bodies = pieces[0::2]
    if bodies[0].startswith("-"):
        signs[0], bodies[0] = "-", bodies[0][1:]
    out: dict = {}
    order = []
    for sign, body in zip(signs, bodies):
        factors = body.split("*")
        coeff = Fraction(1)
        if _RATIONAL.fullmatch(factors[0]):
            coeff = Fraction(factors.pop(0))
            if coeff == 1 and factors:
                raise Malformed(f"explicit unit coefficient in {body!r}")
        exp = [0] * n
        last = -1
        for fac in factors:
            m = _FACTOR.fullmatch(fac)
            if m is None:
                raise Malformed(f"bad factor {fac!r} in {text!r}")
            i, e = int(m.group(1)) - 1, int(m.group(2) or 1)
            if not last < i < n or e < 1 or (m.group(2) and e == 1):
                raise Malformed(f"bad factor {fac!r} in {text!r}")
            exp[i], last = e, i
        mono = tuple(exp)
        if mono in out or coeff == 0:
            raise Malformed(f"repeated or zero term in {text!r}")
        out[mono] = -coeff if sign == "-" else coeff
        order.append(mono)
    if order != sorted(order, reverse=True):
        raise Malformed(f"terms out of order in {text!r}")
    return out


def render(p: dict) -> str:
    """The library's canonical rendering, which its parser also reads:
    input text for jobs, and tampered outputs for the self-test."""
    if not p:
        return "0"
    pieces = []
    for mono, c in sorted(p.items(), reverse=True):
        body = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                        for i, e in enumerate(mono) if e)
        mag = abs(c)
        body = body if mag == 1 and body else f"{mag}*{body}" if body else str(mag)
        sign = ("-" if c < 0 else "") if not pieces else (" - " if c < 0 else " + ")
        pieces.append(sign + body)
    return "".join(pieces)


def render_map(f: list) -> str:
    return ", ".join(render(p) for p in f)


def parse_rendered_map(text: str, n: int) -> list:
    coords = text.split(", ")
    if len(coords) != n:
        raise Malformed(f"expected {n} coordinates, got {len(coords)}")
    return [parse_rendered(c, n) for c in coords]
