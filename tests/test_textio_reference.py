"""The one-pass parser against the recursive reference parser."""

import re
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_parser
from polyaut.endo import Endo
from polyaut.poly import Poly
from polyaut.textio import parse_map, parse_poly, render_map


def _outcome(parse, text, n):
    """The parsed value as (n, terms, every coefficient a Fraction) of each
    polynomial, or the exception's class and message."""
    try:
        value = parse(text, n)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    polys = value.coords if isinstance(value, Endo) else [value]
    return [(p.n, p.terms, all(type(c) is Fraction for c in p.terms.values()))
            for p in polys]


def _mostly(good, other):
    """Draws from good three times in four, else from other."""
    return st.integers(0, 3).flatmap(lambda k: good if k else other)


# expressions of the grammar: every atom, sums, products, quotients of
# atoms, powers of parentheses and chains of unary minus; _WRAPPED puts one
# under up to 120 parentheses or signs, which the reference parser, at five
# frames a parenthesis, still parses within the stack
_EXPR = st.recursive(
    st.sampled_from(["x1", "x2", "x3", "x4", "X", "Y", "Z", "y", "0", "1", "2",
                     "1/2", "-3/4", "6/4", "0/5", "007"]),
    lambda e: (st.tuples(e, st.sampled_from([" + ", " - ", "*", "/", "*-", "^2*"]), e)
               .map("".join)
               | st.tuples(e, st.sampled_from(["0", "1", "2", "3"]))
               .map(lambda t: f"({t[0]})^{t[1]}")
               | st.tuples(st.integers(1, 4), e).map(lambda t: "-" * t[0] + t[1])),
    max_leaves=8,
)
_WRAPPED = st.tuples(st.integers(0, 120), st.sampled_from(["(", "-(", "-"]), _EXPR).map(
    lambda t: t[1] * t[0] + t[2] + (")" * t[0] if "(" in t[1] else "")
)
_NOISE = st.lists(
    _mostly(st.sampled_from(["x1", "x2", "x4", "X", "Y", "Z", "q", "x01", "0", "12",
                             "1/2", "+", "-", "*", "/", "^", "^2", "^9", "(", ")",
                             ",", " ", "\t"]),
            st.characters()),
    max_size=20,
).map("".join)
_EXPONENT = re.compile(r"\^\s*([0-9]+)")


def _bounded_powers(text):
    # nested powers multiply degrees; keep every expansion small
    return prod(max(int(e), 1) for e in _EXPONENT.findall(text)) <= 27


@given(st.one_of(_mostly(_WRAPPED, _NOISE),
                 st.lists(_EXPR, min_size=1, max_size=4).map(", ".join)),
       st.integers(1, 4), st.booleans())
@settings(max_examples=600, deadline=None)
def test_parser_matches_the_reference(text, n, as_map):
    assume(_bounded_powers(text))
    new, ref = (parse_map, reference_parser.parse_map) if as_map else (
        parse_poly, reference_parser.parse_poly)
    assert _outcome(new, text, n) == _outcome(ref, text, n)


def test_rendered_iterate_round_trips():
    g = parse_map("Y, X + Y^2", 2).iterate(7)
    text = render_map(g)
    assert sum(len(c.terms) for c in g.coords) == 1804
    assert parse_map(text, 2) == g
    assert _outcome(parse_map, text, 2) == _outcome(reference_parser.parse_map, text, 2)


# ----------------------------------------------------------------------
# a term without parentheses is built without Poly arithmetic

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__pow__", "__neg__")
_FLAT = "2*x1^3*x2 - 1/2*x3^2 + -x2*4, x1, -x3 + 7/3 - 2*x3 + x3*3 + --0^0*X*y"


def _forbid_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("Poly arithmetic")

    for name in _ARITHMETIC:
        monkeypatch.setattr(Poly, name, refuse)


def test_terms_without_parentheses_use_no_poly_arithmetic(monkeypatch):
    expected = reference_parser.parse_map(_FLAT, 3)
    _forbid_arithmetic(monkeypatch)
    assert parse_map(_FLAT, 3) == expected


@pytest.mark.parametrize("text", ["(x1 + 1)^2*x2", "x2*(x1 - 1)*(x3 + x2)"])
def test_parenthesized_factors_take_the_poly_path(monkeypatch, text):
    _forbid_arithmetic(monkeypatch)
    with pytest.raises(AssertionError, match="Poly arithmetic"):
        parse_poly(text, 3)
