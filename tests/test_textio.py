"""Grammar, rendering, and the JSON map document."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaut.endo import Endo
from polyaut.poly import Poly
from polyaut.textio import (
    MapDocument,
    ParseError,
    parse_map,
    parse_poly,
    render_map,
    render_poly,
)

Q = Fraction


def V(n):
    return Poly.variables(n)


# ----------------------------------------------------------------------
# parsing

def test_parse_basic_three_term():
    p = parse_poly("x1 - 2*x2^3 + 1/3", 2)
    x, y = V(2)
    assert p == x - 2 * y**3 + Q(1, 3)


def test_parse_aliases_when_n_small():
    x, y, z = V(3)
    assert parse_poly("Y^2 + X*Z", 3) == y**2 + x * z
    assert parse_poly("y^2 + x*z", 3) == y**2 + x * z
    a, b = V(2)
    assert parse_poly("X + Y", 2) == a + b


def test_aliases_rejected_in_high_dimension():
    with pytest.raises(ParseError):
        parse_poly("X + Y", 4)
    # but x1..x4 fine
    p = parse_poly("x1 + x4", 4)
    assert p == Poly.variable(4, 1) + Poly.variable(4, 4)


def test_variable_index_is_read_by_value():
    # leading zeros do not count, however many; 5001 digits would exceed
    # the digit limit of int()
    x1, x4 = Poly.variable(4, 1), Poly.variable(4, 4)
    assert parse_poly("x04 + x" + "0" * 5000 + "1", 4) == x1 + x4
    with pytest.raises(ParseError, match="variable x010 out of range"):
        parse_poly("x010", 4)


def test_parse_zero():
    assert parse_poly("0", 3) == Poly.zero(3)


def test_whitespace_insensitive():
    assert parse_poly(" x1+ 2 * x2 ", 2) == parse_poly("x1+2*x2", 2)


def test_precedence():
    x, y = V(2)
    assert parse_poly("2*x1^3", 2) == 2 * x**3          # ^ before *
    assert parse_poly("-x1^2", 2) == -(x**2)            # ^ before unary -
    assert parse_poly("x1 + x1*x2", 2) == x + x * y     # * before +
    assert parse_poly("(x1 + x2)^2", 2) == (x + y) ** 2
    assert parse_poly("x1 - -x2", 2) == x + y


def test_rational_literals():
    assert parse_poly("5/3", 1) == Q(5, 3)
    assert parse_poly("-5/3", 1) == Q(-5, 3)
    (x,) = V(1)
    assert parse_poly("1/2*x1", 1) == Q(1, 2) * x


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2 x1", 2)
    with pytest.raises(ParseError):
        parse_poly("x1 x2", 2)
    with pytest.raises(ParseError):
        parse_poly("2(x1)", 2)


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_poly("x1 + @", 2)
    assert e.value.pos == 5
    with pytest.raises(ParseError) as e:
        parse_poly("x1 + x9", 2)
    assert e.value.pos == 5 and "out of range" in e.value.message
    with pytest.raises(ParseError) as e:
        parse_poly("foo + 1", 2)
    assert "unknown variable" in e.value.message


def test_bad_exponents():
    with pytest.raises(ParseError):
        parse_poly("x1^-2", 2)
    with pytest.raises(ParseError):
        parse_poly("x1^x2", 2)
    with pytest.raises(ParseError):
        parse_poly("x1^(2)", 2)


def test_unbalanced_and_trailing():
    for bad in ["(x1 + x2", "x1)", "x1 +", "* x1", "", "x1 ^"]:
        with pytest.raises(ParseError):
            parse_poly(bad, 2)


def test_division_only_in_literals():
    with pytest.raises(ParseError):
        parse_poly("x1/2", 2)
    with pytest.raises(ParseError):
        parse_poly("1/0", 2)


def test_parse_map():
    g = parse_map("Y, X+Y^2", 2)
    x, y = V(2)
    assert g == Endo([y, x + y**2])
    with pytest.raises(ParseError):
        parse_map("x1, x2, x1", 2)
    with pytest.raises(ParseError):
        parse_map("x1", 2)


# ----------------------------------------------------------------------
# rendering

def test_render_values():
    x, y = V(2)
    assert render_poly(Poly.zero(2)) == "0"
    assert render_poly(2 * x) == "2*x1"
    assert render_poly(x - 2 * y**3 + Q(1, 3)) == "x1 - 2*x2^3 + 1/3"
    assert render_poly(-x + Q(-1, 2)) == "-x1 - 1/2"
    assert render_poly(Poly.constant(2, Q(-7, 3))) == "-7/3"
    assert render_map(Endo([y, x + y**2])) == "x2, x1 + x2^2"


def test_render_nagata_round_trip():
    x, y, z = V(3)
    w = x * z + y**2
    f = Endo([x - 2 * y * w - z * w**2, y + z * w, z])
    assert parse_map(render_map(f), 3) == f


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


def polys(n):
    mono = st.tuples(*([st.integers(min_value=0, max_value=5)] * n))
    return st.dictionaries(mono, coeffs, max_size=6).map(lambda d: Poly(n, d))


@given(st.one_of(polys(1), polys(2), polys(4)))
@settings(max_examples=200)
def test_parse_render_round_trip(p):
    assert parse_poly(render_poly(p), p.n) == p


@given(polys(3), polys(3))
def test_render_injective(p, q):
    assert (render_poly(p) == render_poly(q)) == (p == q)


# ----------------------------------------------------------------------
# map documents

def test_map_document_round_trip():
    text = '{"n": 2, "coords": ["x2", "x1 + x2^2"], "name": "henon"}'
    doc = MapDocument.from_json(text)
    assert doc == MapDocument(parse_map("Y, X+Y^2", 2), name="henon")
    assert doc.to_json() == text


def test_map_document_renders_endo():
    g = parse_map("Y, X+Y^2", 2)
    doc = MapDocument(g)
    assert doc.name is None and doc.notes is None
    assert doc.to_json_dict() == {"n": 2, "coords": ["x2", "x1 + x2^2"]}
    assert MapDocument.from_json(doc.to_json()).endo == g


def test_map_document_validation():
    with pytest.raises(ValueError):
        MapDocument.from_json('{"n": 2, "coords": ["x1"]}')
    with pytest.raises(ParseError):
        MapDocument.from_json('{"n": 2, "coords": ["x1", "x3"]}')
    with pytest.raises(ValueError):
        MapDocument.from_json('{"n": 2}')
    with pytest.raises(ValueError):
        MapDocument.from_json('{"n": 2, "coords": ["x1", "x2"], "extra": 1}')
    with pytest.raises(ValueError):
        MapDocument.from_json("not json")
    with pytest.raises(ValueError):
        MapDocument.from_json('{"n": 2, "coords": "x1, x2"}')
    with pytest.raises(ValueError):
        MapDocument(["x1", "x2"])


def test_map_document_rejects_bool_dimension():
    with pytest.raises(ValueError):
        MapDocument.from_json('{"n": true, "coords": ["x1"]}')
    with pytest.raises(ValueError):
        MapDocument.from_json_dict({"n": True, "coords": ["x1"]})
    with pytest.raises(ValueError):
        parse_map("x1", True)


# ----------------------------------------------------------------------
# nesting deeper than the interpreter stack is a parse error

@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "x1" + ")" * 3000, "-" * 5000 + "x1", "x1 + " + "(" * 3000],
)
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_poly(text, 2)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_map(text + ", x2", 2)
    # the parser still works afterwards
    assert parse_poly("(" * 50 + "x1" + ")" * 50, 2) == Poly.variable(2, 1)
