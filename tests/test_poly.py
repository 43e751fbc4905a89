"""Exactness and ring laws for the sparse polynomial core."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyaut import poly
from polyaut.endo import Endo
from polyaut.poly import NEG_INF, Poly, is_int, monomial_degree


def V(n):
    return Poly.variables(n)


# ----------------------------------------------------------------------
# hypothesis strategies: small dimension, small support, exact coefficients

coeffs = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
).filter(lambda c: c != 0)


def monos(n):
    return st.tuples(*([st.integers(min_value=0, max_value=3)] * n))


def polys(n, max_terms=4):
    return st.dictionaries(monos(n), coeffs, max_size=max_terms).map(
        lambda d: Poly(n, d)
    )


# ----------------------------------------------------------------------
# construction and canonical form

def test_zero_is_empty_dict():
    z = Poly.zero(3)
    assert z.terms == {}
    assert z.is_zero
    assert not z


def test_zero_coefficients_dropped_on_construction():
    p = Poly(2, {(1, 0): 3, (0, 1): 0})
    assert (0, 1) not in p.terms
    assert p == Poly(2, {(1, 0): 3})


def test_coefficients_normalized_to_fraction():
    p = Poly(1, {(2,): 3})
    c = p.coefficient((2,))
    assert isinstance(c, Fraction) and c == 3


def test_bad_exponent_tuple_rejected():
    with pytest.raises(ValueError):
        Poly(2, {(1,): 1})
    with pytest.raises(ValueError):
        Poly(2, {(1, -1): 1})


def test_variable_is_one_based():
    x, y = V(2)
    assert x.terms == {(1, 0): 1}
    assert y.terms == {(0, 1): 1}
    with pytest.raises(ValueError):
        Poly.variable(2, 0)
    with pytest.raises(ValueError):
        Poly.variable(2, 3)


def test_equality_against_scalars():
    assert Poly.constant(2, Fraction(5, 3)) == Fraction(5, 3)
    assert Poly.zero(4) == 0
    x, y = V(2)
    assert x + y != 0


def test_hashable_and_usable_as_dict_key():
    x, y = V(2)
    d = {x * y: "xy"}
    assert d[y * x] == "xy"


@pytest.mark.parametrize("value", [0, 3, -7, Fraction(0), Fraction(5, 3), Fraction(-6, 2)])
def test_constants_hash_as_their_values(value):
    # equal values hash alike, so a constant and its value are one set member
    for n in (1, 3):
        p = Poly.constant(n, value)
        assert p == value and hash(p) == hash(value)
        assert len({value, p}) == 1
    assert hash(Poly.zero(2)) == hash(0) == hash(Fraction(0))


def test_immutable():
    p = Poly.constant(1, 1)
    with pytest.raises(AttributeError):
        p.terms = {}


# ----------------------------------------------------------------------
# arithmetic: frozen values

def test_square_of_y2_plus_xz():
    x, y, z = V(3)
    p = y**2 + x * z
    q = p * p
    assert q == y**4 + 2 * x * y**2 * z + x**2 * z**2


def test_mixed_scalar_arithmetic():
    (x,) = V(1)
    p = 2 * x + 1
    assert p - 1 == 2 * x
    assert Fraction(1, 2) * p == x + Fraction(1, 2)
    assert 3 - p == 2 - 2 * x


def test_pow_negative_rejected():
    (x,) = V(1)
    with pytest.raises(ValueError):
        x ** (-1)


def test_bools_are_not_counts():
    # bool subclasses int, but True is no dimension, exponent or power
    assert is_int(0) and is_int(-3) and is_int(2**70)
    assert not any(is_int(v) for v in (True, False, 1.0, Fraction(1), "1", None))
    with pytest.raises(ValueError):
        Poly(True)
    with pytest.raises(ValueError):
        Poly(2, {(True, 0): 1})
    with pytest.raises(ValueError):
        V(1)[0] ** True
    # nor a dimension or a variable index of the fast constructors
    for build in (lambda: Poly.constant(True, 1), lambda: Poly.constant(0, 1),
                  lambda: Poly.variable(True, 1), lambda: Poly.variable(2, True),
                  lambda: Poly.variable(2, 1.0)):
        with pytest.raises(ValueError):
            build()
    # nor a variable index of a derivative
    for index in (True, 1.5, 1.0):
        with pytest.raises(ValueError):
            V(2)[0].partial_derivative(index)


def test_pow_zero_is_one():
    x, y = V(2)
    assert (x * y - 3) ** 0 == 1
    assert Poly.zero(2) ** 0 == 1


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Poly.variable(2, 1) + Poly.variable(3, 1)


def direct_convolution(p, q):
    """p * q by the schoolbook Fraction double loop over exponent tuples."""
    out = {}
    for ma, ca in p.terms.items():
        for mb, cb in q.terms.items():
            m = tuple(a + b for a, b in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return Poly(p.n, out)


def test_kernel_product_matches_direct_convolution():
    x, y = V(2)
    a = (x + 2 * y + Fraction(1, 3)) ** 6
    b = (x - y * Fraction(5, 7) + 2) ** 6
    assert a * b == direct_convolution(a, b)


# ----------------------------------------------------------------------
# arithmetic: laws

@given(polys(2), polys(2), polys(2))
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero(2) == p
    assert p * Poly.constant(2, 1) == p
    assert p - p == 0


@given(polys(2), polys(2))
def test_degree_of_product_adds(p, q):
    # no zero divisors over a field
    dp, dq = p.total_degree(), q.total_degree()
    if p.is_zero or q.is_zero:
        assert (p * q).total_degree() == NEG_INF
    else:
        assert (p * q).total_degree() == dp + dq


@given(polys(3))
def test_top_form_is_homogeneous_of_top_degree(p):
    t = p.top_form()
    if p.is_zero:
        assert t.is_zero
    else:
        d = p.total_degree()
        assert all(monomial_degree(m) == d for m in t.terms)
        assert (p - t).total_degree() < d or (p - t).is_zero


# ----------------------------------------------------------------------
# degree, derivative, substitution

def test_total_degree_values():
    x, y = V(2)
    assert Poly.zero(2).total_degree() == NEG_INF
    assert Poly.constant(2, 7).total_degree() == 0
    assert (x**2 * y + y**2).total_degree() == 3


def test_partial_derivative_values():
    x, y = V(2)
    p = x**3 * y + 2 * y - 5
    assert p.partial_derivative(1) == 3 * x**2 * y
    assert p.partial_derivative(2) == x**3 + 2
    with pytest.raises(ValueError):
        p.partial_derivative(0)
    with pytest.raises(ValueError):
        p.partial_derivative(3)


@given(polys(2), polys(2))
def test_derivative_is_leibniz(p, q):
    lhs = (p * q).partial_derivative(1)
    rhs = p.partial_derivative(1) * q + p * q.partial_derivative(1)
    assert lhs == rhs


def test_substitute_values():
    x, y = V(2)
    p = x**2 + y
    assert p.substitute([y, x]) == y**2 + x
    assert p.substitute([Poly.constant(2, 2), Poly.constant(2, 3)]) == 7
    # substitution may change ambient dimension
    u, v, w = V(3)
    q = p.substitute([u + v, w])
    assert q == (u + v) ** 2 + w


def test_substitute_argument_validation():
    x, y = V(2)
    with pytest.raises(ValueError, match="expected 2 substitution arguments, got 1"):
        (x + y).substitute([x])
    with pytest.raises(ValueError, match="substitution arguments have mixed dimensions"):
        (x + y).substitute([x, Poly.variable(3, 1)])


def substitute_per_term(p, args):
    """p.substitute(args) the old way: cache the powers of every argument,
    then build and add up one polynomial per term."""
    m = args[0].n
    one = Poly.constant(m, 1)
    powers = []
    for k, q in enumerate(args):
        top = max((mono[k] for mono in p.terms), default=0)
        pw = [one]
        for _ in range(top):
            pw.append(pw[-1] * q)
        powers.append(pw)
    total = Poly.zero(m)
    for mono, c in p.terms.items():
        term = Poly.constant(m, c)
        for k, e in enumerate(mono):
            if e:
                term = term * powers[k][e]
        total = total + term
    return total


def substitution_args(n, m):
    """n arguments in dimension m: sampled polynomials, zeros and constants."""
    arg = st.one_of(
        polys(m),
        st.just(Poly.zero(m)),
        coeffs.map(lambda c: Poly.constant(m, c)),
    )
    return st.lists(arg, min_size=n, max_size=n)


@given(st.data(), st.integers(1, 3), st.integers(1, 3))
@settings(deadline=None)
def test_substitute_matches_per_term_reference(data, n, m):
    p = data.draw(polys(n, max_terms=6))
    args = data.draw(substitution_args(n, m))
    assert p.substitute(args) == substitute_per_term(p, args)


def one_term_args(n, m):
    """n one-term arguments in dimension m.  Exponents are 0 or 1, so two
    arguments often share a monomial and the terms they make merge."""
    arg = st.builds(lambda mono, c: Poly(m, {mono: c}),
                    st.tuples(*([st.integers(0, 1)] * m)), coeffs)
    return st.lists(arg, min_size=n, max_size=n)


@given(st.data(), st.integers(1, 3), st.integers(1, 3))
@settings(deadline=None)
def test_one_term_substitution_matches_per_term_reference(data, n, m):
    p = data.draw(polys(n, max_terms=6))
    args = data.draw(one_term_args(n, m))
    assert p.substitute(args) == substitute_per_term(p, args)


def test_one_term_substitution_merges_and_cancels():
    (y,) = V(1)
    # x1^2 - 4*x2 at (2*y, y^2): both terms land on y^2 and cancel
    p = Poly(2, {(2, 0): 1, (0, 1): -4})
    assert p.substitute([2 * y, y**2]).terms == {}
    x1, x2, x3 = V(3)
    args = [Fraction(1, 2) * y, -Fraction(1, 2) * y, 3 * y**2]
    # x1 and x2 cancel, x1^2 and x2^2 merge, x3 stays
    p = x1 + x2 + x1**2 + x2**2 + Fraction(1, 3) * x3 - 5
    assert p.substitute(args) == Fraction(1, 2) * y**2 + y**2 - 5
    assert p.substitute(args) == substitute_per_term(p, args)
    assert (x1 + x2).substitute(args).terms == {}


def test_one_term_substitution_skips_the_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("the product kernel was called")

    x, y, z = V(3)
    p = (x + 2 * y - Fraction(1, 3) * z + 1) ** 3
    args = [Fraction(2, 3) * x * y, -z, Poly.constant(3, 5)]
    expected = substitute_per_term(p, args)
    monkeypatch.setattr(poly, "_convolve", refuse)
    assert p.substitute(args) == expected


packed_terms = st.dictionaries(st.integers(0, 64), st.integers(-50, 50), max_size=8)


def nonzero(terms):
    return {k: v for k, v in terms.items() if v}


@given(packed_terms, packed_terms)
def test_square_kernel_matches_general_kernel(a, out):
    # the same dict twice takes the square path, a copy the general one
    assert nonzero(poly._convolve(a, a)) == nonzero(poly._convolve(a, dict(a)))
    assert nonzero(poly._convolve(a, a, dict(out))) == nonzero(
        poly._convolve(a, dict(a), dict(out)))


@given(polys(3, max_terms=6))
def test_square_matches_direct_convolution(p):
    assert p * p == direct_convolution(p, p)
    assert p**2 == direct_convolution(p, p)
    assert p**3 == direct_convolution(direct_convolution(p, p), p)


def test_dense_substitution_matches_per_term_reference():
    # a dense cube times x*y: many prefixes, each with a nonzero exponent
    # in both leading variables, so every prefix's product of powers takes
    # powers of two arguments with different denominators
    x, y, z = V(3)
    p = (x + 2 * y - Fraction(1, 3) * z + 1) ** 3 * x * y
    args = [x * y + Fraction(1, 2), y - 2 * z, Fraction(3, 4) * x + z**2 + 3]
    assert p.substitute(args) == substitute_per_term(p, args)


def maps(n):
    """Maps of n coordinates, each sampled or zero: their exponents and
    denominators differ from one another."""
    coord = st.one_of(polys(n, max_terms=5), st.just(Poly.zero(n)))
    return st.lists(coord, min_size=n, max_size=n).map(Endo)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(maps(n), maps(n))))
@example((
    Endo([Poly(3, {(3, 1, 0): Fraction(1, 5), (0, 0, 1): 1}), Poly.zero(3),
          Poly(3, {(0, 1, 0): Fraction(2, 7), (0, 0, 0): 1})]),
    Endo([Poly(3, {(1, 0, 0): Fraction(1, 2), (0, 1, 0): 1}),
          Poly(3, {(0, 2, 0): Fraction(1, 3), (0, 0, 1): -1}),
          Poly(3, {(0, 0, 1): 1, (0, 0, 0): Fraction(3, 4)})]),
))
@settings(deadline=None)
def test_compose_matches_per_term_reference(fg):
    # compose shares the powers and scales of g's coordinates across f's
    # coordinates, up to the largest exponent of any: beyond what each
    # coordinate of f needs on its own
    f, g = fg
    assert f.compose(g) == Endo([substitute_per_term(p, g.coords) for p in f.coords])


@given(polys(3, max_terms=6), polys(3, max_terms=6))
def test_product_matches_direct_convolution(p, q):
    assert p * q == direct_convolution(p, q)


@given(polys(3, max_terms=6), monos(3), coeffs)
def test_one_term_factor_matches_kernel(p, mono, c):
    monomial = Poly(3, {mono: c})
    expected = direct_convolution(p, monomial)
    assert p * monomial == expected
    assert monomial * p == expected
    assert p * Poly.constant(3, c) == direct_convolution(p, Poly.constant(3, c))


@pytest.mark.parametrize("k", range(1, 9))
def test_exponents_on_a_packing_field_boundary(k):
    # degree 2^k - 1 times degree 1 reaches 2^k, where the bit length of
    # the degree bound, and with it the field width, goes up by one
    x, y, z = V(3)
    top = 2**k - 1
    assert (x**top * x).terms == {(top + 1, 0, 0): 1}
    a, b = x**top + y**top, x + z
    assert (a * b).terms == {
        (top + 1, 0, 0): 1, (top, 0, 1): 1, (1, top, 0): 1, (0, top, 1): 1,
    }
    for a, b in [(x**top * z + y, x * z + y**top), (x**top + z, x**top * y + 1)]:
        assert a * b == direct_convolution(a, b)
    p = x**top * y + z**top
    args = [x + z, y, z]
    assert p.substitute(args) == substitute_per_term(p, args)
    assert (x**top * z).substitute([x, y, x]).terms == {(top + 1, 0, 0): 1}


def test_exponents_at_255_survive_squaring():
    x, y = V(2)
    p = x**255 * y**255
    assert (p * p).terms == {(510, 510): 1}
    q = p + x**255 + 1
    assert q * q == direct_convolution(q, q)
    u, v = V(2)
    assert p.substitute([u * v, v]) == Poly(2, {(255, 510): 1})
    assert q.substitute([u + 1, v]) == substitute_per_term(q, [u + 1, v])


@given(polys(2), polys(2), polys(2))
@settings(deadline=None)
def test_substitution_is_a_ring_map(p, q, a):
    args = [a, Poly.variable(2, 2)]
    assert (p + q).substitute(args) == p.substitute(args) + q.substitute(args)
    assert (p * q).substitute(args) == p.substitute(args) * q.substitute(args)


# ----------------------------------------------------------------------
# exact division

def test_divide_exact_roundtrip():
    x, y = V(2)
    a = x**2 - y**2
    b = x + y
    assert a.divide_exact(b) == x - y
    assert (a * b).divide_exact(a) == b


def test_divide_exact_rejects_inexact():
    x, y = V(2)
    with pytest.raises(ValueError):
        (x**2 + y).divide_exact(x + y)


def test_divide_exact_by_zero():
    (x,) = V(1)
    with pytest.raises(ZeroDivisionError):
        x.divide_exact(Poly.zero(1))


@given(polys(2), polys(2))
@settings(deadline=None)
def test_divide_exact_inverts_multiplication(p, q):
    if q.is_zero:
        return
    assert (p * q).divide_exact(q) == p


def test_divide_exact_by_divisor_with_rational_content():
    x, y = V(2)
    b = (Fraction(3, 7) * x * y - Fraction(5, 2)) * 6
    p = Fraction(2, 5) * x**2 - Fraction(7, 3) * y + 1
    assert (p * b).divide_exact(b) == p
    assert b.divide_exact(b) == 1


def test_divide_exact_rejects_remainder_beyond_dividend_degree():
    # long division keeps trading x2 for x1^2, raising x1's exponent past
    # the fields sized for the dividend's degree
    x1, x2 = V(2)
    with pytest.raises(ValueError):
        (x2**3).divide_exact(x2 - x1**2)
    # unguarded, the overflowing fields give the quotient x1^2*x2 + x2^2 + 1
    with pytest.raises(ValueError):
        (x2**3 - x1**2).divide_exact(x2 - x1**2)


def test_divide_exact_rejects_divisor_of_higher_degree():
    x, y = V(2)
    with pytest.raises(ValueError):
        (x + y).divide_exact(x * y + 1)


def test_divide_exact_of_zero_is_zero():
    x, y = V(2)
    assert Poly.zero(2).divide_exact(x * y - 3) == Poly.zero(2)
