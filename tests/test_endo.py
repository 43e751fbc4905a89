"""Composition, iteration, and Jacobians of polynomial maps."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import samplers
from polyaut.endo import (
    Endo,
    SquareMatrixPoly,
    linear_combination,
    verify_inverse_pair,
)
from polyaut.poly import NEG_INF, Poly
from polyaut.tame import invert_word, word_to_endo

Q = Fraction


def V(n):
    return Poly.variables(n)


def shear2():
    x, y = V(2)
    return Endo([x + y**2, y])


def test_constructor_validation():
    x, y = V(2)
    with pytest.raises(ValueError):
        Endo([])
    with pytest.raises(ValueError):
        Endo([x])  # 1 coordinate of dimension 2
    with pytest.raises(ValueError):
        Endo([x, Poly.variable(3, 1)])


def test_identity_needs_an_int_dimension():
    with pytest.raises(ValueError, match="dimension must be a positive integer, got True"):
        Endo.identity(True)


def test_identity_fixed_by_composition():
    g = shear2()
    e = Endo.identity(2)
    assert g.compose(e) == g
    assert e.compose(g) == g


def test_composition_order_is_right_to_left():
    x, y = V(2)
    f = Endo([x + 1, y])      # translate first coordinate
    g = Endo([2 * x, y])      # then double it
    assert g.compose(f) == Endo([2 * x + 2, y])
    assert f.compose(g) == Endo([2 * x + 1, y])


def test_iterate_of_shear():
    g = shear2()
    x, y = V(2)
    assert g.iterate(0) == Endo.identity(2)
    assert g.iterate(1) == g
    assert g.iterate(3) == Endo([x + 3 * y**2, y])
    with pytest.raises(ValueError):
        g.iterate(-1)
    with pytest.raises(ValueError):
        g.iterate(True)


def test_degree():
    x, y = V(2)
    assert shear2().degree() == 2
    assert Endo.identity(2).degree() == 1
    assert Endo([Poly.constant(2, 3), Poly.zero(2)]).degree() == 0
    zero_map = Endo([Poly.zero(2), Poly.zero(2)])
    assert zero_map.degree() == NEG_INF
    assert zero_map.is_zero_map


def test_jacobian_of_shear_is_unipotent():
    g = shear2()
    x, y = V(2)
    jm = g.jacobian_matrix()
    assert jm == SquareMatrixPoly([[Poly.constant(2, 1), 2 * y],
                                   [Poly.zero(2), Poly.constant(2, 1)]])
    assert g.jacobian_det() == 1


def test_jacobian_chain_rule_on_determinants():
    # det J(F o G) = (det J(F) o G) * det J(G)
    x, y = V(2)
    f = Endo([x + y**2, y + 1])
    g = Endo([x * y, y - x])
    fg = f.compose(g)
    lhs = fg.jacobian_det()
    rhs = f.jacobian_det().substitute(g.coords) * g.jacobian_det()
    assert lhs == rhs


def test_bareiss_determinant_on_5x5():
    # block diagonal: det = product of the diagonal entries
    x = Poly.variables(5)
    rows = [[x[i] if i == j else Poly.zero(5) for j in range(5)] for i in range(5)]
    d = SquareMatrixPoly(rows).det()
    expected = x[0]
    for p in x[1:]:
        expected = expected * p
    assert d == expected


def test_bareiss_numerator_beyond_row_degrees():
    # the step-1 numerator has degree 4 in x1, above the sum 3 of the row
    # degrees, so the packed fields must have room for twice that sum
    (x,) = V(1)
    one, zero = Poly.constant(1, 1), Poly.zero(1)
    rows = [[x, one, zero], [one, x, one], [zero, one, x]]
    assert SquareMatrixPoly(rows).det() == x**3 - 2 * x


def laplace_det(rows):
    """Reference determinant: Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = Poly.zero(rows[0][0].n)
    for k, entry in enumerate(rows[0]):
        if entry:
            minor = laplace_det([r[:k] + r[k + 1:] for r in rows[1:]])
            total = total - entry * minor if k % 2 else total + entry * minor
    return total


def test_bareiss_matches_cofactor():
    # the same 4x4 matrix through det() and a plain Laplace expansion
    x, y = V(2)
    one = Poly.constant(2, 1)
    rows = [
        [x, y, one, Poly.zero(2)],
        [one, x + y, y, one],
        [Poly.zero(2), one, x, y],
        [y, Poly.zero(2), one, x * y],
    ]
    assert SquareMatrixPoly(rows).det() == laplace_det(rows)


@st.composite
def square_matrices(draw):
    """Matrices of size 1-6 over Q[x1..xn], n = 1-5, in one of five shapes:
    random entries, a zero row, a zero first pivot (so elimination must
    swap rows), all-constant entries, or a row that is a combination of
    other rows (determinant 0)."""
    size = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=5))
    shape = draw(st.sampled_from(["random", "zero row", "zero pivot",
                                  "constant", "rank deficient"]))
    top = 0 if shape == "constant" else 2
    mono = st.tuples(*([st.integers(min_value=0, max_value=top)] * n))
    entry = st.dictionaries(mono, coeffs.filter(bool), max_size=3).map(
        lambda d: Poly(n, d)
    )
    rows = draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                         min_size=size, max_size=size))
    i = draw(st.integers(min_value=0, max_value=size - 1))
    others = [r for r in range(size) if r != i]
    if shape == "zero pivot":
        rows[0][0] = Poly.zero(n)
    elif shape == "zero row" or (shape == "rank deficient" and not others):
        rows[i] = [Poly.zero(n)] * size
    elif shape == "rank deficient":
        # row i becomes a*row_j + b*row_l for rows j, l other than i
        j, l = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        a, b = draw(entry), draw(entry)
        rows[i] = [a * rows[j][c] + b * rows[l][c] for c in range(size)]
    return shape, rows


# permuted cases: every pivot needs a row swap, an odd number in all
_X1, _X2, _X3 = Poly.variables(3)
_O, _I = Poly.zero(3), Poly.constant(3, 1)


@given(square_matrices())
@example(("zero pivot", [[_O, _X1], [_X2, _I]]))
@example(("zero pivot", [[_O, _O, _X1], [_O, _X2, _I], [_X3, _I, _O]]))
@settings(deadline=None, max_examples=60)
def test_det_matches_laplace_expansion(case):
    shape, rows = case
    d = SquareMatrixPoly(rows).det()
    assert d == laplace_det(rows)
    if shape in ("zero row", "rank deficient"):
        assert d.is_zero


def test_linear_combination():
    g = shear2()
    h = Endo.identity(2)
    x, y = V(2)
    lc = linear_combination([Q(1, 2), Q(-1, 2)], [g, h])
    assert lc == Endo([Fraction(1, 2) * y**2, Poly.zero(2)])
    with pytest.raises(ValueError):
        linear_combination([1], [g, h])
    with pytest.raises(ValueError):
        linear_combination([], [])


def test_verify_inverse_pair():
    x, y = V(2)
    g = shear2()
    ginv = Endo([x - y**2, y])
    assert verify_inverse_pair(g, ginv)
    assert not verify_inverse_pair(g, g)


def _two_sided_reference(f, g):
    # the inverse-pair check as first written: both compositions
    ident = Endo.identity(f.n)
    return f.compose(g) == ident and g.compose(f) == ident


def _triangular_inverse(f):
    # x_i -> a_i x_i + t_i(x_{i+1}, ..., x_n) is undone from the last
    # coordinate up: y_i = (x_i - t_i(y_{i+1}, ..., y_n)) / a_i
    xs = V(f.n)
    inv = list(xs)
    for i in reversed(range(f.n)):
        a = f.coords[i].terms[tuple(int(j == i) for j in range(f.n))]
        tail = f.coords[i] - a * xs[i]
        inv[i] = (xs[i] - tail.substitute(inv)) * (1 / a)
    return Endo(inv)


def _sampled_pair(source, rng):
    n = rng.randint(1, 3)
    if source == "triangular":
        f = samplers.random_triangular(rng, n, scalars=samplers.DIAGONAL_POOL)
        return f, _triangular_inverse(f)
    w = samplers.random_word(rng, n, 3)
    return word_to_endo(w), word_to_endo(invert_word(w))


@given(
    st.sampled_from(("triangular", "word")),
    st.sampled_from(("inverse", "tampered", "singular")),
    st.integers(min_value=0, max_value=2**32),
)
@settings(deadline=None, max_examples=80)
def test_one_sided_check_matches_two_sided_reference(source, partner, seed):
    rng = random.Random(seed)
    f, g = _sampled_pair(source, rng)
    coords = list(g.coords)
    j = rng.randrange(f.n)
    if partner == "tampered":
        # perturb one coefficient, or add a term where there is none
        mono = rng.choice(sorted(coords[j].terms) or [(0,) * f.n])
        coords[j] = coords[j] + Poly(f.n, {mono: rng.choice(samplers.COEFF_POOL)})
    elif partner == "singular":
        coords[j] = Poly.zero(f.n)  # a constant coordinate: det J = 0
    g = Endo(coords)
    expected = partner == "inverse"
    assert _two_sided_reference(f, g) == expected
    assert verify_inverse_pair(f, g) == expected
    assert verify_inverse_pair(g, f) == expected


def test_inverse_pair_composes_the_lower_degree_map_outside(monkeypatch):
    x, y, z = V(3)
    f = Endo([x + y**2, y + z**2, z])
    g = Endo([x - (y - z**2) ** 2, y - z**2, z])
    t = Endo([x, y + 1, z])
    t_inv = Endo([x, y - 1, z])
    outer = []
    compose = Endo.compose
    monkeypatch.setattr(
        Endo, "compose", lambda self, other: outer.append(self) or compose(self, other)
    )
    assert verify_inverse_pair(f, g) and verify_inverse_pair(g, f)
    assert verify_inverse_pair(t_inv, t)
    assert outer == [f, f, t_inv]  # degree 2 outside degree 4; a tie keeps f
    with pytest.raises(ValueError):
        verify_inverse_pair(Endo.identity(2), Endo.identity(3))


def test_equals_handles_dimension_mismatch():
    assert Endo.identity(2) != Endo.identity(3)
    assert Endo.identity(2) == Endo(V(2))


# ----------------------------------------------------------------------
# the running example: the degree-5 wild map in dimension 3

def nagata():
    x, y, z = V(3)
    w = x * z + y**2
    return Endo([x - 2 * y * w - z * w**2, y + z * w, z])


def test_nagata_degree_and_jacobian():
    f = nagata()
    assert f.degree() == 5
    assert f.jacobian_det() == 1


def test_nagata_inverse():
    x, y, z = V(3)
    w = x * z + y**2
    finv = Endo([x + 2 * y * w - z * w**2, y - z * w, z])
    assert verify_inverse_pair(nagata(), finv)


# ----------------------------------------------------------------------
# laws

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def small_maps(n=2):
    mono = st.tuples(*([st.integers(min_value=0, max_value=2)] * n))
    poly = st.dictionaries(mono, coeffs.filter(bool), max_size=3).map(
        lambda d: Poly(n, d)
    )
    return st.lists(poly, min_size=n, max_size=n).map(Endo)


@given(small_maps(), small_maps(), small_maps())
@settings(deadline=None, max_examples=25)
def test_composition_associative(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@given(small_maps(), st.integers(min_value=0, max_value=3))
@settings(deadline=None, max_examples=25)
def test_iterate_is_repeated_composition(g, m):
    expected = Endo.identity(2)
    for _ in range(m):
        expected = g.compose(expected)
    assert g.iterate(m) == expected


@given(small_maps(), small_maps())
@settings(deadline=None, max_examples=25)
def test_linear_combination_distributes_over_right_composition(f, g):
    # (a*F + b*G) o H == a*(F o H) + b*(G o H), the identity minimal
    # polynomial arguments lean on
    h = shear2()
    a, b = Q(2, 3), Q(-5)
    lhs = linear_combination([a, b], [f, g]).compose(h)
    rhs = linear_combination([a, b], [f.compose(h), g.compose(h)])
    assert lhs == rhs


def _linear_combination_reference(coeffs, maps):
    """Term by term in Fraction arithmetic, as linear_combination summed
    before it used one integer denominator per coordinate."""
    n = maps[0].n
    coords = []
    for i in range(n):
        acc = {}
        for c, g in zip(coeffs, maps):
            for mono, v in g.coords[i].terms.items():
                acc[mono] = acc.get(mono, 0) + Fraction(c) * v
        coords.append(Poly(n, acc))
    return Endo(coords)


@given(
    st.lists(st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                       small_maps(3)), min_size=1, max_size=4),
    st.sampled_from(("as drawn", "cancelled", "halves cancelled")),
)
@settings(deadline=None, max_examples=80)
def test_linear_combination_matches_fraction_reference(pairs, shape):
    cs = [c for c, _ in pairs]
    maps = [g for _, g in pairs]
    if shape == "cancelled":
        # the same maps again with negated coefficients: the zero map
        cs, maps = cs + [-c for c in cs], maps + maps
    elif shape == "halves cancelled":
        cs, maps = cs + [-c / 2 for c in cs] * 2, maps * 3
    result = linear_combination(cs, maps)
    assert result == _linear_combination_reference(cs, maps)
    # canonical terms: nonzero Fractions in lowest terms
    assert all(type(v) is Fraction and v for p in result.coords for v in p.terms.values())
    if shape != "as drawn":
        assert result.is_zero_map
