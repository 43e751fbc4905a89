"""Composition, iteration, and Jacobians of polynomial maps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaut.endo import (
    Endo,
    SquareMatrixPoly,
    linear_combination,
    verify_inverse_pair,
)
from polyaut.poly import NEG_INF, Poly

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


def test_bareiss_matches_cofactor():
    # same 4x4 matrix through both code paths
    x, y = V(2)
    one = Poly.constant(2, 1)
    rows = [
        [x, y, one, Poly.zero(2)],
        [one, x + y, y, one],
        [Poly.zero(2), one, x, y],
        [y, Poly.zero(2), one, x * y],
    ]
    from polyaut.endo import _det_bareiss, _det_cofactor

    assert _det_bareiss(rows) == _det_cofactor([list(r) for r in rows],
                                               list(range(4)))


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
