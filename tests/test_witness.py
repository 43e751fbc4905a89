"""Conjugation witness construction and independent re-verification."""

import random
from fractions import Fraction

import pytest

from polyaut.endo import Endo, verify_inverse_pair
from polyaut.locfin import inverse_from_minpoly, lf_certify, UniPoly
from polyaut.poly import Poly
from polyaut.tame import Elementary
from polyaut.textio import parse_map, parse_poly
from polyaut.witness import (
    Witness,
    nagata,
    nagata_inverse,
    verify_witness,
    witness_obs2,
    witness_obs3,
    witness_obs4,
)
from samplers import random_elementary

Q = Fraction


def E(i, expr, n):
    return Elementary(i, parse_poly(expr, n))


# ----------------------------------------------------------------------
# doubling construction

def test_obs2_shear():
    w = witness_obs2(E(1, "x2^2", 2))
    assert w.kind == "Obs2"
    assert w.target == parse_map("x1 + x2^2, x2", 2)
    assert w.conjugator == w.target
    assert w.diagonal == parse_map("2*x1, x2", 2)
    # the intermediate conjugate has the displayed 2*X_i + g shape
    inner = w.conjugator_inverse.compose(w.diagonal).compose(w.conjugator)
    assert inner == parse_map("2*x1 + x2^2, x2", 2)
    assert verify_witness(w)


def test_obs2_trivial_g():
    w = witness_obs2(Elementary(1, Poly.zero(2)))
    assert w.target == Endo.identity(2)
    assert verify_witness(w)


def test_obs2_three_variables():
    w = witness_obs2(E(3, "x1*x2", 3))
    assert w.diagonal == parse_map("x1, x2, 2*x3", 3)
    inner = w.conjugator_inverse.compose(w.diagonal).compose(w.conjugator)
    assert inner == parse_map("x1, x2, 2*x3 + x1*x2", 3)
    assert verify_witness(w)


def test_obs2_random():
    rng = random.Random(29)
    for n in (2, 3, 4):
        for _ in range(10):
            assert verify_witness(witness_obs2(random_elementary(rng, n, 5)))


# ----------------------------------------------------------------------
# determinant-one construction

def test_obs3_cubic_example():
    w = witness_obs3(E(1, "x2^3", 2), a=2)
    assert w.kind == "Obs3"
    assert w.conjugator == parse_map("x1 + 1/15*x2^3, x2", 2)  # h = Y^3/15
    assert w.diagonal == parse_map("2*x1, 1/2*x2", 2)
    assert w.diagonal.jacobian_det() == 1
    assert verify_witness(w)


def test_obs3_constant_g():
    w = witness_obs3(E(1, "1", 2), a=2)
    assert w.conjugator == parse_map("x1 + 1, x2", 2)  # h = 1/(2-1)
    assert verify_witness(w)


def test_obs3_zero_g():
    w = witness_obs3(Elementary(2, Poly.zero(2)))
    assert w.conjugator == Endo.identity(2)
    assert verify_witness(w)


def test_obs3_mixed_variables():
    # g may involve the balancing variable x_j and others
    w = witness_obs3(E(2, "x1^2*x3 + x3^3 - 2*x1", 3), j=1)
    assert verify_witness(w)
    for factor in (w.conjugator, w.conjugator_inverse, w.diagonal):
        assert factor.jacobian_det() == 1


def test_obs3_parameter_independence():
    e = E(1, "x2^2 - 3*x2", 2)
    for a in (2, 3, -2, Q(5, 2)):
        w = witness_obs3(e, a=a)
        assert verify_witness(w)
        assert w.diagonal.jacobian_det() == 1


def test_obs3_default_j_picks_smallest():
    w = witness_obs3(E(2, "x1", 3))
    assert w.diagonal == parse_map("1/2*x1, 2*x2, x3", 3)  # j = 1
    w = witness_obs3(E(1, "x2", 3))
    assert w.diagonal == parse_map("2*x1, 1/2*x2, x3", 3)  # j = 2


def test_obs3_validation():
    e = E(1, "x2^2", 2)
    for bad_a in (0, 1, -1):
        with pytest.raises(ValueError):
            witness_obs3(e, a=bad_a)
    with pytest.raises(ValueError):
        witness_obs3(e, j=1)  # j == i
    with pytest.raises(ValueError):
        witness_obs3(e, j=3)  # out of range
    with pytest.raises(ValueError):
        witness_obs3(Elementary(1, Poly.constant(1, 1)))  # n = 1


def test_obs3_random():
    rng = random.Random(31)
    for n in (2, 3, 4):
        for _ in range(10):
            w = witness_obs3(random_elementary(rng, n, 5))
            assert verify_witness(w)


# ----------------------------------------------------------------------
# the wild map

def test_nagata_shape():
    f = nagata()
    assert f.degree() == 5
    assert f.jacobian_det() == 1
    assert verify_inverse_pair(f, nagata_inverse())


def test_obs4_chain():
    w = witness_obs4()
    assert w.kind == "Obs4"
    assert w.target == nagata()
    assert w.diagonal == parse_map("1/4*x1, 1/2*x2, x3", 3)
    assert len(w.transcript) == 5
    assert all(line.endswith("ok") for line in w.transcript)
    assert verify_witness(w)


def test_obs4_intermediate_closed_form():
    w = witness_obs4()
    inner = w.conjugator_inverse.compose(w.diagonal).compose(w.conjugator)
    x, y, z = Poly.variables(3)
    s = y**2 + x * z
    assert inner == Endo([
        Q(1, 4) * x - Q(1, 4) * s * y - Q(1, 16) * s**2 * z,
        Q(1, 2) * y + Q(1, 4) * s * z,
        z,
    ])


def test_nagata_cross_module_consistency():
    f = nagata()
    r = lf_certify(f)
    assert r.certified
    assert r.minimal_polynomial == UniPoly([-1, 3, -3, 1])
    assert inverse_from_minpoly(f, r.minimal_polynomial) == nagata_inverse()


# ----------------------------------------------------------------------
# re-verification catches tampering

def test_verify_rejects_tampered_diagonal():
    w = witness_obs2(E(1, "x2^2", 2))
    tampered = Witness(
        w.kind, w.target, w.conjugator, w.conjugator_inverse, Endo.identity(2),
        w.transcript,
    )
    assert not verify_witness(tampered)


def test_verify_rejects_nonunit_determinant_for_obs3():
    w2 = witness_obs2(E(1, "x2^2", 2))
    # the Obs2 witness is fine, but its diagonal has determinant 2, so the
    # same data relabeled as Obs3 must fail the determinant-one check
    assert verify_witness(w2)
    relabeled = Witness(
        "Obs3", w2.target, w2.conjugator, w2.conjugator_inverse, w2.diagonal,
    )
    assert not verify_witness(relabeled)


def test_verify_rejects_garbage():
    w = witness_obs2(E(1, "x2^2", 2))
    assert not verify_witness(
        Witness("Obs5", w.target, w.conjugator, w.conjugator_inverse, w.diagonal)
    )
    assert not verify_witness(
        Witness("Obs2", w.target, w.conjugator, w.conjugator, w.diagonal)
    )
    assert not verify_witness(
        Witness("Obs2", w.target, w.conjugator, w.conjugator_inverse, w.target)
    )
    assert not verify_witness(
        Witness("Obs2", nagata(), w.conjugator, w.conjugator_inverse, w.diagonal)
    )


def test_witness_json():
    w = witness_obs3(E(1, "x2^3", 2))
    doc = w.to_json_dict()
    assert doc["kind"] == "Obs3"
    assert doc["verified"] is True
    assert doc["target"] == {"n": 2, "coords": ["x1 + x2^3", "x2"]}
    assert doc["conjugator"]["coords"] == ["x1 + 1/15*x2^3", "x2"]
    assert isinstance(doc["transcript"], list)
