"""Conjugation witness construction and independent re-verification."""

import copy
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaut.endo import Endo, verify_inverse_pair
from polyaut.locfin import inverse_from_minpoly, lf_certify, UniPoly
from polyaut import witness
from polyaut.poly import InconsistencyError, Poly, VerificationError
from polyaut.tame import Diagonal, Elementary, gen_to_endo
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
# a Witness is checked when it is made; tampered data is refused

def reference_verify(kind, target, conjugator, conjugator_inverse, diagonal):
    """The verifier as it stood before the check moved into Witness,
    kept as a test-only reference on the five raw fields."""
    if kind not in ("Obs2", "Obs3", "Obs4"):
        return False
    maps = (target, conjugator, conjugator_inverse, diagonal)
    if len({g.n for g in maps}) != 1:
        return False
    if not verify_inverse_pair(conjugator, conjugator_inverse):
        return False
    entries = []
    for i, p in enumerate(diagonal.coords):
        mono = tuple(1 if j == i else 0 for j in range(diagonal.n))
        if set(p.terms) != {mono}:
            return False
        entries.append(p.terms[mono])
    if kind == "Obs3":
        det = Fraction(1)
        for c in entries:
            det *= c
        if det != 1:
            return False
    n = len(entries)
    d_inv = Endo([Poly.variable(n, i + 1) * (1 / entries[i]) for i in range(n)])
    chain = conjugator_inverse.compose(diagonal).compose(conjugator)
    return chain.compose(d_inv) == target


def test_verify_rejects_tampered_diagonal():
    w = witness_obs2(E(1, "x2^2", 2))
    with pytest.raises(InconsistencyError, match=re.escape(
            "not a witness: (C^-1 o D o C) o D^-1 does not recompose to the target")):
        Witness(w.kind, w.target, w.conjugator, w.conjugator_inverse, Endo.identity(2),
                w.transcript)


def test_verify_rejects_nonunit_determinant_for_obs3():
    w2 = witness_obs2(E(1, "x2^2", 2))
    # the Obs2 witness is fine, but its diagonal has determinant 2, so the
    # same data relabeled as Obs3 must fail the determinant-one check
    assert verify_witness(w2)
    with pytest.raises(InconsistencyError,
                       match="^not a witness: an Obs3 diagonal must have determinant 1$"):
        Witness("Obs3", w2.target, w2.conjugator, w2.conjugator_inverse, w2.diagonal)


def test_verify_rejects_garbage():
    w = witness_obs2(E(1, "x2^2", 2))
    for fields, message in [
        (("Obs5", w.target, w.conjugator, w.conjugator_inverse, w.diagonal),
         "unknown kind 'Obs5'"),
        (("Obs2", w.target, w.conjugator, w.conjugator, w.diagonal),
         "the conjugator and its claimed inverse are not inverse"),
        (("Obs2", w.target, w.conjugator, w.conjugator_inverse, w.target),
         "the diagonal is not a diagonal map"),
        (("Obs2", nagata(), w.conjugator, w.conjugator_inverse, w.diagonal),
         "the four maps do not share one dimension"),
    ]:
        assert not reference_verify(*fields)
        with pytest.raises(InconsistencyError, match="^not a witness: " + re.escape(message)):
            Witness(*fields)


@pytest.mark.parametrize("owner, name, wrong, message", [
    # L = (X/2, Y/2, Z) in place of (X/4, Y/2, Z)
    (witness, "gen_to_endo", lambda d: gen_to_endo(Diagonal((2 * d.c[0],) + d.c[1:])),
     "sigma o L != sigma/4"),
    (witness, "nagata", nagata_inverse, "F^-1 o L o F does not match the closed form"),
    (Endo, "jacobian_det", lambda g: Poly.constant(g.n, 2), "det J(F) != 1"),
], ids=["semi-invariant", "closed-form", "jacobian"])
def test_obs4_refuses_each_failed_step(monkeypatch, owner, name, wrong, message):
    # each step is checked where it is taken, before the Witness check
    monkeypatch.setattr(owner, name, wrong)
    with pytest.raises(VerificationError, match="^" + re.escape(message) + "$"):
        witness_obs4()


def test_copies_and_pickles_are_checked(monkeypatch):
    w = witness_obs3(E(1, "x2^3", 2))
    checked = []
    real = witness._first_failure
    monkeypatch.setattr(witness, "_first_failure",
                        lambda v: checked.append(v) or real(v))
    assert copy.copy(w) == w
    assert pickle.loads(pickle.dumps(w)) == w
    assert len(checked) == 2


def _fields(w):
    return [w.kind, w.target, w.conjugator, w.conjugator_inverse, w.diagonal]


def _change_one_coefficient(g, slot, pick, delta):
    coords = list(g.coords)
    terms = dict(coords[slot].terms)
    mono = sorted(terms)[pick % len(terms)] if terms else (0,) * g.n
    terms[mono] = terms.get(mono, 0) + delta
    coords[slot] = Poly(g.n, terms)
    return Endo(coords)


@st.composite
def witness_fields(draw):
    """The five fields of a valid witness, tampered with or not."""
    kind = draw(st.sampled_from(["obs2", "obs3", "obs4"]))
    if kind == "obs4":
        fields = _fields(witness_obs4())
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        e = random_elementary(rng, draw(st.integers(2, 3)), 4)
        fields = _fields(witness_obs2(e) if kind == "obs2" else
                         witness_obs3(e, a=draw(st.sampled_from([2, -3, Q(5, 2)]))))
    tamper = draw(st.sampled_from(["none", "coefficient", "swap", "relabel", "offdiagonal"]))
    n = fields[1].n
    if tamper == "coefficient":
        k = draw(st.integers(1, 4))
        fields[k] = _change_one_coefficient(
            fields[k], draw(st.integers(0, n - 1)), draw(st.integers(0, 20)),
            draw(st.sampled_from([1, -1, Q(1, 2)])))
    elif tamper == "swap":
        fields[2], fields[3] = fields[3], fields[2]
    elif tamper == "relabel":
        fields[0] = "Obs3" if fields[0] == "Obs2" else "Obs2"
    elif tamper == "offdiagonal":
        coords = list(fields[4].coords)
        coords[0] = coords[0] + Poly.variable(n, n) ** draw(st.integers(0, 2))
        fields[4] = Endo(coords)
    return fields


@settings(deadline=None, max_examples=80)
@given(witness_fields())
def test_construction_agrees_with_the_reference(fields):
    if reference_verify(*fields):
        assert verify_witness(Witness(*fields))
    else:
        with pytest.raises(InconsistencyError):
            Witness(*fields)


def test_work_per_witness(monkeypatch):
    # the constructors compose only what the Witness check does not imply,
    # and export composes nothing and does not verify again
    calls = Counter()
    for name in ("compose", "jacobian_det"):
        def counted(self, *args, _real=getattr(Endo, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(Endo, name, counted)
    for build, composes, jacobians in [
        (lambda: witness_obs2(E(1, "x2^2", 2)), 4, 0),
        (lambda: witness_obs3(E(1, "x2^3", 2)), 4, 0),
        (witness_obs4, 5, 1),
    ]:
        calls.clear()
        w = build()
        assert (calls["compose"], calls["jacobian_det"]) == (composes, jacobians)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(witness, "_first_failure", None)
            m.setattr(witness, "verify_witness", None)
            doc = w.to_json_dict()
        assert doc["verified"] is True
        assert calls == Counter()


def test_witness_export_parses_nothing(monkeypatch):
    # the four maps are rendered from the Endo; nothing is read back
    from polyaut import textio

    calls = []
    monkeypatch.setattr(textio, "parse_poly", lambda *args: calls.append(args))
    for w in (witness_obs2(E(1, "x2^2", 2)), witness_obs3(E(1, "x2^3", 2)),
              witness_obs4()):
        assert w.to_json_dict()["verified"] is True
    assert calls == []


def test_witness_json():
    w = witness_obs3(E(1, "x2^3", 2))
    doc = w.to_json_dict()
    assert doc["kind"] == "Obs3"
    assert doc["verified"] is True
    assert doc["target"] == {"n": 2, "coords": ["x1 + x2^3", "x2"]}
    assert doc["conjugator"]["coords"] == ["x1 + 1/15*x2^3", "x2"]
    assert isinstance(doc["transcript"], list)
