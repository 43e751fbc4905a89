"""The immutable record classes: construction, equality, hashing, repr,
immutability, defaults and validation messages."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from polyaut.endo import Endo
from polyaut.locfin import LFReport, UniPoly, lf_certify
from polyaut.poly import NEG_INF, Record
from polyaut.tame import Affine, Diagonal, Elementary, NormalForm, TameWord
from polyaut.textio import MapDocument, ParseError, parse_map, parse_poly
from polyaut.witness import Witness, witness_obs3

G = parse_poly("x2^2 - 1/3", 2)
E = Elementary(1, G)
D = Diagonal((2, Fraction(1, 2)))
ID = parse_map("x1, x2", 2)
SHEAR = parse_map("x1 + x2^2, x2", 2)
P = "Poly(2, {(0, 2): Fraction(1, 1), (0, 0): Fraction(-1, 3)})"
I = "Endo([Poly(2, {(1, 0): Fraction(1, 1)}), Poly(2, {(0, 1): Fraction(1, 1)})])"


def make_all():
    """One fresh instance of each record class, each with the repr its
    frozen dataclass printed."""
    return [
        (MapDocument(ID), f"MapDocument(endo={I}, name=None, notes=None)"),
        (LFReport("CertifiedLF", UniPoly([-1, 1]), (0, 1), (1, 1)),
         "LFReport(verdict='CertifiedLF', minimal_polynomial=UniPoly([Fraction(-1, 1), "
         "Fraction(1, 1)]), iterate_degrees=(0, 1), budget_used=(1, 1))"),
        (Diagonal((2, Fraction(1, 2))), "Diagonal(c=(Fraction(2, 1), Fraction(1, 2)))"),
        (Elementary(1, G), f"Elementary(i=1, g={P})"),
        (Affine(((1, 2), (0, 1)), (0, 3)),
         "Affine(A=((Fraction(1, 1), Fraction(2, 1)), (Fraction(0, 1), Fraction(1, 1))), "
         "b=(Fraction(0, 1), Fraction(3, 1)))"),
        (TameWord((E, D), 2),
         f"TameWord(factors=(Elementary(i=1, g={P}), "
         "Diagonal(c=(Fraction(2, 1), Fraction(1, 2)))), n=2)"),
        (NormalForm([E], D),
         f"NormalForm(elementaries=(Elementary(i=1, g={P}),), "
         "diagonal=Diagonal(c=(Fraction(2, 1), Fraction(1, 2))))"),
        (Witness("Obs2", ID, ID, ID, ID),
         f"Witness(kind='Obs2', target={I}, conjugator={I}, conjugator_inverse={I}, "
         f"diagonal={I}, transcript=())"),
    ]


def test_equal_values_are_equal_and_hash_alike():
    for (a, _), (b, _) in zip(make_all(), make_all()):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert len({r for r, _ in make_all() + make_all()}) == 8


def test_different_values_and_classes_are_unequal():
    records = [r for r, _ in make_all()]
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            assert a != b
    assert Diagonal((2,)) != Diagonal((3,))
    assert MapDocument(ID) != MapDocument(ID, name="id")
    assert Witness("Obs2", ID, ID, ID, ID) != Witness("Obs2", ID, ID, ID, ID, ("x",))
    assert Diagonal((2,)) != (Fraction(2),)

    class Other(Record):
        __slots__ = ("c",)

    # the same field values in another class do not compare equal
    assert Other((Fraction(2),)) != Diagonal((2,))
    assert Diagonal((2,)) != Other((Fraction(2),))


def test_repr_is_the_dataclass_format():
    for record, text in make_all():
        assert repr(record) == text
    assert repr(LFReport("Unknown", None, (0, NEG_INF), (2, 0))) == (
        "LFReport(verdict='Unknown', minimal_polynomial=None, "
        "iterate_degrees=(0, -inf), budget_used=(2, 0))"
    )


def test_records_are_immutable_and_copy():
    for record, _ in make_all():
        for name in type(record).__slots__:
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1
        # copies are rebuilt through the constructor, as for the dataclasses
        assert copy.copy(record) == record
    # the value classes below the records are records too
    values = (G, SHEAR, SHEAR.jacobian_matrix(), UniPoly([-1, 0, 1]),
              lf_certify(parse_map("2*x1, 3*x2", 2)))
    for value in values:
        for name in type(value).__slots__:
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(value, name, None)
    for record in (D, Affine(((1, 2), (0, 1)), (0, 3)), MapDocument(ID, "id"),
                   witness_obs3(E)) + values:
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
            assert twin == record
            assert hash(twin) == hash(record)
    # a map keeps the iterates of its orbit; its value, and so every copy
    # of it, reads only its coordinates
    iterated, fresh = parse_map("x1 + x2^2, x2", 2), parse_map("x1 + x2^2, x2", 2)
    iterated.iterate(3)
    assert iterated._orbit is not None and fresh._orbit is None
    assert iterated == fresh and hash(iterated) == hash(fresh)
    assert repr(iterated) == repr(fresh)
    assert pickle.dumps(iterated) == pickle.dumps(fresh)
    for twin in (pickle.loads(pickle.dumps(iterated)), copy.copy(iterated),
                 copy.deepcopy(iterated)):
        assert twin == fresh and hash(twin) == hash(fresh)
        assert twin._orbit is None


def test_defaults_and_keywords():
    doc = MapDocument(endo=ID)
    assert (doc.name, doc.notes) == (None, None)
    assert doc.endo == ID
    assert MapDocument(ID, notes="n").to_json_dict() == {
        "n": 2, "coords": ["x1", "x2"], "notes": "n"}
    # a valid witness whose four maps all differ, so that a keyword bound to
    # the wrong field would build an unequal (or invalid) witness
    obs3 = witness_obs3(Elementary(1, parse_poly("x2^3", 2)))
    maps = (obs3.target, obs3.conjugator, obs3.conjugator_inverse, obs3.diagonal)
    assert len(set(maps)) == 4
    w = Witness("Obs3", *maps)
    assert w.transcript == ()
    assert w == Witness(kind="Obs3", target=maps[0], conjugator=maps[1],
                        conjugator_inverse=maps[2], diagonal=maps[3], transcript=())
    assert Elementary(g=G, i=1) == E
    assert NormalForm([E], D).elementaries == (E,)
    # argument errors read as they did for the dataclasses
    with pytest.raises(TypeError, match=re.escape(
            "Diagonal.__init__() missing 1 required positional argument: 'c'")):
        Diagonal()
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3"):
        Diagonal((1,), (2,))
    with pytest.raises(TypeError, match="unexpected keyword argument 'scale'"):
        Diagonal((1,), scale=2)
    with pytest.raises(TypeError, match="multiple values for argument 'c'"):
        Diagonal((1,), c=(2,))
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'diagonal'"):
        Witness("Obs2", ID, ID, ID)


@pytest.mark.parametrize("build, error, message", [
    (lambda: MapDocument.from_json('{"n": 0, "coords": []}'), ValueError,
     "dimension must be a positive integer, got 0"),
    (lambda: MapDocument.from_json('{"n": true, "coords": ["x1"]}'), ValueError,
     "dimension must be a positive integer, got True"),
    (lambda: MapDocument.from_json('{"n": 2, "coords": ["x1"]}'), ValueError,
     "expected 2 coordinate expressions, got 1"),
    (lambda: MapDocument.from_json('{"n": 1, "coords": ["x2"]}'), ParseError,
     "variable x2 out of range for dimension 1"),
    (lambda: MapDocument.from_json('{"n":1,"coords":["x1"],"name":5,"notes":[1,2]}'),
     ValueError, "'name' must be a string, got 5"),
    (lambda: MapDocument.from_json('{"n":1,"coords":["x1"],"name":"id","notes":[1,2]}'),
     ValueError, "'notes' must be a string, got [1, 2]"),
    (lambda: MapDocument("x1, x2"), ValueError, "endo must be an Endo, got 'x1, x2'"),
    (lambda: Diagonal(()), ValueError, "diagonal needs at least one entry"),
    (lambda: Diagonal((1, 0)), ValueError, "diagonal entries must be nonzero"),
    (lambda: Elementary(1, "x2"), ValueError, "g must be a Poly"),
    (lambda: Elementary(3, G), ValueError, "index 3 out of range for dimension 2"),
    (lambda: Elementary(2, G), ValueError, "g may not involve x2"),
    (lambda: Affine(((1, 2),), (0,)), ValueError, "need a square matrix and a matching vector"),
    (lambda: Affine(((1, 2), (2, 4)), (0, 0)), ValueError, "affine part is singular"),
    (lambda: TameWord((), 0), ValueError, "dimension must be a positive integer, got 0"),
    (lambda: TameWord((SHEAR,), 2), ValueError, "not a generator: "),
    (lambda: TameWord((Diagonal((1,)),), 2), ValueError,
     "factor dimension 1 does not match word dimension 2"),
    (lambda: NormalForm((D,), D), ValueError, "not an elementary of dimension 2: "),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        build()
