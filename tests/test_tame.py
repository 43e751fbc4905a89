"""Generator words, affine expansion, diagonal pushing, normal form."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyaut import cli, linalg, poly, tame
from polyaut.endo import Endo, verify_inverse_pair
from polyaut.linalg import mat_det, mat_inverse
from polyaut.locfin import InconsistencyError
from polyaut.poly import Poly
from polyaut.tame import (
    Affine,
    Diagonal,
    Elementary,
    NormalForm,
    TameWord,
    affine_to_word,
    gen_to_endo,
    generator_determinant,
    invert_generator,
    invert_word,
    normal_form,
    push_diagonal,
    word_to_endo,
)
from polyaut.textio import parse_map, parse_poly
from samplers import (
    random_affine,
    random_diagonal,
    random_elementary,
    random_poly,
    random_word,
)

Q = Fraction


def E(i, expr, n):
    return Elementary(i, parse_poly(expr, n))


# ----------------------------------------------------------------------
# generator invariants

def test_diagonal_validation():
    Diagonal((Q(2), Q(-1, 3)))
    with pytest.raises(ValueError):
        Diagonal((Q(1), Q(0)))
    with pytest.raises(ValueError):
        Diagonal(())


def test_elementary_validation():
    E(2, "x1^2", 2)
    E(1, "5", 1)  # constants are fine in any dimension
    with pytest.raises(ValueError):
        E(1, "x1 + x2", 2)  # g involves x1
    with pytest.raises(ValueError):
        Elementary(3, parse_poly("x1", 2))
    with pytest.raises(ValueError):
        Elementary(1, "x2")  # not a Poly


def test_affine_validation():
    Affine(((Q(1), Q(1)), (Q(0), Q(1))), (Q(0), Q(0)))
    with pytest.raises(ValueError):
        Affine(((Q(1), Q(2)), (Q(2), Q(4))), (Q(0), Q(0)))  # singular
    with pytest.raises(ValueError):
        Affine(((Q(1),),), (Q(0), Q(0)))  # shape mismatch


def test_word_validation():
    w = TameWord((Diagonal((Q(2), Q(1))), E(2, "x1^2", 2)), 2)
    assert len(w) == 2
    with pytest.raises(ValueError):
        TameWord((Diagonal((Q(2),)),), 2)  # dimension mismatch
    with pytest.raises(ValueError):
        TameWord(("nope",), 2)


# ----------------------------------------------------------------------
# words as maps

def test_gen_to_endo_values():
    assert gen_to_endo(Diagonal((Q(2), Q(1)))) == parse_map("2*x1, x2", 2)
    assert gen_to_endo(E(2, "x1^2", 2)) == parse_map("x1, x2 + x1^2", 2)
    aff = Affine(((Q(0), Q(1)), (Q(1), Q(0))), (Q(3), Q(-1)))
    assert gen_to_endo(aff) == parse_map("x2 + 3, x1 - 1", 2)


def test_empty_word_is_identity():
    assert word_to_endo(TameWord((), 3)) == Endo.identity(3)


def test_word_composition_order():
    # leftmost factor applied last
    w = TameWord((Diagonal((Q(2), Q(1))), E(2, "x1^2", 2)), 2)
    assert word_to_endo(w) == parse_map("2*x1, x2 + x1^2", 2)


# ----------------------------------------------------------------------
# inversion

def test_invert_generator_values():
    e = invert_generator(E(1, "x2^2", 2))
    assert gen_to_endo(e) == parse_map("x1 - x2^2, x2", 2)
    d = invert_generator(Diagonal((Q(1, 4), Q(1, 2), Q(1))))
    assert d == Diagonal((Q(4), Q(2), Q(1)))
    a = invert_generator(Affine(((Q(2), Q(0)), (Q(0), Q(1))), (Q(4), Q(-1))))
    assert gen_to_endo(a) == parse_map("1/2*x1 - 2, x2 + 1", 2)


def test_invert_word_is_involution_and_sound():
    rng = random.Random(3)
    for n in (1, 2, 3):
        for _ in range(8):
            w = random_word(rng, n, 4)
            assert invert_word(invert_word(w)) == w
            assert verify_inverse_pair(word_to_endo(w), word_to_endo(invert_word(w)))


# ----------------------------------------------------------------------
# affine expansion

def test_affine_to_word_swap_matches_displayed_factorization():
    swap = Affine(((Q(0), Q(1)), (Q(1), Q(0))), (Q(0), Q(0)))
    w = affine_to_word(swap)
    assert w.factors == (
        E(1, "x2", 2),
        E(2, "-x1", 2),
        E(1, "x2", 2),
        Diagonal((Q(-1), Q(1))),
    )
    assert word_to_endo(w) == parse_map("x2, x1", 2)


def test_affine_to_word_translation():
    t = Affine(((Q(1), Q(0)), (Q(0), Q(1))), (Q(1), Q(0)))
    w = affine_to_word(t)
    assert w.factors == (Elementary(1, Poly.constant(2, 1)),)


def test_affine_to_word_identity():
    i2 = Affine(((Q(1), Q(0)), (Q(0), Q(1))), (Q(0), Q(0)))
    assert affine_to_word(i2).factors == ()


def test_affine_to_word_random_recomposition():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            a = random_affine(rng, n)
            w = affine_to_word(a)
            assert all(isinstance(f, (Elementary, Diagonal)) for f in w.factors)
            assert word_to_endo(w) == gen_to_endo(a)


def _reference_affine_factors(f):
    # the Fraction Gauss-Jordan first written; also counts the row swaps
    n = f.n
    factors = [Elementary(i + 1, Poly.constant(n, v)) for i, v in enumerate(f.b) if v]
    m = [list(row) for row in f.A]
    swaps = 0
    for k in range(n):
        r = next(r for r in range(k, n) if m[r][k] != 0)
        if r != k:
            swaps += 1
            m[k], m[r] = m[r], m[k]
            factors += [Elementary(k + 1, Poly.variable(n, r + 1)),
                        Elementary(r + 1, -Poly.variable(n, k + 1)),
                        Elementary(k + 1, Poly.variable(n, r + 1)),
                        Diagonal(tuple(Q(-1 if l == k else 1) for l in range(n)))]
        for i in range(n):
            if i != k and m[i][k] != 0:
                c = m[i][k] / m[k][k]
                m[i] = [a - c * b for a, b in zip(m[i], m[k])]
                factors.append(Elementary(i + 1, c * Poly.variable(n, k + 1)))
    diag = tuple(m[k][k] for k in range(n))
    if any(v != 1 for v in diag):
        factors.append(Diagonal(diag))
    return factors, swaps


entries = st.fractions(min_value=-7, max_value=7, max_denominator=9)


@st.composite
def forced_matrices(draw):
    """(case, rows, b): most draws force a zero pivot at some step k (row k
    agrees with a combination of the rows above it up to column k), a
    negative first pivot, or the identity matrix; rows may be singular."""
    n = draw(st.integers(min_value=1, max_value=4))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    case = draw(st.sampled_from(("zero pivot", "negative pivot", "identity", "free")))
    if case == "zero pivot" and n > 1:
        k = draw(st.integers(min_value=0, max_value=n - 2))
        weights = [draw(entries) for _ in range(k)]
        for j in range(k + 1):
            rows[k][j] = sum((w * rows[t][j] for t, w in enumerate(weights)), Q(0))
    elif case == "negative pivot":
        rows[0][0] = -abs(rows[0][0]) or Q(-1)
    elif case == "identity":
        rows = [[Q(int(r == l)) for l in range(n)] for r in range(n)]
    else:
        case = "free"
    return case, rows, [draw(entries) for _ in range(n)]


@st.composite
def forced_affines(draw):
    """(case, f): a forced_matrices draw whose rows are nonsingular."""
    case, rows, b = draw(forced_matrices())
    assume(mat_det(rows) != 0)
    return case, Affine(rows, b)


@given(forced_affines())
@settings(deadline=None, max_examples=200)
def test_integer_expansion_matches_fraction_reference(case_and_affine):
    case, f = case_and_affine
    ref, swaps = _reference_affine_factors(f)
    got = affine_to_word(f).factors
    assert got == tuple(ref)
    assert all(type(a) is Fraction for g in got if isinstance(g, Elementary)
               for a in g.g.terms.values())
    if case == "zero pivot":
        # a zero leading minor of order k + 1 or less forces a swap
        assert swaps
    if case == "identity":
        assert not any(isinstance(g, Diagonal) for g in got)


@given(forced_matrices())
@example(("free", [[Q(1), Q(2)], [Q(2), Q(4)]], [Q(0), Q(0)]))
@example(("free", [[Q(0)]], [Q(1)]))
@example(("free", [[Q(0), Q(1), Q(2)], [Q(0), Q(3), Q(1, 3)], [Q(0), Q(-2), Q(5)]],
          [Q(0)] * 3))  # zero first column
@example(("free", [[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(7)], [Q(1), Q(2), Q(4)]],
          [Q(1)] * 3))  # no pivot in column 2 after a row was cleared
@settings(deadline=None, max_examples=200)
def test_singular_affine_is_refused_by_its_expansion(case_rows_b):
    # the expansion's pivot search is the only singularity check
    _, rows, b = case_rows_b
    if mat_det(rows) == 0:
        with pytest.raises(ValueError, match="^affine part is singular$"):
            Affine(rows, b)
    else:
        assert Affine(rows, b).A == tuple(map(tuple, rows))


@given(forced_affines())
@example(("identity", Affine([[Q(int(r == l)) for l in range(3)] for r in range(3)], [Q(5)] * 3)))
@settings(deadline=None, max_examples=200)
def test_inverse_and_determinant_read_the_expansion(case_and_affine):
    # against the Fraction elimination of linalg: (A^-1, -A^-1 b) and
    # det A, a Fraction also for the identity, which expands to no diagonal
    case, f = case_and_affine
    inv = mat_inverse(f.A)
    assert invert_generator(f) == Affine(
        inv, [-sum((a * v for a, v in zip(row, f.b)), Q(0)) for row in inv])
    det = generator_determinant(f)
    assert det == mat_det(f.A)
    assert type(det) is Fraction
    if case == "identity":
        assert det == 1


def _reference_affine_matrix(n, factors):
    # the column operations first written, on Fraction entries
    cols = [[int(r == l) for r in range(n)] for l in range(n + 1)]
    for f in factors:
        if isinstance(f, Diagonal):
            cols[:n] = [col if c == 1 else [c * v for v in col]
                        for c, col in zip(f.c, cols)]
            continue
        src = cols[f.i - 1]
        for mono, a in f.g.terms.items():
            if sum(mono) > 1:
                return None
            l = mono.index(1) if any(mono) else n
            cols[l] = [v + a * s if s else v for v, s in zip(cols[l], src)]
    return cols


@st.composite
def affine_factor_lists(draw):
    """(n, factors, has_square): fractional diagonals, constant and linear
    one-term addends, and now and then a degree-2 addend."""
    n = draw(st.integers(min_value=1, max_value=4))
    factors, has_square = [], False
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        kind = draw(st.sampled_from(("diagonal", "constant", "linear", "linear", "square")))
        if kind == "diagonal":
            factors.append(Diagonal(tuple(draw(scalars) for _ in range(n))))
            continue
        i, a = draw(st.integers(min_value=1, max_value=n)), draw(scalars)
        if kind == "constant" or n == 1:
            factors.append(Elementary(i, Poly.constant(n, a)))
            continue
        x = Poly.variable(n, draw(st.sampled_from([j for j in range(1, n + 1) if j != i])))
        factors.append(Elementary(i, a * x * x if kind == "square" else a * x))
        has_square |= kind == "square"
    return n, factors, has_square


def _columns(n, factors):
    # tame._affine_matrix's columns, each ints over a positive denominator,
    # as Fractions
    cols = tame._affine_matrix(n, factors)
    if cols is None:
        return None
    assert all(type(d) is int and d > 0 for _, d in cols)
    return [[Fraction(v, d) for v in col] for col, d in cols]


@given(affine_factor_lists())
@settings(deadline=None, max_examples=200)
def test_integer_affine_matrix_matches_fraction_reference(case):
    n, factors, has_square = case
    got = _columns(n, factors)
    assert got == _reference_affine_matrix(n, factors)
    assert (got is None) == has_square


# ----------------------------------------------------------------------
# pushing diagonals

def test_push_diagonal_example():
    d = Diagonal((Q(2), Q(1)))
    e = E(2, "x1^2", 2)
    e2, d2 = push_diagonal(d, e)
    assert e2 == E(2, "1/4*x1^2", 2)
    assert d2 == d
    lhs = gen_to_endo(d).compose(gen_to_endo(e))
    assert lhs == gen_to_endo(e2).compose(gen_to_endo(d2))
    assert lhs == parse_map("2*x1, x2 + x1^2", 2)


def test_push_identity_diagonal():
    d = Diagonal((Q(1), Q(1)))
    e = E(1, "x2^3 - 2", 2)
    assert push_diagonal(d, e) == (e, d)


def test_push_constant_g():
    d = Diagonal((Q(3), Q(-2)))
    e = E(1, "5", 2)
    e2, _ = push_diagonal(d, e)
    assert e2 == E(1, "15", 2)  # c_i * g


def test_push_random_composition_identity():
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(20):
            d = random_diagonal(rng, n)
            e = random_elementary(rng, n, 3)
            e2, d2 = push_diagonal(d, e)
            assert d2 == d
            assert gen_to_endo(d).compose(gen_to_endo(e)) == gen_to_endo(
                e2
            ).compose(gen_to_endo(d2))


def _reference_scaled_addend(g, c, i):
    # the Fraction formula first written: a * c_i * prod_l (1/c_l)^m_l
    inv = [1 / v for v in c]
    terms = {}
    for mono, a in g.terms.items():
        for l, e in enumerate(mono):
            if e:
                a = a * inv[l] ** e
        terms[mono] = a * c[i - 1]
    return terms


scalars = st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(bool)


@given(st.integers(min_value=0, max_value=2**32), st.lists(scalars, min_size=1, max_size=4))
@settings(deadline=None, max_examples=80)
def test_scaled_addend_matches_fraction_reference(seed, c):
    g = random_poly(random.Random(seed), len(c), 4, 4)
    for i in range(1, len(c) + 1):
        got = tame._scaled_addend(g, tuple(c), i)
        assert got.terms == _reference_scaled_addend(g, c, i)
        assert all(type(a) is Fraction for a in got.terms.values())


def _full_map_push_check(d, e, e_new):
    # the push check as first written: D o E == E~ o D as whole maps
    return gen_to_endo(d).compose(gen_to_endo(e)) == gen_to_endo(e_new).compose(
        gen_to_endo(d)
    )


@given(st.integers(min_value=0, max_value=2**32))
@settings(deadline=None, max_examples=80)
def test_slot_check_matches_full_map_check(seed):
    # a sampled delta (zero about a third of the time) is added to g~
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    d, e = random_diagonal(rng, n), random_elementary(rng, n, 3)
    delta = random_poly(rng, n, 2, 2, avoid=(e.i,))
    real = tame._scaled_addend
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tame, "_scaled_addend", lambda g, c, i: real(g, c, i) + delta)
        try:
            push_diagonal(d, e)
            raised = False
        except InconsistencyError:
            raised = True
    e_new = Elementary(e.i, real(e.g, d.c, e.i) + delta)
    assert raised == (not _full_map_push_check(d, e, e_new)) == (not delta.is_zero)


def test_push_composes_no_maps(monkeypatch):
    def refuse(*args):
        raise AssertionError("push_diagonal built or composed a map")

    monkeypatch.setattr(tame, "gen_to_endo", refuse)
    monkeypatch.setattr(Endo, "compose", refuse)
    rng = random.Random(31)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            push_diagonal(random_diagonal(rng, n), random_elementary(rng, n, 3))


def test_normal_form_never_reaches_the_product_kernel(monkeypatch):
    # every elementary push checks its slot term by term in integers, and
    # every affine block is checked as a matrix, so neither multiplies
    # polynomials
    def refuse(*args):
        raise AssertionError("the product kernel was called")

    rng = random.Random(37)
    words = [random_word(rng, n, 8) for n in (1, 2, 3, 4) for _ in range(8)]
    words.append(TameWord((random_affine(rng, 3), random_diagonal(rng, 3),
                           random_elementary(rng, 3, 3), random_affine(rng, 3)), 3))
    assert any(isinstance(f, Affine) for w in words for f in w.factors)
    monkeypatch.setattr(poly, "_convolve", refuse)
    for w in words:
        normal_form(w)


# ----------------------------------------------------------------------
# normal form

def test_normal_form_single_diagonal():
    d = Diagonal((Q(2), Q(3)))
    nf = normal_form(TameWord((d,), 2))
    assert nf.elementaries == ()
    assert nf.diagonal == d


def test_normal_form_example():
    w = TameWord((Diagonal((Q(2), Q(1))), E(2, "x1^2", 2)), 2)
    nf = normal_form(w)
    assert nf.elementaries == (E(2, "1/4*x1^2", 2),)
    assert nf.diagonal == Diagonal((Q(2), Q(1)))
    assert word_to_endo(nf.to_word()) == word_to_endo(w)


def test_normal_form_swap_then_translate():
    w = TameWord(
        (
            Affine(((Q(0), Q(1)), (Q(1), Q(0))), (Q(0), Q(0))),
            Affine(((Q(1), Q(0)), (Q(0), Q(1))), (Q(2), Q(-3))),
        ),
        2,
    )
    nf = normal_form(w)
    assert word_to_endo(nf.to_word()) == word_to_endo(w)
    assert all(isinstance(e, Elementary) for e in nf.elementaries)


def test_normal_form_random_round_trip():
    rng = random.Random(17)
    for n in (2, 3, 4):
        for _ in range(12):
            w = random_word(rng, n, 5)
            nf = normal_form(w)
            assert isinstance(nf, NormalForm)
            assert all(isinstance(e, Elementary) for e in nf.elementaries)
            assert isinstance(nf.diagonal, Diagonal)
            assert word_to_endo(nf.to_word()) == word_to_endo(w)


def _reference_push(d, e):
    # the push as first written: substitute X_l -> X_l / c_l, scale by c_i
    n = d.n
    scaled = [Poly.variable(n, l + 1) * (1 / d.c[l]) for l in range(n)]
    return Elementary(e.i, e.g.substitute(scaled) * d.c[e.i - 1])


def _reference_normal_form(w):
    # right to left: each diagonal is pushed through every elementary to
    # its right, one diagonal at a time
    flat = []
    for f in w.factors:
        flat.extend(affine_to_word(f).factors if isinstance(f, Affine) else (f,))
    elementaries = []
    diag = Diagonal((Q(1),) * w.n)
    for f in reversed(flat):
        if isinstance(f, Diagonal):
            elementaries = [_reference_push(f, e) for e in elementaries]
            diag = Diagonal(tuple(a * b for a, b in zip(f.c, diag.c)))
        else:
            elementaries.insert(0, f)
    return NormalForm(tuple(elementaries), diag)


@st.composite
def words_with_affines(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    w = random_word(rng, n, 6)
    k = draw(st.integers(min_value=0, max_value=len(w)))
    return TameWord(w.factors[:k] + (random_affine(rng, n),) + w.factors[k:], n)


@st.composite
def words_around_forced_affines(draw):
    """A forced_affines draw twice, after a diagonal that is not the
    identity and around an elementary: a swap diagonal then merges mid-block
    into a diagonal that is not the identity."""
    _, f = draw(forced_affines())
    n = f.n
    d = Diagonal(tuple(draw(scalars) for _ in range(n)))
    assume(any(v != 1 for v in d.c))
    e = random_elementary(random.Random(draw(st.integers(min_value=0, max_value=2**32))), n, 3)
    return TameWord((d, f, e, f), n)


@given(st.one_of(words_with_affines(), words_around_forced_affines()))
@settings(deadline=None, max_examples=80)
def test_normal_form_matches_right_to_left_reference(w):
    nf, ref = normal_form(w), _reference_normal_form(w)
    assert nf.diagonal == ref.diagonal
    assert len(nf.elementaries) == len(ref.elementaries)
    for e, r in zip(nf.elementaries, ref.elementaries):
        assert e.i == r.i and e.g.terms == r.g.terms
    assert nf.to_word().to_json() == ref.to_word().to_json()


def test_each_factor_is_checked_once(monkeypatch):
    # an elementary of the word is pushed (and checked) once, in order; an
    # affine costs one matrix check and is never expanded by affine_to_word
    pushed, checked = [], []
    push, matrix = tame.push_diagonal, tame._affine_matrix

    def counted_push(d, e):
        pushed.append(e)
        return push(d, e)

    def counted_matrix(n, factors):
        checked.append(n)
        return matrix(n, factors)

    def refuse(f):
        raise AssertionError("normal_form called affine_to_word")

    rng = random.Random(29)
    factors = []
    for _ in range(4):
        factors += [random_elementary(rng, 3, 2), random_diagonal(rng, 3),
                    random_affine(rng, 3), random_diagonal(rng, 3)]
    w = TameWord(tuple(factors), 3)
    expanded = sum(isinstance(g, Elementary) for f in w.factors if isinstance(f, Affine)
                   for g in affine_to_word(f).factors)
    monkeypatch.setattr(tame, "push_diagonal", counted_push)
    monkeypatch.setattr(tame, "_affine_matrix", counted_matrix)
    monkeypatch.setattr(tame, "affine_to_word", refuse)
    nf = normal_form(w)
    assert pushed == [f for f in w.factors if isinstance(f, Elementary)]
    assert checked == [3] * sum(isinstance(f, Affine) for f in w.factors)
    assert len(nf.elementaries) == len(pushed) + expanded


def test_each_affine_is_expanded_once(monkeypatch):
    # an affine factor is eliminated once, when it is made: reading the
    # word, two normal forms, its expansion as a word and its determinant
    # all read the steps kept on it, and none calls the dense routines
    rng = random.Random(67)
    factors = [SWAP, random_elementary(rng, 2, 2), random_affine(rng, 2),
               random_diagonal(rng, 2), Affine(((Q(1, 2), Q(3)), (Q(0), Q(-2))), (Q(0), Q(1)))]
    w = TameWord(tuple(factors), 2)
    doc, want = w.to_json(), normal_form(w)
    expanded = []
    expand = tame._expand_affine

    def counted(*args):
        expanded.append(args)
        return expand(*args)

    def refuse(*args):
        raise AssertionError("a dense linalg routine was called")

    monkeypatch.setattr(tame, "_expand_affine", counted)
    monkeypatch.setattr(linalg, "mat_det", refuse)
    monkeypatch.setattr(linalg, "mat_inverse", refuse)
    read = TameWord.from_json(doc)
    assert read == w
    assert normal_form(read) == normal_form(read) == want
    affines = [f for f in read.factors if isinstance(f, Affine)]
    for f in affines:
        assert affine_to_word(f).factors
        assert generator_determinant(f) != 0
    assert len(expanded) == len(affines) == 3


def test_each_elementary_is_built_once(monkeypatch):
    # a word's own elementary is built once, by push_diagonal, and a step
    # of an affine expansion once, after it is pushed, so normal_form
    # constructs exactly the Elementary objects it returns
    rng = random.Random(53)
    words = [random_word(rng, n, 8) for n in (1, 2, 3, 4) for _ in range(6)]
    words += [BLOCK_WORD, TameWord((random_diagonal(rng, 2), SWAP, E(1, "x2^2", 2), SWAP), 2)]
    assert sum(isinstance(f, Affine) for w in words for f in w.factors) > 10
    built = []
    post = Elementary.__post_init__

    def counted(self):
        built.append(self)
        post(self)

    monkeypatch.setattr(Elementary, "__post_init__", counted)
    for w in words:
        built.clear()
        nf = normal_form(w)
        assert len(built) == len(nf.elementaries)


def test_push_substitutes_nothing(monkeypatch):
    # the push check compares numerators term by term, so no substitution
    # runs, through diagonals that are not the identity or after them
    rng = random.Random(43)
    d1, d2 = Diagonal((Q(2), Q(-1, 3), Q(3, 5))), Diagonal((Q(-1, 2), Q(5), Q(1)))
    pushed = [[random_elementary(rng, 3, 2) for _ in range(4)] for _ in range(3)]
    w = TameWord(tuple(pushed[0] + [d1] + pushed[1] + [d2] + pushed[2]), 3)

    def refuse(*args):
        raise AssertionError("the push substituted")

    with monkeypatch.context() as mp:
        mp.setattr(poly, "_substitute", refuse)
        nf = normal_form(w)
    assert word_to_endo(nf.to_word()) == word_to_endo(w)


# ----------------------------------------------------------------------
# a wrong push or a wrong transvection is caught, also under python -O

# mutations of an affine block, each a function `wrong` to put in place of
# the tame function it is keyed by; neither is called on the word's own
# elementaries, which push_diagonal pushes and builds
WRONG_BLOCK = {
    # a wrong pushed scalar of every block transvection
    "_push_step": """
from polyaut import tame

real_push = tame._push_step

def wrong(c, i, l, a):
    i, l, a = real_push(c, i, l, a)
    return i, l, 2 * a if l < len(c) else a
""",
    # a wrong transvection: (a + 1) * X_{l+1} in place of a * X_{l+1}
    "_transvection": """
from polyaut import tame

real_transvection = tame._transvection

def wrong(n, i, l, a):
    if l == n:
        return real_transvection(n, i, l, a)
    return tame.Elementary(i + 1, (a + 1) * tame.Poly.variable(n, l + 1))
""",
}


def _wrong(name):
    ns = {}
    exec(WRONG_BLOCK[name], ns)
    return ns["wrong"]


_OPTIMIZED_SCRIPT = """
import sys
assert False, "asserts are not stripped"
from fractions import Fraction
from polyaut import tame
from polyaut.locfin import InconsistencyError
from polyaut.textio import parse_poly
""" + WRONG_BLOCK["_transvection"] + """
real = tame._scaled_addend
tame._scaled_addend = lambda g, c, i: real(g, c, i) + 1
tame._transvection = wrong
d = tame.Diagonal((Fraction(2), Fraction(1)))
e = tame.Elementary(2, parse_poly("x1^2", 2))
swap = tame.Affine(((0, 1), (1, 0)), (1, 0))
for attempt in (lambda: tame.push_diagonal(d, e),
                lambda: tame.normal_form(tame.TameWord((d, e), 2)),
                lambda: tame.affine_to_word(swap),
                lambda: tame.normal_form(tame.TameWord((swap,), 2))):
    try:
        result = attempt()
    except InconsistencyError as exc:
        print(exc)
    else:
        sys.exit(f"no InconsistencyError, got {result!r}")
"""


def _library_env():
    src = os.path.join(os.path.dirname(tame.__file__), os.pardir)
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


def test_push_check_holds_under_python_optimize():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
        capture_output=True, text=True, env=_library_env(), timeout=60,
    )
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.splitlines() == (
        ["push identity D o E = E~ o D failed"] * 2
        + ["affine expansion does not recompose to [A | b]"] * 2)


def test_wrong_push_makes_the_cli_exit_1(monkeypatch, tmp_path, capsys):
    real = tame._scaled_addend
    monkeypatch.setattr(tame, "_scaled_addend", lambda g, c, i: real(g, c, i) + 1)
    word = tmp_path / "word.json"
    word.write_text(TameWord((Diagonal((Q(2), Q(1))), E(2, "x1^2", 2)), 2).to_json())
    assert cli.main(["normal-form", "--file", str(word)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "push identity" in captured.err


SWAP = Affine(((Q(0), Q(1)), (Q(1), Q(0))), (Q(1), Q(0)))
RECOMPOSE = r"affine expansion does not recompose to \[A \| b\]"


def test_wrong_transvection_makes_the_cli_exit_1(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(tame, "_transvection", _wrong("_transvection"))
    with pytest.raises(InconsistencyError, match=RECOMPOSE):
        affine_to_word(SWAP)
    word = tmp_path / "word.json"
    word.write_text(TameWord((SWAP,), 2).to_json())
    assert cli.main(["normal-form", "--file", str(word)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "affine expansion does not recompose" in captured.err


_RUN_NORMAL_FORM = """
import sys
from polyaut import cli

setattr(tame, sys.argv[2], wrong)
sys.exit(cli.main(["normal-form", "--file", sys.argv[1]]))
"""

BLOCK_WORD = TameWord((Diagonal((Q(2), Q(-1, 3))), E(2, "x1^2 - 1", 2), SWAP), 2)


def test_block_check_catches_a_wrong_affine_push(monkeypatch):
    own = TameWord(BLOCK_WORD.factors[:2], 2)
    right = normal_form(own)
    normal_form(BLOCK_WORD)
    for name in WRONG_BLOCK:
        with monkeypatch.context() as mp:
            mp.setattr(tame, name, _wrong(name))
            assert normal_form(own) == right
            with pytest.raises(InconsistencyError, match=RECOMPOSE):
                normal_form(BLOCK_WORD)


@pytest.mark.parametrize("opt", [[], ["-O"]], ids=["plain", "optimized"])
def test_wrong_affine_push_makes_the_cli_exit_1(tmp_path, opt):
    word = tmp_path / "word.json"
    word.write_text(BLOCK_WORD.to_json())
    for name, script in WRONG_BLOCK.items():
        out = subprocess.run(
            [sys.executable, *opt, "-c", script + _RUN_NORMAL_FORM, str(word), name],
            capture_output=True, text=True, env=_library_env(), timeout=60,
        )
        assert out.returncode == 1, (name, out.stderr)
        assert out.stdout == ""
        assert "affine expansion does not recompose" in out.stderr


def test_affine_check_reads_the_factors():
    # the check recomposes what the factors say, not what was meant
    n = 2
    word = affine_to_word(SWAP).factors
    # the columns of [A | b] for X -> (x2 + 1, x1)
    assert _columns(n, word) == [[0, 1], [1, 0], [1, 0]]
    shear = Elementary(1, parse_poly("x2^2", n))
    assert _columns(n, word + (shear,)) is None
    assert _columns(n, word + (Diagonal((Q(1), Q(2))),)) == [
        [0, 1], [2, 0], [1, 0]]
    # after diag(1/2, 1), adding 3/5*x1 to slot 2 puts column 1 over
    # lcm(2, 5) = 10, so the addend's coefficient is scaled by 10 // 5
    half = (Diagonal((Q(1, 2), Q(1))), E(2, "3/5*x1", n))
    assert _columns(n, half) == [[Q(1, 2), Q(3, 5)], [0, 1], [0, 0]]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_normal_form_composes_no_map(monkeypatch, tmp_path, capsys, fmt):
    def refuse(*args):
        raise AssertionError("a map was composed")

    w = TameWord((SWAP, Diagonal((Q(2), Q(-1, 3))), E(2, "x1^2 - 1", 2),
                  random_affine(random.Random(5), 2), E(1, "x2^3", 2)), 2)
    expected = normal_form(w).to_word().to_json_dict()
    word = tmp_path / "word.json"
    word.write_text(w.to_json())
    monkeypatch.setattr(Endo, "compose", refuse)
    monkeypatch.setattr(tame, "word_to_endo", refuse)
    assert cli.main(["normal-form", "--file", str(word), "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out) == {**expected, "recomposition_verified": True}
    else:
        assert out.splitlines() == [json.dumps(f) for f in expected["factors"]] + [
            "recomposition_verified: true"]


def _word_of_length(rng, n, length) -> TameWord:
    factors = ()
    while len(factors) < length:
        factors += random_word(rng, n, length).factors
    return TameWord(factors[:length], n)


@pytest.mark.parametrize("text", [
    '{"n": 100000, "factors": []}',
    _word_of_length(random.Random(1), 3, 30).to_json(),
], ids=["n100000", "30-factors"])
def test_normal_form_command_finishes(tmp_path, text):
    # the command certifies the normal form step by step and never composes
    # the word, so neither a wide diagonal nor a long word makes it hang
    word = tmp_path / "word.json"
    word.write_text(text)
    out = subprocess.run(
        [sys.executable, "-m", "polyaut.cli", "normal-form", "--file", str(word)],
        capture_output=True, text=True, env=_library_env(), timeout=30,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.endswith("recomposition_verified: true\n")


def test_word_document_above_the_dimension_cap_exits_3(tmp_path):
    # refused before any n-entry diagonal is built, so at once
    word = tmp_path / "word.json"
    word.write_text('{"n": 10000000000, "factors": []}')
    out = subprocess.run(
        [sys.executable, "-m", "polyaut.cli", "normal-form", "--file", str(word)],
        capture_output=True, text=True, env=_library_env(), timeout=20,
    )
    assert out.returncode == 3, out.stderr
    assert out.stdout == ""
    assert "above the cap 1000000" in out.stderr


def test_word_dimension_cap_is_inclusive():
    cap = tame.MAX_WORD_DIMENSION
    assert TameWord.from_json_dict({"n": cap, "factors": []}).n == cap
    with pytest.raises(ValueError, match="word dimension 1000001 is above the cap"):
        TameWord.from_json_dict({"n": cap + 1, "factors": []})


def test_jacobian_bookkeeping():
    rng = random.Random(23)
    one = Poly.constant(2, 1)
    for _ in range(10):
        w = random_word(rng, 2, 5)
        det = Q(1)
        for f in w.factors:
            det *= generator_determinant(f)
        assert word_to_endo(w).jacobian_det() == det * one


# ----------------------------------------------------------------------
# JSON

def test_word_json_round_trip():
    w = TameWord(
        (
            E(2, "x1^2 - 1/2", 2),
            Diagonal((Q(2), Q(-1, 3))),
            Affine(((Q(0), Q(1)), (Q(1), Q(0))), (Q(1), Q(0))),
        ),
        2,
    )
    again = TameWord.from_json(w.to_json())
    assert again == w


def test_word_json_validation():
    with pytest.raises(ValueError):
        TameWord.from_json('{"n": 2}')
    with pytest.raises(ValueError):
        TameWord.from_json('{"n": 2, "factors": [{"kind": "mystery"}]}')
    with pytest.raises(ValueError):
        TameWord.from_json('{"n": 2, "factors": [{"kind": "diagonal"}]}')
    with pytest.raises(ValueError):
        TameWord.from_json(
            '{"n": 2, "factors": [{"kind": "elementary", "i": "1", "g": "x2"}]}'
        )
    with pytest.raises(ValueError):
        TameWord.from_json("[]")


# a field of the wrong type is named, not reported in Python's words
WRONG_FIELD_TYPES = [
    ({"kind": "elementary", "i": 2, "g": 5}, "'g' must be a string, got 5"),
    ({"kind": "elementary", "i": 2, "g": ["x1"]}, "'g' must be a string, got ['x1']"),
    ({"kind": "affine", "A": None, "b": ["0", "0"]}, "'A' must be a list of rows, got None"),
    ({"kind": "affine", "A": [["1", "0"], 5], "b": ["0", "0"]},
     "a row of 'A' must be a list of rationals, got 5"),
    ({"kind": "affine", "A": [["1", "0"], ["0", "1"]], "b": None},
     "'b' must be a list of rationals, got None"),
    ({"kind": "diagonal", "c": "12"}, "'c' must be a list of rationals, got '12'"),
]


@pytest.mark.parametrize("factor, message", WRONG_FIELD_TYPES)
def test_word_json_names_a_field_of_the_wrong_type(factor, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TameWord.from_json(json.dumps({"n": 2, "factors": [factor]}))


@pytest.mark.parametrize(
    "doc",
    [
        {"n": True, "factors": []},
        {"n": 2, "factors": [{"kind": "elementary", "i": True, "g": "x2"}]},
        {"n": 2, "factors": [{"kind": "diagonal", "c": [0.1, "1"]}]},
        {"n": 2, "factors": [{"kind": "diagonal", "c": [False, "1"]}]},
        {"n": 2, "factors": [{"kind": "diagonal", "c": "12"}]},
        {"n": 2, "factors": [
            {"kind": "affine", "A": [[1.0, "0"], ["0", "1"]], "b": ["0", "0"]}]},
        {"n": 2, "factors": [
            {"kind": "affine", "A": [["1", "0"], ["0", "1"]], "b": [0.5, "0"]}]},
        {"n": 2, "factors": [
            {"kind": "affine", "A": "12", "b": ["0", "0"]}]},
    ],
)
def test_word_json_rejects_floats_and_bools(doc):
    with pytest.raises(ValueError):
        TameWord.from_json(json.dumps(doc))


def test_bools_are_not_indices_or_dimensions():
    with pytest.raises(ValueError):
        TameWord((), True)
    with pytest.raises(ValueError):
        Elementary(True, Poly.variable(2, 2))
    # nor the balancing index of an Obs3 witness (True would mean x1 here)
    from polyaut.witness import witness_obs3

    for j in (True, 1.0):
        with pytest.raises(ValueError):
            witness_obs3(Elementary(2, Poly.variable(2, 1)), j=j)


def test_word_json_accepts_integers_and_rational_strings():
    doc = {"n": 2, "factors": [{"kind": "diagonal", "c": [2, "-1/3"]}]}
    assert TameWord.from_json(json.dumps(doc)).factors == (Diagonal((Q(2), Q(-1, 3))),)


# ----------------------------------------------------------------------
# entries that are Fractions already are kept, not built again

def test_fraction_entries_are_kept():
    c = (Q(2), Q(-1, 3), Q(5, 7))
    d = Diagonal(c)
    assert all(d.c[k] is c[k] for k in range(3))
    A, b = ((Q(1), Q(2)), (Q(0), Q(1, 2))), (Q(3), Q(-1, 4))
    f = Affine(A, b)
    assert all(f.A[r][k] is A[r][k] for r in range(2) for k in range(2))
    assert all(f.b[k] is b[k] for k in range(2))


def test_other_entries_are_converted_as_before():
    d = Diagonal((2, "-1/3", Q(4)))
    assert d.c == (Q(2), Q(-1, 3), Q(4))
    assert all(type(v) is Fraction for v in d.c)
    f = Affine(((1, "2"), (0, "1/2")), ("3", -1))
    assert f.A == ((Q(1), Q(2)), (Q(0), Q(1, 2))) and f.b == (Q(3), Q(-1))
    assert all(type(v) is Fraction for row in f.A for v in row)
    for bad in ["x", None, "1/0", [1]]:
        with pytest.raises(Exception) as expected:
            Fraction(bad)
        for make in (lambda: Diagonal((Q(1), bad)),
                     lambda: Affine(((Q(1), bad), (Q(0), Q(1))), (Q(0), Q(0))),
                     lambda: Affine(((Q(1), Q(0)), (Q(0), Q(1))), (Q(0), bad))):
            with pytest.raises(expected.type, match=re.escape(str(expected.value))):
                make()
    with pytest.raises(ValueError, match="diagonal entries must be nonzero"):
        Diagonal((Q(1), "0"))
