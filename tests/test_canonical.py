"""The integer-normal form of Poly: num / den with one denominator.

Every result of the arithmetic is canonical (den > 0, no common factor of
den and the numerators, no zero numerator, exponent tuples of length n),
and its terms view equals a plain Fraction dict loop.  The certify,
compose and tame paths never build that view.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import samplers
from polyaut.endo import Endo, linear_combination
from polyaut.locfin import inverse_from_minpoly, lf_certify
from polyaut.poly import Poly
from polyaut.tame import Elementary, TameWord, normal_form
from polyaut.textio import parse_map, parse_poly, render_map, render_poly
from polyaut.witness import witness_obs2, witness_obs3, witness_obs4


def assert_canonical(p, n):
    assert p.n == n
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v for v in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    assert all(type(m) is tuple and len(m) == n for m in p.num)


def assert_matches(p, n, reference):
    assert_canonical(p, n)
    assert p.terms == {m: c for m, c in reference.items() if c}


# references: Fraction dict loops over the terms view of the operands

def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def ref_pow(a, n, e):
    out = {(0,) * n: Fraction(1)}
    for _ in range(e):
        out = ref_mul(out, a)
    return out


def ref_substitute(a, args, m):
    out = {}
    for mono, c in a.items():
        term = {(0,) * m: c}
        for q, e in zip(args, mono):
            term = ref_mul(term, ref_pow(q, m, e))
        out = ref_add(out, term)
    return out


def ref_derivative(a, i):
    out = {}
    for mono, c in a.items():
        if mono[i - 1]:
            d = mono[:i - 1] + (mono[i - 1] - 1,) + mono[i:]
            out[d] = out.get(d, 0) + c * mono[i - 1]
    return {m: c for m, c in out.items() if c}


@given(st.integers(1, 3), st.integers(0, 2**32), st.integers(0, 3))
@settings(deadline=None, max_examples=80)
def test_arithmetic_results_are_canonical(n, seed, e):
    rng = random.Random(seed)
    p, q = (samplers.random_poly(rng, n, 3, 4) for _ in "pq")
    args = [samplers.random_poly(rng, n, 2, 3) for _ in range(n)]
    tp, tq = dict(p.terms), dict(q.terms)
    targs = [dict(a.terms) for a in args]
    assert_matches(p + q, n, ref_add(tp, tq))
    assert_matches(p - q, n, ref_add(tp, tq, -1))
    assert_matches(p * q, n, ref_mul(tp, tq))
    assert_matches(p ** e, n, ref_pow(tp, n, e))
    assert_matches(p.substitute(args), n, ref_substitute(tp, targs, n))
    # one-term arguments, as a diagonal's scalings c_l * x_l are
    monomials = [Poly(n, dict(list(a.terms.items())[:1])) if a else Poly.constant(n, 3)
                 for a in args]
    assert_matches(p.substitute(monomials), n,
                   ref_substitute(tp, [dict(a.terms) for a in monomials], n))
    if q:
        assert_matches((p * q).divide_exact(q), n, tp)
    for i in range(1, n + 1):
        assert_matches(p.partial_derivative(i), n, ref_derivative(tp, i))
    c = rng.choice(samplers.COEFF_POOL)
    assert_matches(p * c, n, {m: v * c for m, v in tp.items()})
    lc = linear_combination([c, -1, Fraction(1, 2)], [Endo([p] * n), Endo([q] * n), Endo(args)])
    for coord, a in zip(lc.coords, targs):
        want = ref_add(ref_add({m: v * c for m, v in tp.items()}, tq, -1),
                       {m: v / 2 for m, v in a.items()})
        assert_matches(coord, n, want)


@pytest.mark.parametrize("c", [0, 3, -2, Fraction(1, 2), Fraction(-7, 3)])
def test_equal_polynomials_hash_equal(c):
    n = 2
    assert hash(Poly.constant(n, c)) == hash(c)
    assert Poly.constant(n, c) == c
    x1 = Poly.variable(n, 1)
    half = x1 * Fraction(1, 2)
    assert (half.num, half.den) == ({(1, 0): 1}, 2)
    assert half * 2 == x1 and hash(half * 2) == hash(x1)
    assert half + half == x1 and hash(half + half) == hash(x1)


def _count_view_builds(monkeypatch) -> list:
    """The polynomials whose terms view is built from now on."""
    builds = []
    view = Poly.terms

    def fget(self):
        if self._terms is None:
            builds.append(self)
        return view.fget(self)

    monkeypatch.setattr(Poly, "terms", property(fget, view.fset))
    return builds


@pytest.mark.parametrize("text, n", [
    ("x1 + x2^2, x2 - x3^2, x3 + x4^2, x4", 4),
    ("-1/2*x1 + 12*x2^2 - 5/3*x3 + 7, 3*x2 - 7/4*x3^2 + 11, -2/3*x3 + 1", 3),
])
def test_certify_job_builds_no_terms_view(monkeypatch, text, n):
    builds = _count_view_builds(monkeypatch)
    g = parse_map(text, n)
    report = lf_certify(g, max_iter=64, max_deg=512)
    assert report.certified
    inverse = inverse_from_minpoly(g, report.minimal_polynomial)
    render_map(inverse)
    assert builds == []


def test_compose_job_builds_no_terms_view(monkeypatch):
    builds = _count_view_builds(monkeypatch)
    f = parse_map("-3/2*x1 + 12*x2^2*x3 - 5/7, x2 - 2/3*x3^2*x1 + 10, -11*x3 + x1*x2^3", 3)
    g = parse_map("x1 + 4/5*x2^2 - x3, -x2 + 13/2*x1*x3, 2*x3 - 15*x1^2 + 1/3", 3)
    render_map(f.compose(g))
    render_map(f.iterate(2))
    render_poly(f.jacobian_det())
    assert builds == []
    # the counter sees a build where one happens
    assert f.coords[0].terms and builds == [f.coords[0]]


def test_tame_job_builds_no_terms_view(monkeypatch):
    builds = _count_view_builds(monkeypatch)
    word = TameWord.from_json(json.dumps({"n": 3, "factors": [
        {"kind": "elementary", "i": 1, "g": "x2^2 - 1/3*x3"},
        {"kind": "diagonal", "c": ["2", "-1/3", "3/5"]},
        {"kind": "elementary", "i": 2, "g": "5/2*x1*x3^2 + 1"},
        {"kind": "affine", "A": [["0", "1/2", "1"], ["2", "0", "-1/3"], ["1", "3", "0"]],
         "b": ["1/2", "0", "-3/4"]},
        {"kind": "elementary", "i": 3, "g": "x1*x2 - 2/7"},
    ]}))
    normal_form(word).to_word().to_json()
    e = Elementary(1, parse_poly("2/3*x2^2*x3 - 5*x3^3", 3))
    for w in (witness_obs2(e), witness_obs3(e, a=Fraction(5, 2)), witness_obs4()):
        w.to_json()
    assert builds == []
