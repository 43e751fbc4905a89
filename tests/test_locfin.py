"""Local finiteness certification, minimal polynomials, inversion,
reversal, conjugation."""

import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import samplers
from fraction_finder import FractionDependenceFinder
from polyaut import endo, locfin, poly
from polyaut.endo import Endo, LeadingOrbit, verify_inverse_pair
from polyaut.linalg import mat_inverse
from polyaut.locfin import (
    InconsistencyError,
    LFReport,
    UniPoly,
    conjugate,
    inverse_from_minpoly,
    lf_certify,
    minimality_certificate,
    reversal,
    verify_vanishing,
)
from polyaut.poly import NEG_INF, Poly
from polyaut.tame import gen_to_endo
from polyaut.textio import parse_map
from polyaut.witness import nagata, nagata_inverse

Q = Fraction


def shear():
    return parse_map("x1 + x2^2, x2", 2)


def diag23():
    return parse_map("2*x1, 3*x2", 2)


def henon():
    return parse_map("x2, x1 + x2^2", 2)


# the degrees of a map whose degree doubles, up to the default budget's
DOUBLING = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


# ----------------------------------------------------------------------
# UniPoly basics

def test_unipoly_normalization():
    p = UniPoly([1, -2, 1, 0, 0])
    assert p.degree == 2 and p.coeffs == (1, -2, 1)
    with pytest.raises(ValueError):
        UniPoly([0, 0])
    with pytest.raises(ValueError):
        UniPoly([])


def test_unipoly_evaluation_and_monic():
    p = UniPoly([6, -5, 1])  # (T-2)(T-3)
    assert p(2) == 0 and p(3) == 0 and p(0) == 6
    q = UniPoly([2, 0, 4])
    assert not q.is_monic
    assert q.monic() == UniPoly([Q(1, 2), 0, 1])
    assert q.monic().is_monic


def test_unipoly_str():
    assert str(UniPoly([6, -5, 1])) == "T^2 - 5*T + 6"
    assert str(UniPoly([-1, 1])) == "T - 1"
    assert str(UniPoly([0, Q(1, 2)])) == "1/2*T"
    assert str(UniPoly([3])) == "3"
    assert str(UniPoly([0, -1])) == "-T"


def test_unipoly_coeff_strings_round_trip():
    p = UniPoly([Q(1, 6), Q(-5, 6), 1])
    assert p.to_coeff_strings() == ["1/6", "-5/6", "1"]
    assert UniPoly.from_coeff_strings(p.to_coeff_strings()) == p
    # the rational grammar of the documents: no decimals, no exponents
    for text in ("0.5", "1e3"):
        with pytest.raises(ValueError, match="expected a rational p or p/q"):
            UniPoly.from_coeff_strings(["1", text])


def test_unipoly_immutable():
    p = UniPoly([1, 1])
    with pytest.raises(AttributeError):
        p.coeffs = ()


# ----------------------------------------------------------------------
# certification: the pinned examples

def test_certify_identity():
    r = lf_certify(Endo.identity(3))
    assert r.certified
    assert r.minimal_polynomial == UniPoly([-1, 1])
    assert r.iterate_degrees == (1, 1)


def test_certify_shear():
    r = lf_certify(shear())
    assert r.certified
    assert r.minimal_polynomial == UniPoly([1, -2, 1])  # (T-1)^2
    assert r.iterate_degrees == (1, 2, 2)


def test_certify_diagonal():
    r = lf_certify(diag23())
    assert r.certified
    assert r.minimal_polynomial == UniPoly([6, -5, 1])  # roots 2, 3


def test_certify_nagata():
    r = lf_certify(nagata())
    assert r.certified
    assert r.minimal_polynomial == UniPoly([-1, 3, -3, 1])  # (T-1)^3
    assert r.iterate_degrees == (1, 5, 5, 5)


def test_certify_henon_budget_exhaustion():
    r = lf_certify(henon())
    assert r.verdict == "Unknown"
    assert r.minimal_polynomial is None
    # doubling degree sequence, with the budget-breaking degree included
    assert r.iterate_degrees == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
    assert r.budget_used == (10, 1024)


def test_certify_henon_is_fast():
    # the doubling iterates are never materialized, only their top forms
    import time

    t0 = time.perf_counter()
    lf_certify(henon())
    assert time.perf_counter() - t0 < 0.5


def test_iteration_budget():
    r = lf_certify(shear(), max_iter=1)
    assert r.verdict == "Unknown"
    assert r.iterate_degrees == (1, 2)
    r = lf_certify(shear(), max_iter=2)
    assert r.certified


def test_degree_budget():
    r = lf_certify(shear(), max_deg=1)
    assert r.verdict == "Unknown"
    assert r.iterate_degrees == (1, 2)


def test_budget_validation():
    with pytest.raises(ValueError):
        lf_certify(shear(), max_iter=0)
    with pytest.raises(ValueError):
        lf_certify(shear(), max_deg=0)
    # bools are not counts
    with pytest.raises(ValueError):
        lf_certify(shear(), max_iter=True)
    with pytest.raises(ValueError):
        lf_certify(shear(), max_deg=True)


def test_certify_zero_map():
    g = Endo([Poly.zero(1)])
    r = lf_certify(g)
    assert r.certified
    assert r.minimal_polynomial == UniPoly([0, 1])  # mu = T
    assert r.iterate_degrees == (1, NEG_INF)


def test_certify_conjugated_diagonal_needs_backfill():
    # shear-conjugated diag(2,3): (2*x1 + 7*x2^2, 3*x2); all iterates have
    # degree 2, so iterate 1 is skipped and later backfilled, and the
    # minimal polynomial gains the eigenvalue 9 = 3^2 from the y^2 slot
    g = parse_map("2*x1 + 7*x2^2, 3*x2", 2)
    r = lf_certify(g)
    assert r.certified
    # (T-2)(T-3)(T-9)
    assert r.minimal_polynomial == UniPoly([-54, 51, -14, 1])
    assert minimality_certificate(g, r.minimal_polynomial)


def test_report_json():
    r = lf_certify(shear())
    doc = r.to_json_dict()
    assert doc["verdict"] == "CertifiedLF"
    assert doc["minimal_polynomial"] == ["1", "-2", "1"]
    assert doc["iterate_degrees"] == [1, 2, 2]
    assert doc["budget_used"] == {"iterations": 2, "max_degree": 2}
    u = lf_certify(henon()).to_json_dict()
    assert u["minimal_polynomial"] is None


# ----------------------------------------------------------------------
# vanishing and minimality

def test_verify_vanishing():
    assert verify_vanishing(Endo.identity(2), UniPoly([-1, 1]))
    assert verify_vanishing(shear(), UniPoly([1, -2, 1]))
    assert not verify_vanishing(shear(), UniPoly([-2, 1]))  # T - 2
    # multiples of the minimal polynomial vanish too: (T-1)^3
    assert verify_vanishing(shear(), UniPoly([-1, 3, -3, 1]))


def test_minimality_certificate():
    assert minimality_certificate(Endo.identity(2), UniPoly([-1, 1]))
    assert minimality_certificate(shear(), UniPoly([1, -2, 1]))
    assert not verify_vanishing(shear(), UniPoly([-1, 1]))
    # (T-2)(T-3)(T-1) vanishes on diag(2,3) but is not minimal
    over = UniPoly([-6, 11, -6, 1])
    assert verify_vanishing(diag23(), over)
    assert not minimality_certificate(diag23(), over)


def _refuse_to_compose(self, other):
    raise AssertionError("composed an iterate")


def test_minimality_on_henon_composes_nothing(monkeypatch):
    # the degrees of (Y, X + Y^2) double at every step, so iterates 0..19
    # are independent and none of them needs composing
    monkeypatch.setattr(Endo, "compose", _refuse_to_compose)
    assert minimality_certificate(parse_map("Y, X + Y^2", 2), UniPoly([0] * 20 + [1]))


def test_certified_reports_self_consistent():
    for g in (Endo.identity(2), shear(), diag23(), nagata()):
        r = lf_certify(g)
        assert verify_vanishing(g, r.minimal_polynomial)
        assert minimality_certificate(g, r.minimal_polynomial)


# ----------------------------------------------------------------------
# inversion from the minimal polynomial

def test_invert_shear():
    inv = inverse_from_minpoly(shear(), UniPoly([1, -2, 1]))
    assert inv == parse_map("x1 - x2^2, x2", 2)


def test_invert_scalar():
    g = parse_map("2*x1", 1)
    inv = inverse_from_minpoly(g, UniPoly([-2, 1]))
    assert inv == Endo([Fraction(1, 2) * Poly.variable(1, 1)])


def test_invert_nagata_matches_formula():
    inv = inverse_from_minpoly(nagata(), UniPoly([-1, 3, -3, 1]))
    assert inv == nagata_inverse()


def test_invert_rejects_non_vanishing():
    with pytest.raises(ValueError):
        inverse_from_minpoly(shear(), UniPoly([-2, 1]))


def test_invert_flags_zero_constant_term():
    # a vanishing mu with mu(0) = 0 gives no inverse, and says nothing
    # about the map unless it is minimal: T^2 - T vanishes on the
    # identity, an automorphism
    for g, coeffs in [(Endo([Poly.zero(1)]), [0, 1]), (Endo.identity(2), [0, -1, 1])]:
        with pytest.raises(ValueError, match="zero constant term") as info:
            inverse_from_minpoly(g, UniPoly(coeffs))
        assert not isinstance(info.value, InconsistencyError)


@pytest.mark.parametrize(
    "g, coeffs, error, message",
    [
        # no inverse can be read off: the vanishing is checked on its own
        (shear(), [3], ValueError, "does not vanish"),
        (shear(), [0, 1], ValueError, "does not vanish"),
        (Endo([Poly.zero(1)]), [0, 1], ValueError, "zero constant term"),
        # mu(0) != 0: the inverse-pair check catches a mu that does not vanish
        (shear(), [-2, 1], InconsistencyError, "inverse read off"),
        (nagata(), [1, -3, 3, 1], InconsistencyError, "inverse read off"),
        # a vanishing mu(0) = 0 that is not minimal, on an automorphism
        (Endo.identity(2), [0, -1, 1], ValueError, "zero constant term"),
    ],
)
def test_invert_error_contract(g, coeffs, error, message):
    with pytest.raises(error, match=message) as info:
        inverse_from_minpoly(g, UniPoly(coeffs))
    if error is ValueError:
        assert not isinstance(info.value, InconsistencyError)


@pytest.mark.parametrize(
    "text, n",
    [
        ("x1 + x2^2, x2", 2),
        ("2*x1, 3*x2", 2),
        ("x1 + x2^2, x2 + x3^2, x3", 3),
        ("-x1 + x2^3, 1/2*x2 + 1", 2),
    ],
)
def test_invert_composes_once_and_skips_vanishing(monkeypatch, text, n):
    # the one inverse-pair check implies mu(g) = 0 when mu(0) != 0
    g = parse_map(text, n)
    mu = lf_certify(g).minimal_polynomial
    assert mu.coeffs[0] != 0
    calls = []
    compose = Endo.compose
    monkeypatch.setattr(
        Endo, "compose", lambda self, other: calls.append("compose") or compose(self, other)
    )
    monkeypatch.setattr(
        locfin, "verify_vanishing", lambda g, p: calls.append("vanishing") or True
    )
    inv = inverse_from_minpoly(g, mu)
    assert calls == ["compose"]
    assert g.compose(inv) == inv.compose(g) == Endo.identity(n)


# ----------------------------------------------------------------------
# reversal

def test_reversal_values():
    assert reversal(UniPoly([1, -2, 1])) == UniPoly([1, -2, 1])  # palindromic
    assert reversal(UniPoly([-2, 1])) == UniPoly([Q(-1, 2), 1])  # T - 1/2
    assert reversal(UniPoly([6, -5, 1])) == UniPoly([Q(1, 6), Q(-5, 6), 1])


def test_reversal_needs_nonzero_constant():
    with pytest.raises(ValueError):
        reversal(UniPoly([0, 1]))


def test_reversal_duality_on_known_inverses():
    pairs = [
        (shear(), parse_map("x1 - x2^2, x2", 2)),
        (diag23(), parse_map("1/2*x1, 1/3*x2", 2)),
        (nagata(), nagata_inverse()),
    ]
    for g, g_inv in pairs:
        assert verify_inverse_pair(g, g_inv)
        mu = lf_certify(g).minimal_polynomial
        mu_inv = lf_certify(g_inv).minimal_polynomial
        assert mu_inv == reversal(mu)


# ----------------------------------------------------------------------
# conjugation

def test_conjugate_by_identity():
    assert conjugate(Endo.identity(2), Endo.identity(2), shear()) == shear()


def test_conjugate_examples():
    phi = parse_map("2*x1, x2", 2)
    phi_inv = parse_map("1/2*x1, x2", 2)
    assert conjugate(phi, phi_inv, shear()) == parse_map("x1 + 2*x2^2, x2", 2)
    swap = parse_map("x2, x1", 2)
    assert conjugate(swap, swap, shear()) == parse_map("x1, x2 + x1^2", 2)


def test_conjugate_rejects_bad_pair():
    with pytest.raises(ValueError):
        conjugate(shear(), shear(), Endo.identity(2))


def test_conjugation_degree_bound_and_lf_preservation():
    rng = random.Random(7)
    g = shear()
    r = lf_certify(g)
    d = max(r.iterate_degrees)
    for _ in range(5):
        c = rng.choice([Q(2), Q(-1), Q(1, 2)])
        phi = parse_map(f"x1 + {abs(c)}*x2^2, x2", 2) if c > 0 else parse_map(
            f"x1 - {abs(c)}*x2^2, x2", 2
        )
        phi_inv = inverse_from_minpoly(phi, lf_certify(phi).minimal_polynomial)
        conj = conjugate(phi, phi_inv, g)
        dp, dq = phi.degree(), phi_inv.degree()
        for m in range(9):
            assert conj.iterate(m).degree() <= dp * g.iterate(m).degree() * dq
        r2 = lf_certify(conj, max_deg=dp * d * dq)
        assert r2.certified


# ----------------------------------------------------------------------
# the modular search agrees with exact elimination

P0, P1 = 2**61 - 1, 2**61 - 31  # the first two primes the library uses
SMALL_PRIMES = (3, 5, 7)


def _exact_reference(g, max_iter=16, max_deg=512):
    """lf_certify with the Fraction finder patched in, and rational
    reconstruction patched out, so no prime takes part in the elimination,
    CRT or reconstruction: the first prime that decides returns the exact
    dependence.  The search prime still evaluates the top forms, and each
    nonzero value proves a degree."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(locfin, "DependenceFinder", lambda p: FractionDependenceFinder())
        mp.setattr(locfin, "rational_reconstruction", lambda r, modulus: r)
        return lf_certify(g, max_iter, max_deg)


def _exact_minimality(g, degree):
    """True iff iterates 0..degree-1 are independent, by Fraction elimination."""
    finder = FractionDependenceFinder()
    return all(finder.add(*locfin._flatten(it)) is None for it in g.orbit(degree - 1))


def _primes_first(mp, first):
    """Make the library take the given primes first, then its own."""
    real = locfin._primes

    def primes():
        yield from first
        yield from real()

    mp.setattr(locfin, "_primes", primes)


def _recording_finders(mp):
    """The list of primes the library's finders are built with, in order."""
    built = []
    real = locfin.DependenceFinder

    def record(p):
        built.append(p)
        return real(p)

    mp.setattr(locfin, "DependenceFinder", record)
    return built


def _recording_searches(mp):
    """The list of primes the library's searches run with, in order."""
    searched = []
    real = locfin._search

    def record(g, max_iter, max_deg, p):
        searched.append(p)
        return real(g, max_iter, max_deg, p)

    mp.setattr(locfin, "_search", record)
    return searched


SAMPLED_MAPS = {
    "triangular": lambda rng: samplers.random_triangular(rng, rng.randint(1, 3)),
    "dejonquieres": lambda rng: samplers.random_triangular(
        rng, rng.randint(1, 3), scalars=samplers.DIAGONAL_POOL
    ),
    "diagonal": lambda rng: gen_to_endo(samplers.random_diagonal(rng, rng.randint(1, 3))),
    "henon": samplers.random_henon,
}


@pytest.mark.parametrize("primes", [None, SMALL_PRIMES])
@given(st.sampled_from(sorted(SAMPLED_MAPS)), st.integers(min_value=0, max_value=2**32))
@settings(deadline=None, max_examples=60)
def test_modular_certify_matches_fraction_finder(primes, kind, seed):
    # with 3, 5 and 7 first, unlucky primes, vanishing denominators,
    # skipped CRT primes and rotation to the next prime all occur
    with pytest.MonkeyPatch.context() as mp:
        if primes is not None:
            _primes_first(mp, primes)
        g = SAMPLED_MAPS[kind](random.Random(seed))
        report = lf_certify(g)
    assert report == _exact_reference(g)


@pytest.mark.parametrize("primes", [None, SMALL_PRIMES])
@given(
    st.sampled_from(sorted(SAMPLED_MAPS)),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=4),
)
@settings(deadline=None, max_examples=60)
def test_minimality_matches_fraction_elimination(primes, kind, seed, d):
    # degree d, and for a certified map deg(mu) (True) and deg(mu) + 1
    # (False): minimality_certificate reads only the degree of its argument
    g = SAMPLED_MAPS[kind](random.Random(seed))
    mu = lf_certify(g).minimal_polynomial
    degrees = [d] if mu is None else [d, mu.degree, mu.degree + 1]
    with pytest.MonkeyPatch.context() as mp:
        if primes is not None:
            _primes_first(mp, primes)
        got = [minimality_certificate(g, UniPoly([0] * e + [1])) for e in degrees]
    assert got == [_exact_minimality(g, e) for e in degrees]
    if mu is not None:
        assert got[1:] == [True, False]


def test_certify_lifts_through_crt_without_fallback(monkeypatch):
    # a0 = (10^6+3)(10^6+7) ~ 10^12 is beyond what one 61-bit prime lifts
    # (|numerator|, denominator <= 2^30), so a second prime is combined in
    built = _recording_finders(monkeypatch)
    a, b = 10**6 + 3, 10**6 + 7
    g = parse_map(f"{a}*x1, {b}*x2", 2)
    r = lf_certify(g)
    assert r.minimal_polynomial == UniPoly([a * b, -(a + b), 1])
    assert built == [P0, P1]
    assert r == _exact_reference(g)


@pytest.mark.parametrize(
    "text, n, primes, reaches_real_primes",
    [
        # a denominator vanishes mod 3: the search rotates to P0
        ("1/3*x1", 1, (3,), True),
        # 3 divides a coefficient, which would zero out the values of the
        # top forms: the search rotates to P0
        ("x1 + 3*x2^2, x2", 2, (3,), True),
        # mod 5, -2 does not lift; 3 divides a coefficient and is skipped,
        # and P0 is combined with 5
        ("x1 + 3*x2^2, x2", 2, (5, 3), True),
        # mod 3, T^2 - 3T + 2 lifts to T^2 - 1, which does not vanish, so
        # P0 is combined with 3 ...
        ("x1, 2*x2", 2, (3,), True),
        # ... and with 7 combined in instead, the lift is right
        ("x1, 2*x2", 2, (3, 7), False),
        # T^2 - 51/5 T + 2 is found mod 3 and needs a second prime; 5
        # divides a denominator, and mod 7 the map is 3 times the identity,
        # an earlier dependence, so both are skipped for P0
        ("1/5*x1, 10*x2", 2, (3, 5, 7), True),
        # degrees 1, 2, 4, 4, but the degree-4 terms of iterate 2 have
        # coefficient 2, and iterate 2 is the identity mod 2: a dependence
        # while backfilling, so the search rotates to P0
        ("x1 + x2^2 + x3^2, x2 + x4^2, x3 + x4^2, x4", 4, (2,), True),
        # mod 3 the map is the identity: T - 1, found at iterate 1, does not
        # vanish, and P0's dependence at iterate 2 replaces it
        ("x1, 4*x2", 2, (3,), True),
    ],
)
def test_unlucky_primes(monkeypatch, text, n, primes, reaches_real_primes):
    built = _recording_finders(monkeypatch)
    searched = _recording_searches(monkeypatch)
    _primes_first(monkeypatch, primes)
    g = parse_map(text, n)
    r = lf_certify(g)
    assert r.certified
    assert built == [*primes, *([P0] if reaches_real_primes else [])]
    assert searched == built  # each prime's finder is its search's
    assert r == _exact_reference(g)


def test_prime_dividing_a_coefficient_is_skipped(monkeypatch):
    # mod 3 the top coefficient 3 would zero every value, so every iterate
    # would be composed; the search moves to P0 at once and composes none
    built = _recording_finders(monkeypatch)
    _primes_first(monkeypatch, (3,))
    monkeypatch.setattr(Endo, "compose", _refuse_to_compose)
    r = lf_certify(parse_map("Y, X + 3*Y^2", 2))
    assert r.verdict == "Unknown" and r.iterate_degrees == DOUBLING
    assert built == [3, P0]


@pytest.mark.parametrize(
    "text, n",
    [
        # coefficients beyond what eight 61-bit primes lift
        ("(2^300)*x1", 1),
        ("10^80*x1, (10^80+1)*x2", 2),
        ("3^200*x1 + x2^2, x2", 2),
        # the first prime divides the denominator
        (f"1/{P0}*x1", 1),
    ],
)
def test_tall_and_unlucky_inputs_certify(text, n):
    g = parse_map(text, n)
    r = lf_certify(g)
    assert r.certified
    assert r == _exact_reference(g)
    assert minimality_certificate(g, r.minimal_polynomial)


def test_primes_are_made_on_demand(monkeypatch):
    # the first eight are the primes just below 2^61, largest first
    assert list(itertools.islice(locfin._primes(), 8)) == [
        2**61 - 1, 2**61 - 31, 2**61 - 45, 2**61 - 229,
        2**61 - 259, 2**61 - 283, 2**61 - 339, 2**61 - 391,
    ]
    # the test agrees with trial division on small odd numbers
    assert [n for n in range(3, 2000, 2) if locfin._is_prime(n)] == [
        n for n in range(3, 2000, 2) if all(n % d for d in range(2, isqrt(n) + 1))
    ]
    # and on pseudoprimes: Carmichael numbers, 3215031751 (a strong
    # pseudoprime to the bases 2 to 7) and 3825123056546413051 (2 to 23)
    for n in (561, 41041, 825265, 3215031751, 3825123056546413051):
        assert not locfin._is_prime(n)
    # primes found once are not tested again
    found = list(itertools.islice(locfin._primes(), 12))
    monkeypatch.setattr(locfin, "_is_prime", None)
    assert list(itertools.islice(locfin._primes(), 12)) == found


# ----------------------------------------------------------------------
# degrees predicted from top-form values at one point

@given(
    st.sampled_from(["triangular", "dejonquieres", "diagonal"]),
    st.integers(min_value=0, max_value=2**32),
)
@settings(deadline=None, max_examples=40)
def test_iterate_degrees_are_true_degrees(kind, seed):
    g = SAMPLED_MAPS[kind](random.Random(seed))
    report = lf_certify(g)
    fresh = Endo(g.coords)  # composes its own orbit
    assert report.iterate_degrees == tuple(
        fresh.iterate(m).degree() for m in range(len(report.iterate_degrees))
    )


@given(st.integers(min_value=0, max_value=2**32))
@settings(deadline=None, max_examples=20)
def test_henon_certification_composes_no_iterate(seed):
    g = samplers.random_henon(random.Random(seed))
    assert lf_certify(g).verdict == "Unknown"
    assert g._orbit is None  # not even the identity


def _linear_conjugate_of_henon(rng):
    """phi o (h, x3) o phi^-1 for a random Henon map h in x1, x2 and a random
    invertible linear phi of 3-space: its top forms are dense."""
    h = samplers.random_henon(rng)
    xs = Poly.variables(3)
    lifted = Endo([c.substitute(xs[:2]) for c in h.coords] + [xs[2]])
    while True:
        a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        try:
            a_inv = mat_inverse(a)
        except ValueError:
            continue  # singular
        phi, phi_inv = (
            Endo([sum((c * v for c, v in zip(row, xs)), Poly.zero(3)) for row in m])
            for m in (a, a_inv)
        )
        return conjugate(phi, phi_inv, lifted)


@given(st.integers(min_value=0, max_value=2**32))
@settings(deadline=None, max_examples=25)
def test_iterate_degrees_of_conjugated_henon_maps(seed):
    g = _linear_conjugate_of_henon(random.Random(seed))
    report = lf_certify(g, max_deg=8)
    assert report.verdict == "Unknown"
    fresh = Endo(g.coords)  # composes its own orbit
    assert report.iterate_degrees == tuple(
        fresh.iterate(m).degree() for m in range(len(report.iterate_degrees))
    )


# (x2, x3, x1 + x3^2) conjugated by phi = (x1, x2, x1 + x2 + x3): the top
# forms of its iterates are multiples of powers of x1 + x2 - x3
CONJUGATE3 = "x2, -x1 - x2 + x3, x1^2 + 2*x1*x2 - 2*x1*x3 + x2^2 - 2*x2*x3 + x3^2 + x3"


def test_dense_top_forms_cost_no_composition(monkeypatch):
    phi = parse_map("x1, x2, x1 + x2 + x3", 3)
    phi_inv = parse_map("x1, x2, x3 - x1 - x2", 3)
    g = parse_map(CONJUGATE3, 3)
    assert g == conjugate(phi, phi_inv, parse_map("x2, x3, x1 + x3^2", 3))
    monkeypatch.setattr(Endo, "compose", _refuse_to_compose)
    r = lf_certify(g)
    assert r.verdict == "Unknown"
    assert r.iterate_degrees == DOUBLING
    assert r.budget_used == (10, 1024)
    assert minimality_certificate(g, UniPoly([0] * 12 + [1]))


@pytest.mark.parametrize("subcommand", ["lf-certify", "minpoly-invert"])
def test_dense_top_forms_give_exit_2_quickly(subcommand):
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(locfin.__file__), os.pardir)
    out = subprocess.run(
        [sys.executable, "-m", "polyaut.cli", subcommand, "--n", "3", "--map", CONJUGATE3],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
    )
    assert out.returncode == 2, out.stderr
    assert out.stdout.splitlines() == [
        "verdict: Unknown",
        "minimal_polynomial: none",
        "iterate_degrees: " + " ".join(map(str, DOUBLING)),
        "budget_used: iterations=10 max_degree=1024",
    ]


def test_rising_path_substitutes_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("substituted")

    for module in (poly, endo, locfin):  # a module may import it by name
        monkeypatch.setattr(module, "_substitute", refuse, raising=False)
    for g in [henon(), parse_map(CONJUGATE3, 3)] + [
        samplers.random_henon(random.Random(seed)) for seed in range(20)
    ]:
        assert lf_certify(g).verdict == "Unknown"


def test_prediction_runs_only_off_a_plateau(monkeypatch):
    # degrees 1, 2, 2, 2: the degree plateaus from iterate 1 on, and a
    # budget of 3 or 4, on either side of deg(g) * deg(g^2) = 4, changes
    # nothing: each of iterates 1..3 is predicted once from the values of
    # the one before, and no prediction falls back to full composition
    calls = []
    real = LeadingOrbit.predict
    monkeypatch.setattr(
        LeadingOrbit, "predict", lambda *a: calls.append(real(*a)) or calls[-1]
    )
    g = parse_map("2*x1 + 7*x2^2, 3*x2", 2)
    reports = []
    for max_deg in (4, 3):
        calls.clear()
        reports.append(lf_certify(g, max_deg=max_deg))
        assert len(calls) == 3
        assert None not in calls
    assert reports[0] == reports[1]
    assert reports[0].iterate_degrees == (1, 2, 2, 2)


def test_a_relation_that_fails_to_vanish_raises(monkeypatch):
    # past the Hadamard/Cramer limit the lifted relation is the only
    # candidate, so one that does not vanish is an inconsistency; a short
    # prime list lets a search that skips the raise end instead of running on
    monkeypatch.setattr(locfin, "verify_vanishing", lambda g, mu: False)
    primes = list(itertools.islice(locfin._primes(), 4))
    monkeypatch.setattr(locfin, "_primes", lambda: iter(primes))
    with pytest.raises(InconsistencyError, match="^certified relation failed to vanish$"):
        lf_certify(shear())


# ----------------------------------------------------------------------
# no certificate rests on an assert

_OPTIMIZED_SCRIPT = """
import sys
assert False, "asserts are not stripped"
from polyaut import locfin
from polyaut.endo import Endo
from polyaut.textio import parse_map

def expect_inconsistency(fn):
    try:
        result = fn()
    except locfin.InconsistencyError as exc:
        return str(exc)
    sys.exit(f"no InconsistencyError, got {result!r}")

g = parse_map("x1 + x2^2, x2", 2)
mu = locfin.lf_certify(g).minimal_polynomial
real_check = locfin.verify_inverse_pair
locfin.verify_inverse_pair = lambda f, h: False
print(expect_inconsistency(lambda: locfin.inverse_from_minpoly(g, mu)))
locfin.verify_inverse_pair = real_check
nonzero = parse_map("x1, x2", 2)
locfin.linear_combination = lambda coeffs, maps: nonzero
print(expect_inconsistency(lambda: locfin.lf_certify(parse_map("x1 + x2^2, x2", 2))))
"""


def test_certificates_hold_under_python_optimize():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(locfin.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.splitlines() == [
        "the inverse read off the minimal polynomial fails",
        "certified relation failed to vanish",
    ]


def _top_values(h, x, p):
    """The top form of each coordinate of h evaluated at x, mod p: the
    reference for LeadingOrbit.lead, in Fraction arithmetic."""
    point = [Poly.constant(h.n, v) for v in x]
    values = [c.top_form().substitute(point).constant_term() for c in h.coords]
    return tuple(v.numerator * pow(v.denominator, -1, p) % p for v in values)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([P0, 7]),
)
@settings(deadline=None, max_examples=80)
def test_compose_leading_matches_full_composition(n, seed, p):
    # the prediction is the degrees of g o h and its top forms' values at
    # x, and None exactly when the terms of maximal degree of some
    # coordinate vanish at x mod p (they cancel, or x is a zero of the top
    # form, which mod 7 happens often); full composition is the reference
    rng = random.Random(seed)
    g, h = (Endo([samplers.random_poly(rng, n, 3, 3) for _ in range(n)]) for _ in "gh")
    orbit = LeadingOrbit(g, p)
    x = orbit.point
    degrees, values = orbit.lead(h)
    assert values == _top_values(h, x, p)
    truth = (tuple(c.total_degree() for c in g.compose(h).coords),
             _top_values(g.compose(h), x, p))
    predicted = [
        max((sum(a * d for a, d in zip(mono, degrees) if a) for mono in c.terms),
            default=NEG_INF)
        for c in g.coords
    ]
    lead = orbit.predict(degrees, values)
    assert (lead is None) == any(
        d != NEG_INF and (t < d or v == 0) for t, v, d in zip(*truth, predicted)
    )
    if lead is not None:
        assert lead == truth


def test_compose_leading_reports_cancelling_tops():
    g = parse_map("x1 - x2, x2", 2)
    h = parse_map("x1 + x2^2, x2^2 + 1", 2)
    orbit = LeadingOrbit(g, P0)
    assert orbit.predict(*orbit.lead(h)) is None


def test_point_has_nonzero_coordinates():
    # _BASE is a prime above every search prime, so none of them divides it
    assert locfin._is_prime(endo._BASE) and endo._BASE > 2**61
    for p in (3, 5, 7, P0, P1):
        assert all(LeadingOrbit(Endo.identity(4), p).point)


def test_degree_certificate_mismatch_raises(monkeypatch):
    # predictions of the wrong degree must not pass silently: here every
    # iterate of the shear is claimed to stay linear
    real = LeadingOrbit.predict

    def stays_linear(self, degrees, values):
        lead = real(self, degrees, values)
        return None if lead is None else ((1,) * len(degrees), lead[1])

    monkeypatch.setattr(LeadingOrbit, "predict", stays_linear)
    with pytest.raises(InconsistencyError, match="^iterate 1 does not have the degrees"):
        lf_certify(shear())


# ----------------------------------------------------------------------
# one orbit of iterates per map object

def test_each_iterate_is_composed_once_per_map(monkeypatch):
    calls = []
    compose = Endo.compose

    def counted(self, other):
        calls.append(self)
        return compose(self, other)

    monkeypatch.setattr(Endo, "compose", counted)
    g = parse_map("x1 + x2^2, x2 + x3^2, x3", 3)
    mu = lf_certify(g).minimal_polynomial
    assert mu.degree == 4
    assert len(calls) == 3  # g^2 ... g^4, each once; g^1 is g itself
    inverse_from_minpoly(g, mu)
    assert len(calls) == 3 + 1  # plus one of g o inv, inv o g
    assert verify_vanishing(g, mu)
    assert minimality_certificate(g, mu)
    assert len(calls) == 4
    # the orbit lives on the map object, not in a module-level cache
    h = parse_map("x1 + x2^2, x2 + x3^2, x3", 3)
    assert h == g
    lf_certify(h)
    assert len(calls) == 7
