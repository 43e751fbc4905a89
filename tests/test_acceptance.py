"""Acceptance gate: nine checks, one PASS/FAIL line each in the run summary.

Every identity is checked with exact Fraction arithmetic, zero tolerance;
criteria 1-4 also carry wall-clock bounds. Counted random checks draw from
the shared seeded samplers, so reruns reproduce the same samples.
"""

import functools
import random
import time
from fractions import Fraction

from polyaut.endo import Endo, verify_inverse_pair
from polyaut.locfin import (
    UniPoly,
    conjugate,
    inverse_from_minpoly,
    lf_certify,
    minimality_certificate,
    reversal,
    verify_vanishing,
)
from polyaut.poly import Poly
from polyaut.tame import Diagonal, Elementary, invert_word, normal_form, word_to_endo
from polyaut.textio import parse_map, parse_poly, render_poly
from polyaut.witness import (
    nagata,
    nagata_inverse,
    verify_witness,
    witness_obs2,
    witness_obs3,
)

from acceptance_report import register
from samplers import random_elementary, random_poly, random_word


def _criterion(num):
    """The wrapped test returns (ok, detail); exactly one line is registered
    per criterion even when the body blows up before reaching a verdict."""
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                ok, detail = fn()
            except BaseException as exc:
                register(num, False, f"aborted early: {type(exc).__name__}")
                raise
            register(num, ok, detail)
            assert ok, f"criterion {num}: {detail}"
        return run
    return wrap


@_criterion(1)
def test_criterion_1_nagata_chain():
    start = time.perf_counter()
    x, y, z = Poly.variables(3)
    sigma = y * y + x * z
    f = nagata()
    f_inv = nagata_inverse()
    ell = Endo((Fraction(1, 4) * x, Fraction(1, 2) * y, z))
    ell_inv = Endo((4 * x, 2 * y, z))

    checks = [
        sigma.substitute(ell.coords) == Fraction(1, 4) * sigma,
        verify_inverse_pair(f, f_inv),
    ]
    conj = f_inv.compose(ell).compose(f)
    displayed = Endo((
        Fraction(1, 4) * x - Fraction(1, 4) * sigma * y
        - Fraction(1, 16) * sigma * sigma * z,
        Fraction(1, 2) * y + Fraction(1, 4) * sigma * z,
        z,
    ))
    checks.append(conj == displayed)
    checks.append(conj.compose(ell_inv) == f)
    checks.append(f.jacobian_det() == Poly.constant(3, 1))

    elapsed = time.perf_counter() - start
    return (all(checks) and elapsed < 1.0,
            f"nagata chain, 5 exact identities, {elapsed:.3f}s (bound 1s)")


@_criterion(2)
def test_criterion_2_obs2_witnesses():
    rng = random.Random(1402)
    start = time.perf_counter()
    results = []
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        e = random_elementary(rng, n, max_deg=5, max_terms=4)
        results.append(verify_witness(witness_obs2(e)))
    elapsed = time.perf_counter() - start
    return (len(results) == 100 and all(results) and elapsed < 10.0,
            f"100 random Obs2 witnesses verified, {elapsed:.2f}s (bound 10s)")


@_criterion(3)
def test_criterion_3_obs3_witnesses():
    rng = random.Random(1403)
    start = time.perf_counter()
    a_values = (Fraction(2), Fraction(3), Fraction(5, 2))
    results = []
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        e = random_elementary(rng, n, max_deg=5, max_terms=4)
        one = Poly.constant(n, 1)
        for a in a_values:
            w = witness_obs3(e, a=a)
            # det J(D^-1) = 1/det J(D), so unit determinants for the three
            # stored factors cover the whole chain
            dets = all(
                g.jacobian_det() == one
                for g in (w.conjugator, w.conjugator_inverse, w.diagonal)
            )
            results.append(verify_witness(w) and dets)
    elapsed = time.perf_counter() - start
    return (len(results) == 300 and all(results) and elapsed < 30.0,
            f"100 random Obs3 witnesses x a in {{2, 3, 5/2}}, unit Jacobians, "
            f"{elapsed:.2f}s (bound 30s)")


@_criterion(4)
def test_criterion_4_tame_normal_form():
    rng = random.Random(1404)
    start = time.perf_counter()
    good = 0
    for _ in range(200):
        n = rng.choice((2, 3))
        w = random_word(rng, n, max_len=6, max_deg=3)
        nf = normal_form(w)
        factors = nf.to_word().factors
        shape = (
            all(isinstance(g, Elementary) for g in factors[:-1])
            and isinstance(factors[-1], Diagonal)
        )
        recomposes = word_to_endo(nf.to_word()) == word_to_endo(w)
        good += shape and recomposes
    elapsed = time.perf_counter() - start
    return (good == 200 and elapsed < 60.0,
            f"{good}/200 random tame words recompose from (elementaries..., "
            f"diagonal), {elapsed:.2f}s (bound 60s)")


@_criterion(5)
def test_criterion_5_lf_certification():
    x1, x2 = Poly.variables(2)
    certified_cases = [
        (Endo.identity(2), UniPoly((-1, 1))),
        (Endo((x1 + x2 * x2, x2)), UniPoly((1, -2, 1))),
        (Endo((2 * x1, 3 * x2)), UniPoly((6, -5, 1))),
        (nagata(), UniPoly((-1, 3, -3, 1))),
    ]
    pieces = []
    for g, mu in certified_cases:
        rep = lf_certify(g)
        pieces.append(
            rep.certified
            and rep.minimal_polynomial == mu
            and verify_vanishing(g, rep.minimal_polynomial)
            and minimality_certificate(g, rep.minimal_polynomial)
        )

    henon = parse_map("x2, x1 + x2^2", 2)
    rep = lf_certify(henon)
    degs = rep.iterate_degrees
    pieces.append(
        rep.verdict == "Unknown"
        and degs[:2] == (1, 2)
        and all(b == 2 * a for a, b in zip(degs[1:], degs[2:]))
    )
    return (all(pieces),
            "pinned minimal polynomials, re-verified for vanishing and "
            "minimality; henon Unknown with doubling degrees")


@_criterion(6)
def test_criterion_6_inversion_consistency():
    x1, x2 = Poly.variables(2)
    cases = [
        (Endo.identity(2), Endo.identity(2)),
        (Endo((x1 + x2 * x2, x2)), Endo((x1 - x2 * x2, x2))),
        (Endo((2 * x1, 3 * x2)),
         Endo((Fraction(1, 2) * x1, Fraction(1, 3) * x2))),
        (nagata(), nagata_inverse()),
    ]
    pieces = []
    for g, known_inverse in cases:
        rep = lf_certify(g)
        inv = inverse_from_minpoly(g, rep.minimal_polynomial)
        pieces.append(rep.certified and inv == known_inverse)
    return (all(pieces),
            "inverse_from_minpoly matches known inverses on all certified "
            "cases (nagata against its closed form)")


@_criterion(7)
def test_criterion_7_reversal_duality():
    rng = random.Random(1407)
    collected = 0
    attempts = 0
    pieces = []
    while collected < 50 and attempts < 1000:
        attempts += 1
        n = rng.choice((2, 3))
        w = random_word(rng, n, max_len=4, max_deg=3)
        # tight degree budget: it only gates which samples certify, never
        # the certified values, and keeps the rejected doubling/tripling
        # words from dragging huge top forms around
        rep = lf_certify(word_to_endo(w), max_iter=16, max_deg=32)
        if not rep.certified:
            continue
        collected += 1
        # iterates of the inverse live in the span of the iterates of g,
        # so the same budget always suffices
        g_inv = word_to_endo(invert_word(w))
        rep_inv = lf_certify(g_inv, max_iter=16, max_deg=32)
        pieces.append(
            rep_inv.certified
            and rep_inv.minimal_polynomial == reversal(rep.minimal_polynomial)
        )
    return (collected == 50 and all(pieces),
            f"mu of the inverse equals reversal(mu) on {collected} certified "
            f"random tame words")


@_criterion(8)
def test_criterion_8_conjugation_degree_bound():
    rng = random.Random(1408)
    collected = 0
    attempts = 0
    pieces = []
    while collected < 50 and attempts < 1000:
        attempts += 1
        n = rng.choice((2, 3))
        g = word_to_endo(random_word(rng, n, max_len=3, max_deg=2))
        rep = lf_certify(g, max_iter=16, max_deg=32)
        if not rep.certified:
            continue
        collected += 1
        pw = random_word(rng, n, max_len=2, max_deg=2)
        phi = word_to_endo(pw)
        phi_inv = word_to_endo(invert_word(pw))
        h = conjugate(phi, phi_inv, g)

        d_phi, d_phi_inv = phi.degree(), phi_inv.degree()
        bound = all(
            h.iterate(m).degree() <= d_phi * g.iterate(m).degree() * d_phi_inv
            for m in range(9)
        )
        # every iterate of g stays within the certified degree record, so
        # the conjugate's iterates fit under d_phi * d_max * d_phi_inv;
        # the degree bound says nothing about the iteration count, hence
        # the roomier cap there
        d_max = max(rep.iterate_degrees)
        rep_h = lf_certify(h, max_iter=64, max_deg=d_phi * d_max * d_phi_inv)
        pieces.append(bound and rep_h.certified)
    return (collected == 50 and all(pieces),
            f"degree bound for m <= 8 and conjugate certification on "
            f"{collected} random (phi, g) pairs")


@_criterion(9)
def test_criterion_9_parser_round_trip():
    rng = random.Random(1409)
    results = []
    for _ in range(500):
        n = rng.randint(1, 4)
        p = random_poly(rng, n, max_deg=6, max_terms=8)
        results.append(parse_poly(render_poly(p), n) == p)
    return (len(results) == 500 and all(results),
            "parse(render(p)) == p for 500 random polynomials")
