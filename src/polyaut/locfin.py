"""Locally finite automorphisms: certification, minimal polynomials,
inversion, reversal, conjugation.

A map G is certified locally finite by exhibiting a nonzero univariate
relation a_d G^{od} + ... + a_1 G + a_0 I = 0.  We search for the first
linear dependence among the iterates I, G, G^{o2}, ... flattened to exact
rational vectors over the union monomial basis (one block per coordinate).
Because earlier iterates stay independent until the first dependence, the
relation found is automatically the monic minimal polynomial.

Degree growth is the enemy: for Henon-type maps deg(G^{om}) doubles each
step and the iterates themselves become astronomically large long before
the degree budget trips.  The certifier therefore keeps one tuple of top
forms (leading homogeneous parts) per iterate and reads the degrees off
it.  The top forms of G^{om} come from those of G^{o(m-1)} by one
substitution of the top forms into all coordinates at once, exact as long
as no cancellation occurs in the top degree.  Full iterates live only in
the map's orbit, composed on demand and each checked against the degrees
its top forms predicted.  Two facts make this sound:

  * an iterate whose degree strictly exceeds every earlier iterate's
    degree cannot take part in a first linear dependence (compare top
    homogeneous parts), so elimination may skip it;
  * a dependence can therefore only appear when the degree sequence
    plateaus or drops, and at that point the skipped iterates are
    materialized and fed to the elimination in order.

So on budget-exceeding inputs only top forms are ever computed, never the
doubling iterates themselves.

Top forms are predicted only off a plateau.  Once iterate m-1 sits in
the elimination and deg(G) * deg(G^{o(m-1)}) <= max_deg, iterate m is
composed in full and its top forms are read off it: if its degree does not
rise, the elimination takes it next anyway, so a certified map composes
exactly the iterates it would compose with prediction.  The waste is
bounded: when the degree rises after a plateau, one iterate is composed
that prediction would have skipped, and its degree is within the budget.
Henon-type maps, whose degree rises at every step, never reach a plateau
and keep the lazy path.

The elimination runs over GF(p) for a prime p just below 2^61, not over
Q.  The rank mod p is at most the rank over Q, so the first dependence mod
p comes no later than the true first one.  Its coefficients are lifted to
Q by rational reconstruction, with more primes combined by the Chinese
remainder theorem, and the lift is returned only after the exact Fraction
check that it vanishes on G: a relation that vanishes at an index no
later than the true first dependence is the minimal polynomial.  A prime
that cannot decide gives way to the next one below it.  Primes are made
on demand, and a bound on the minors of the iterates says when enough are
combined (see _lift).

minimality_certificate(g, mu) is the same search, cut at iterate
deg(mu) - 1 and with a degree budget no iterate reaches: the iterates
below deg(mu) are independent iff it certifies nothing.  A dependence
needs the degrees to stop rising (the easy half of Furter and Maubach,
JPAA 2007: g is locally finite iff its iterate degrees are bounded), so
on a map whose degree rises at every step, such as a Henon map, the
check composes no iterate.

Every iterate is taken from the map's orbit (Endo.orbit), so
certification, the vanishing and minimality checks and inversion compose
each iterate once per map object, and inversion's one inverse-pair check
also certifies that mu vanishes.  No certificate rests on an assert:
every failed check raises InconsistencyError.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import isqrt, lcm
from typing import Sequence

from .endo import Endo, linear_combination, verify_inverse_pair
from .linalg import DependenceFinder, UnluckyPrime, rational_reconstruction
from .poly import NEG_INF, InconsistencyError, Poly, Rational, Record, _substitute, is_int


class UniPoly(Record):
    """A nonzero univariate polynomial a_0 + a_1 T + ... + a_d T^d."""

    __slots__ = ("coeffs",)

    def __post_init__(self):
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("the zero polynomial is not allowed here")
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return self.leading == 1

    def monic(self) -> "UniPoly":
        if self.is_monic:
            return self
        lead = self.leading
        return UniPoly([c / lead for c in self.coeffs])

    def __call__(self, t: Rational) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self):
        from .textio import _render_terms

        terms = [((e,), c) for e, c in enumerate(self.coeffs) if c]
        return _render_terms(reversed(terms), ["T"])

    def to_coeff_strings(self) -> list:
        """Exact coefficients a_0..a_d as strings, constant term first."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, strings: Sequence[str]) -> "UniPoly":
        """The inverse of to_coeff_strings; each string is a rational p or
        p/q, as in the JSON documents."""
        from .textio import _read_rational

        return cls([_read_rational(s) for s in strings])


class LFReport(Record):
    """Outcome of lf_certify.

    verdict is "CertifiedLF" or "Unknown"; Unknown is never a claim of
    non-local-finiteness, only budget exhaustion with the degree sequence
    as evidence.  minimal_polynomial is a UniPoly, or None when Unknown.
    iterate_degrees[m] = deg(G^{om}) for every iterate examined (NEG_INF
    for a zero iterate); budget_used is (iterates computed, max degree
    encountered).
    """

    __slots__ = ("verdict", "minimal_polynomial", "iterate_degrees", "budget_used")

    @property
    def certified(self) -> bool:
        return self.verdict == "CertifiedLF"

    def to_json_dict(self) -> dict:
        mu = self.minimal_polynomial
        return {
            "verdict": self.verdict,
            "minimal_polynomial": None if mu is None else mu.to_coeff_strings(),
            "iterate_degrees": [
                None if d == NEG_INF else d for d in self.iterate_degrees
            ],
            "budget_used": {
                "iterations": self.budget_used[0],
                "max_degree": self.budget_used[1],
            },
        }


# ----------------------------------------------------------------------
# lazy iterate bookkeeping: top forms only, full iterates in g's orbit

def _top_forms(g: Endo) -> tuple:
    return tuple(c.top_form() for c in g.coords)


def _degree(tops: tuple):
    """deg of an iterate, read off its top forms; NEG_INF if all are zero."""
    return max(t.total_degree() for t in tops)


def _compose_leading(g: Endo, tops: tuple):
    """The top forms of g o h from the top forms of h alone.

    Coordinate i of the composition is g_i(h_1, ..., h_n); a monomial
    c*X^alpha contributes degree sum(alpha_j * deg h_j), and only the
    monomials of maximal degree reach the top.  Their sum, with each h_j
    replaced by its top form, is a substitution; a nonzero sum of products
    of forms of degree d is homogeneous of degree d, so it is the top
    form.  All coordinates' selections are substituted in one call, which
    packs the tops once.  Returns None when a nonempty selection
    substitutes to zero (the candidate tops cancel, the true degree is
    smaller and only full composition can tell).
    """
    degrees = [t.total_degree() for t in tops]
    selected = []
    for gi in g.coords:
        best, top = NEG_INF, {}  # the terms of maximal degree under h
        for mono, c in gi.terms.items():
            d = 0
            for a, dj in zip(mono, degrees):
                if a == 0:
                    continue
                if dj == NEG_INF:
                    break  # factor is zero, monomial dies
                d += a * dj
            else:
                if d > best:
                    best, top = d, {mono: c}
                elif d == best:
                    top[mono] = c
        selected.append(Poly._raw(g.n, top))
    forms = _substitute(selected, tops)
    if any(sel and not form for sel, form in zip(selected, forms)):
        return None
    return tuple(forms)


def _materialize(g: Endo, tops: list, composed: int, k: int) -> int:
    """Compose iterates composed..k in g's orbit, each checked against the
    degrees its top forms predict; returns the new count of composed
    iterates."""
    for j in range(composed, k + 1):
        value = g.orbit(j)[j]
        if tuple(c.total_degree() for c in value.coords) != tuple(
            t.total_degree() for t in tops[j]
        ):
            raise InconsistencyError(
                f"iterate {j} does not have the degrees its top forms predict"
            )
    return max(composed, k + 1)


def _flatten(g: Endo) -> dict:
    return {
        (i, mono): c
        for i, p in enumerate(g.coords)
        for mono, c in p.terms.items()
    }


def _finite_max(degrees):
    finite = [d for d in degrees if d != NEG_INF]
    return max(finite) if finite else 0


# ----------------------------------------------------------------------
# certification

#: Bases of the Miller-Rabin test, the first twelve primes: together they
#: decide every n below 3.3 * 10^24 (Sorenson and Webster 2015).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: The primes below 2^61 found so far, largest first (see _primes).
_FOUND = []


def _is_prime(n: int) -> bool:
    """Exact for odd 1 < n < 3.3 * 10^24: trial division by _BASES, then
    Miller-Rabin to the same bases, with n - 1 = d * 2^s and d odd."""
    if any(n % b == 0 for b in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    # base b passes if b^d is 1 or -1, or one of its repeated squares is -1
    return all(
        (x := pow(b, d, n)) in (1, n - 1)
        or any((x := x * x % n) == n - 1 for _ in range(s - 1))
        for b in _BASES
    )


def _primes():
    """The primes below 2^61, largest first, made on demand and kept in
    _FOUND.  One prime lifts every coefficient whose numerator and
    denominator stay below about 2^30; each further prime adds 30 bits."""
    for i in count():
        if i == len(_FOUND):
            n = _FOUND[-1] - 2 if _FOUND else 2**61 - 1
            while not _is_prime(n):
                n -= 2
            _FOUND.append(n)
        yield _FOUND[i]


def lf_certify(g: Endo, max_iter: int = 16, max_deg: int = 512) -> LFReport:
    """Search for the minimal polynomial of g within an iteration and
    degree budget.

    CertifiedLF comes with the monic minimal polynomial, re-verified
    internally as an exact zero map.  Unknown means the budget ran out
    (an iterate degree exceeded max_deg, or max_iter iterates brought no
    dependence); it never asserts that g is not locally finite.
    """
    if not is_int(max_iter) or max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer, got {max_iter!r}")
    if not is_int(max_deg) or max_deg < 1:
        raise ValueError(f"max_deg must be a positive integer, got {max_deg!r}")

    primes = _primes()
    for p in primes:
        try:
            return _search(g, max_iter, max_deg, p, primes)
        except UnluckyPrime:
            pass  # the next prime searches again, on the same orbit


def _search(g: Endo, max_iter: int, max_deg: int, p: int, primes) -> LFReport:
    """The lazy-degree search for the first dependence among g's iterates
    mod p, lifted to the minimal polynomial with the primes that follow
    (see _lift); raises UnluckyPrime when p cannot decide."""
    finder = DependenceFinder(p)
    tops = [_top_forms(g.orbit(0)[0])]  # per iterate
    degree_seq = [_degree(tops[0])]
    running_max = degree_seq[0]
    composed = 1  # iterates 0..composed-1 are composed, in g's orbit
    added = 0  # iterates 0..added-1 sit in the finder

    for m in range(1, max_iter + 1):
        if added == m and degree_seq[1] * degree_seq[m - 1] <= max_deg:
            # on a plateau (iterates 0..m-1 sit in the finder, so m >= 2):
            # the finder takes iterate m next unless its degree rises, and
            # its degree is within the budget either way
            lead = None
        else:
            lead = _compose_leading(g, tops[m - 1])
        if lead is None:
            # a plateau, or top-degree cancellation: compose in full
            _materialize(g, tops, composed, m - 1)
            lead = _top_forms(g.orbit(m)[m])
            composed = m + 1
        tops.append(lead)
        d = _degree(lead)
        degree_seq.append(d)

        if d != NEG_INF and d > max_deg:
            return LFReport(
                "Unknown", None, tuple(degree_seq), (m, _finite_max(degree_seq))
            )
        if d != NEG_INF and d > running_max:
            # strictly growing degree: provably independent of all earlier
            # iterates, elimination safely skipped
            running_max = d
            continue

        for k in range(added, m + 1):
            composed = _materialize(g, tops, composed, k)
            combo = finder.add(_flatten(g.orbit(k)[k]))
            added += 1
            if combo is None:
                continue
            if k < m:
                # impossible over Q: backfilled iterates had strictly
                # maximal degree when they were skipped
                raise UnluckyPrime(
                    f"dependence mod {p} during backfill at iterate {k} of {m}")
            return LFReport(
                "CertifiedLF", _lift(g, combo, m, p, primes),
                tuple(degree_seq), (m, _finite_max(degree_seq)),
            )

    return LFReport(
        "Unknown", None, tuple(degree_seq), (max_iter, _finite_max(degree_seq))
    )


def _lift(g: Endo, combo: dict, m: int, p: int, primes) -> UniPoly:
    """The minimal polynomial from the dependence that p found when
    _search added iterate m, the one it examines, with iterates 0..m-1
    independent mod p; raises UnluckyPrime when p cannot decide.

    Further primes q eliminate iterates 0..m again, and their dependences
    are combined with p's by CRT.  A q that divides a denominator, or finds
    a dependence before m, is skipped; one that finds none proves p
    unlucky.  Each time the count of combined primes is a power of two,
    the reconstruction is returned if it vanishes exactly on g.

    The stopping point.  Let D_j clear the denominators of iterate j,
    w_j = D_j v_j its integer vector, and H = max D_j * prod_j
    (floor|w_j| + 1).  By Hadamard's inequality, no minor of (w_0 .. w_m)
    exceeds H.  Iterates 0..m-1 are independent mod p, so over Q.  Let M
    be the product of the combined primes.
      * If v_0..v_m are independent, each combined prime divides a nonzero
        (m+1)-minor, so M <= H.
      * Otherwise Cramer's rule, on m rows whose minor is a unit mod a
        combined prime q, gives mu_j = D_j a_j / (D_m a_m) with m-minors
        a_j: numerators and denominators are at most H, and q divides no
        denominator, so the residues are mu mod M and reconstruction
        returns mu once M > 2 H^2.
    So a lift that does not vanish when M > 2 H^2 raises
    InconsistencyError.  H is computed when the first reconstruction fails.
    """
    residues = [combo.get(j, 0) for j in range(m + 1)]
    modulus, combined, limit = p, 1, None
    while True:
        coeffs = [rational_reconstruction(r, modulus) for r in residues]
        if None not in coeffs:
            mu = UniPoly(coeffs)
            if verify_vanishing(g, mu):
                return mu
        if limit is None:
            vectors = [_flatten(it) for it in g.orbit(m)]
            dens = [lcm(*(v.denominator for v in vec.values())) for vec in vectors]
            height = max(dens)
            for vec, den in zip(vectors, dens):
                height *= 1 + isqrt(sum(
                    (v.numerator * (den // v.denominator)) ** 2 for v in vec.values()
                ))
            limit = 2 * height**2
        if modulus > limit:
            raise InconsistencyError("certified relation failed to vanish")
        for q in primes:
            finder = DependenceFinder(q)
            try:
                if any(finder.add(vec) is not None for vec in vectors[:m]):
                    continue  # a dependence before m
                step = finder.add(vectors[m])
            except UnluckyPrime:
                continue
            if step is None:
                raise UnluckyPrime(f"iterates 0..{m} are independent mod {q}")
            inv = pow(modulus, -1, q)
            residues = [
                r + modulus * ((step.get(i, 0) - r) * inv % q)
                for i, r in enumerate(residues)
            ]
            modulus *= q
            combined += 1
            if combined & (combined - 1) == 0:
                break


def verify_vanishing(g: Endo, p: UniPoly) -> bool:
    """Exact check that p(g) = a_d g^{od} + ... + a_1 g + a_0 I is the
    zero map."""
    return linear_combination(p.coeffs, g.orbit(p.degree)).is_zero_map


def minimality_certificate(g: Endo, mu: UniPoly) -> bool:
    """True iff no relation of degree below d = deg(mu) vanishes on g,
    i.e. the iterates I, g, ..., g^{o(d-1)} are linearly independent;
    only the degree of mu is read.

    For d >= 2 this is lf_certify's search over iterates 1..d-1, which
    certifies a relation iff one of degree below d vanishes.  Its degree
    budget deg(g)^(d-1) never trips, since deg g^{om} <= deg(g)^m, and it
    skips the iterates whose degree rises, as the search always does.
    """
    d = mu.degree
    if d < 2:
        return True
    budget = max(g.degree(), 1) ** (d - 1)
    return not lf_certify(g, max_iter=d - 1, max_deg=budget).certified


# ----------------------------------------------------------------------
# consequences of a vanishing polynomial

def inverse_from_minpoly(g: Endo, mu: UniPoly) -> Endo:
    """The inverse of g read off from a vanishing polynomial with
    mu(0) != 0.

    From sum a_m g^{om} = 0, composing with g^{-1} on the right (pointwise
    linear combinations distribute over right composition) gives
    g^{-1} = -(1/a_0) * sum_{m>=1} a_m g^{o(m-1)}.

    The same distributivity gives inv o g = -(1/a_0) sum_{m>=1} a_m g^{om},
    the identity exactly when mu(g) = 0, so the one verify_inverse_pair
    check certifies the vanishing too: a mu that does not vanish raises its
    InconsistencyError.  Only a mu with mu(0) = 0 or degree 0, which gives
    no inverse, is checked for vanishing on its own.
    """
    a0 = mu.coeffs[0]
    if a0 == 0 or mu.degree == 0:
        if not verify_vanishing(g, mu):
            raise ValueError("the given polynomial does not vanish on the map")
        raise InconsistencyError(
            "vanishing polynomial has zero constant term; for an automorphism "
            "the minimal polynomial never does, so this map cannot be one"
        )
    inv = linear_combination(
        [-(c / a0) for c in mu.coeffs[1:]], g.orbit(mu.degree - 1)
    )
    if not verify_inverse_pair(g, inv):
        raise InconsistencyError("the inverse read off the minimal polynomial fails")
    return inv


def reversal(p: UniPoly) -> UniPoly:
    """T^d p(1/T), normalized monic; the vanishing polynomial of the
    inverse map.  Needs p(0) != 0."""
    if p.coeffs[0] == 0:
        raise ValueError("reversal needs a nonzero constant term")
    return UniPoly(tuple(reversed(p.coeffs))).monic()


def conjugate(phi: Endo, phi_inv: Endo, g: Endo) -> Endo:
    """phi o g o phi_inv, with the inverse pair checked first."""
    if not verify_inverse_pair(phi, phi_inv):
        raise ValueError("phi and phi_inv are not a verified inverse pair")
    return phi.compose(g).compose(phi_inv)
