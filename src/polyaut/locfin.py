"""Locally finite automorphisms: certification, minimal polynomials,
inversion, reversal, conjugation.

A map G is certified locally finite by exhibiting a nonzero univariate
relation a_d G^{od} + ... + a_1 G + a_0 I = 0.  We search for the first
linear dependence among the iterates I, G, G^{o2}, ... flattened to exact
rational vectors over the union monomial basis (one block per coordinate).
Because earlier iterates stay independent until the first dependence, the
relation found is automatically the monic minimal polynomial.

Degree growth is the enemy: for Henon-type maps deg(G^{om}) doubles each
step, and the iterates become astronomically large long before the degree
budget trips.  But an iterate whose degree strictly exceeds every earlier
one cannot take part in a first dependence (compare top homogeneous
parts), so the elimination skips it, and a dependence can only appear
when the degrees stop rising; then the skipped iterates are composed and
fed to the elimination in order.  So the search needs an iterate's degree
long before the iterate, and reads it from a LeadingOrbit (endo), which
proves it from values at one point mod p; a prime that divides a
coefficient or a denominator of the map gives way to the next.

Every prime runs the same search, with the elimination over GF(p).  The
rank mod p is at most the rank over Q, so the first dependence mod p comes
no later than the true first one, and a prime that finds none within the
budget proves there is none.  Of the dependences found, the one at the
latest iterate is kept: a later one replaces it, as every prime before it
was unlucky, an earlier one is skipped, and one at the same iterate is
combined with it by the Chinese remainder theorem.  The coefficients are
lifted to Q by rational reconstruction, and the lift is returned only
after the exact Fraction check that it vanishes on G: a relation that
vanishes at an index no later than the true first dependence is the
minimal polynomial.  A prime that cannot decide gives way to the next one
below it.  Primes are made on demand, and a bound on the minors of the
iterates says when enough are combined (see _limit).

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

from .endo import Endo, LeadingOrbit, linear_combination, verify_inverse_pair
from .linalg import DependenceFinder, UnluckyPrime, rational_reconstruction
from .poly import NEG_INF, InconsistencyError, Rational, Record, is_int


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

        den = lcm(*(c.denominator for c in self.coeffs))
        terms = [((e,), c.numerator * (den // c.denominator))
                 for e, c in enumerate(self.coeffs) if c]
        return _render_terms(reversed(terms), den, ["T"])

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
    for a zero iterate); budget_used is (iterates examined, most of them
    predicted and not composed (endo.LeadingOrbit), max degree encountered).
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


def _flatten(g: Endo) -> tuple:
    """g as one vector over the union monomial basis, in the form
    DependenceFinder.add takes: ({(i, mono): int numerator}, den), with den
    the lcm of the coordinates' denominators."""
    den = lcm(*(c.den for c in g.coords))
    vec = {}
    for i, c in enumerate(g.coords):
        s = den // c.den
        vec.update({(i, mono): v * s for mono, v in c.num.items()})
    return vec, den


def _report(verdict: str, mu, orbit: LeadingOrbit) -> LFReport:
    # the report after the last iterate the search examined
    degrees = tuple(max(lead[0]) for lead in orbit.leads)
    top = max((d for d in degrees if d != NEG_INF), default=0)
    return LFReport(verdict, mu, degrees, (len(degrees) - 1, top))


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
    dependence); it never asserts that g is not locally finite.  Each
    prime runs _search, and their dependences combine as the module
    docstring says.
    """
    if not is_int(max_iter) or max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer, got {max_iter!r}")
    if not is_int(max_deg) or max_deg < 1:
        raise ValueError(f"max_deg must be a positive integer, got {max_deg!r}")

    kept = -1  # the iterate of the kept dependence
    for p in _primes():
        try:
            orbit, m, combo = _search(g, max_iter, max_deg, p)
        except UnluckyPrime:
            continue  # the next prime searches again, on the same orbit
        if combo is None:
            return _report("Unknown", None, orbit)
        if m < kept:
            continue
        if m > kept:  # every prime kept so far was unlucky
            kept, modulus, combined, limit = m, p, 1, None
            residues = [combo.get(j, 0) for j in range(m + 1)]
        else:
            inv = pow(modulus, -1, p)
            residues = [
                r + modulus * ((combo.get(j, 0) - r) * inv % p)
                for j, r in enumerate(residues)
            ]
            modulus *= p
            combined += 1
        if combined & (combined - 1):
            continue  # reconstruct at power-of-two counts of primes
        coeffs = [rational_reconstruction(r, modulus) for r in residues]
        if None not in coeffs:
            mu = UniPoly(coeffs)
            if verify_vanishing(g, mu):
                return _report("CertifiedLF", mu, orbit)
        if limit is None:
            limit = _limit(g, m)
        if modulus > limit:
            raise InconsistencyError("certified relation failed to vanish")


def _search(g: Endo, max_iter: int, max_deg: int, p: int) -> tuple:
    """The lazy-degree search for the first dependence among g's iterates
    mod p: (orbit, m, combo), with orbit the LeadingOrbit advanced to
    iterate m, the one the search examines last, and combo the dependence
    p found when the search added iterate m, or None when the budget ran
    out at m.  Raises UnluckyPrime when p cannot decide."""
    finder = DependenceFinder(p)
    # den is the lcm of the reduced denominators, so p divides one of them
    # iff it divides den, and otherwise a reduced numerator iff it divides v
    if any(c.den % p == 0 or any(v % p == 0 for v in c.num.values()) for c in g.coords):
        raise UnluckyPrime(f"{p} divides a coefficient or a denominator of the map")
    orbit = LeadingOrbit(g, p)
    running_max = 1
    added = 0  # iterates 0..added-1 sit in the finder

    for m in range(1, max_iter + 1):
        d = max(orbit.advance())
        if d > max_deg:
            return orbit, m, None
        if d > running_max:
            # strictly growing degree: provably independent of all earlier
            # iterates, elimination safely skipped
            running_max = d
            continue

        for k in range(added, m + 1):
            combo = finder.add(*_flatten(orbit.iterate(k)))
            if combo is not None and k < m:
                # impossible over Q: backfilled iterates had strictly
                # maximal degree when they were skipped
                raise UnluckyPrime(
                    f"dependence mod {p} during backfill at iterate {k} of {m}")
        added = m + 1
        if combo is not None:
            return orbit, m, combo
    return orbit, max_iter, None


def _limit(g: Endo, m: int) -> int:
    """A modulus past which the CRT lift of a dependence at iterate m
    vanishes, if every combined prime found its first dependence there.

    Let D_j clear the denominators of iterate j, w_j = D_j v_j its integer
    vector, and H = max D_j * prod_j (floor|w_j| + 1).  By Hadamard's
    inequality, no minor of (w_0 .. w_m) exceeds H.  Iterates 0..m-1 are
    independent mod a combined prime, so over Q.  Let M be the product of
    the combined primes.
      * If v_0..v_m are independent, each combined prime divides a nonzero
        (m+1)-minor, so M <= H.
      * Otherwise Cramer's rule, on m rows whose minor is a unit mod a
        combined prime q, gives mu_j = D_j a_j / (D_m a_m) with m-minors
        a_j: numerators and denominators are at most H, and q divides no
        denominator, so the residues are mu mod M and reconstruction
        returns mu once M > 2 H^2.
    So the limit is 2 H^2; lf_certify computes it when a reconstruction
    first fails.
    """
    vectors = [_flatten(it) for it in g.orbit(m)]
    height = max(den for _, den in vectors)
    for vec, _ in vectors:
        height *= 1 + isqrt(sum(v * v for v in vec.values()))
    return 2 * height**2


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
    no inverse, is checked for vanishing on its own, and one that vanishes
    raises ValueError too: it proves nothing about g unless it is minimal
    (T^2 - T vanishes on the identity).
    """
    a0 = mu.coeffs[0]
    if a0 == 0 or mu.degree == 0:
        if not verify_vanishing(g, mu):
            raise ValueError("the given polynomial does not vanish on the map")
        raise ValueError(
            "the vanishing polynomial has zero constant term, so no inverse can be read off it"
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
