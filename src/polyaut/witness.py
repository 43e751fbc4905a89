"""Conjugation witnesses: certificates that specific automorphisms lie in
the normal closure of the diagonal subgroup.

Each witness packages a target map F together with a conjugator, its
inverse, and a diagonal map D such that

    (conjugator^{-1} o D o conjugator) o D^{-1} = F,

exhibiting F as a product of two conjugates of diagonal automorphisms.
Three constructions are provided: doubling one coordinate (any elementary
F, conjugated by F itself), the determinant-one variant (conjugator is an
elementary built from a geometric-series trick, diagonal is (a, 1/a)), and
the degree-5 wild automorphism in dimension 3 conjugating the diagonal
(1/4, 1/2, 1).

The certificate is a property of the type: constructing a Witness checks
its invariants exactly, once, and raises InconsistencyError on the first
one that fails, so every Witness that exists is verified, and export does
no further work.  The constructors check only what that check does not
imply; each says which transcript line rests on which check.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .endo import Endo, verify_inverse_pair
from .poly import InconsistencyError, Poly, Rational, Record, VerificationError, is_int
from .tame import Diagonal, Elementary, _unit_exponent, gen_to_endo, invert_generator
from .textio import MapDocument, render_map

KINDS = ("Obs2", "Obs3", "Obs4")


class Witness(Record):
    """A verified membership certificate: kind is one of KINDS, the four
    maps are Endo, and transcript is a tuple of human-readable lines,
    metadata only (default empty).

    Construction runs the checks of verify_witness: one dimension, the
    conjugator and its inverse are inverse, the diagonal is diagonal (with
    determinant 1 for Obs3), and the chain recomposes to the target.  The
    first that fails raises InconsistencyError.  Copies and pickles are
    rebuilt through the constructor, so they are checked too.
    """

    __slots__ = ("kind", "target", "conjugator", "conjugator_inverse", "diagonal",
                 "transcript")
    _defaults = {"transcript": ()}

    def __post_init__(self):
        failure = _first_failure(self)
        if failure is not None:
            raise InconsistencyError(f"not a witness: {failure}")

    def to_json_dict(self) -> dict:
        """The witness as JSON values; "verified" is true because the
        constructor checked it."""
        return {
            "kind": self.kind,
            "target": MapDocument(self.target).to_json_dict(),
            "conjugator": MapDocument(self.conjugator).to_json_dict(),
            "conjugator_inverse": MapDocument(self.conjugator_inverse).to_json_dict(),
            "diagonal": MapDocument(self.diagonal).to_json_dict(),
            "verified": True,
            "transcript": list(self.transcript),
        }


def _diagonal_entries(g: Endo):
    """The scaling vector of a diagonal automorphism, or None."""
    entries = []
    for l, p in enumerate(g.coords):
        v = p.num.get(_unit_exponent(g.n, l))
        if v is None or len(p.num) != 1:
            return None
        entries.append(Fraction(v, p.den))
    return tuple(entries)


def _first_failure(w) -> str | None:
    """The first witness invariant that the fields of w break, or None.
    Four compositions: one for the inverse pair, three for the chain."""
    if w.kind not in KINDS:
        return f"unknown kind {w.kind!r}"
    if len({g.n for g in (w.target, w.conjugator, w.conjugator_inverse,
                          w.diagonal)}) != 1:
        return "the four maps do not share one dimension"
    if not verify_inverse_pair(w.conjugator, w.conjugator_inverse):
        return "the conjugator and its claimed inverse are not inverse"
    entries = _diagonal_entries(w.diagonal)
    if entries is None:
        return "the diagonal is not a diagonal map"
    if w.kind == "Obs3" and prod(entries) != 1:
        return "an Obs3 diagonal must have determinant 1"
    d_inv = gen_to_endo(invert_generator(Diagonal(entries)))
    chain = w.conjugator_inverse.compose(w.diagonal).compose(w.conjugator)
    if chain.compose(d_inv) != w.target:
        return "(C^-1 o D o C) o D^-1 does not recompose to the target"
    return None


def verify_witness(w: Witness) -> bool:
    """Recheck all witness invariants by exact computation, as the
    constructor did: True for every Witness, since none exists unchecked."""
    return _first_failure(w) is None


# ----------------------------------------------------------------------
# construction: doubling one coordinate

def witness_obs2(e: Elementary) -> Witness:
    """Conjugate D = (..., 2 X_i, ...) by the elementary F itself.

    F^{-1} o D o F lands on (..., 2 X_i + g, ...), so composing with
    D^{-1} recovers F exactly.  Nothing is composed here: the Witness
    check proves the chain, so F^{-1} o D o F = F o D, and F o D is the
    displayed closed form because g is free of X_i.
    """
    n = e.n
    f = gen_to_endo(e)
    d = gen_to_endo(Diagonal(tuple(2 if k == e.i - 1 else 1 for k in range(n))))
    inner = list(Poly.variables(n))
    inner[e.i - 1] = 2 * inner[e.i - 1] + e.g
    transcript = (
        f"F = {render_map(f)}",
        f"D = {render_map(d)}",
        f"F^-1 o D o F = {render_map(Endo(inner))}",
        f"(F^-1 o D o F) o D^-1 = {render_map(f)}",
        "target equals F: ok",
    )
    return Witness("Obs2", f, f, gen_to_endo(invert_generator(e)), d, transcript)


# ----------------------------------------------------------------------
# construction: determinant-one conjugation

def witness_obs3(e: Elementary, a: Rational = 2, j: int | None = None) -> Witness:
    """Exhibit an elementary as (E^{-1} o D o E) o D^{-1} with det D = 1.

    D scales X_i by a and X_j by 1/a; writing g = sum_r g_r X_j^r with
    g_r free of X_i and X_j, the conjugating elementary adds
    h = sum_r (a^{1+r} - 1)^{-1} g_r X_j^r to slot i, chosen so that
    a*(h o D^{-1}) - h telescopes back to g.  Both transcript checks rest
    on the Witness check: it proves the chain, and its Obs3 rule gives
    det D = 1, so D^{-1} has determinant 1 too; E and E^{-1} are
    elementaries, whose Jacobian determinant is 1.
    """
    n = e.n
    if n < 2:
        raise ValueError("need a second variable to balance the determinant")
    a = Fraction(a)
    if a in (0, 1, -1):
        raise ValueError("a must not be 0, 1, or -1 (no roots of unity)")
    if j is None:
        j = 1 if e.i != 1 else 2
    if not is_int(j) or not 1 <= j <= n or j == e.i:
        raise ValueError(f"j must be an index distinct from i={e.i}, got {j!r}")

    # per-term geometric damping: the X_j-degree r term picks up a^{1+r}
    # around the conjugation loop
    h = Poly(n, {
        mono: c / (a ** (1 + mono[j - 1]) - 1) for mono, c in e.g.terms.items()
    })
    f = gen_to_endo(e)
    conjugator = Elementary(e.i, h)
    e_endo = gen_to_endo(conjugator)
    d = gen_to_endo(Diagonal(tuple(
        a if k == e.i - 1 else (1 / a if k == j - 1 else Fraction(1))
        for k in range(n)
    )))
    transcript = (
        f"F = {render_map(f)}",
        f"a = {a}, j = {j}",
        f"E = {render_map(e_endo)}",
        f"D = {render_map(d)}",
        "all factors have Jacobian determinant 1: ok",
        "(E^-1 o D o E) o D^-1 equals F: ok",
    )
    return Witness("Obs3", f, e_endo, gen_to_endo(invert_generator(conjugator)), d, transcript)


# ----------------------------------------------------------------------
# construction: the wild degree-5 map

def nagata() -> Endo:
    """(X - 2Y(Y^2+XZ) - Z(Y^2+XZ)^2, Y + Z(Y^2+XZ), Z)."""
    x, y, z = Poly.variables(3)
    s = y**2 + x * z
    return Endo([x - 2 * y * s - z * s**2, y + z * s, z])


def nagata_inverse() -> Endo:
    x, y, z = Poly.variables(3)
    s = y**2 + x * z
    return Endo([x + 2 * y * s - z * s**2, y - z * s, z])


def witness_obs4() -> Witness:
    """The wild map as (F^{-1} o L o F) o L^{-1} with L = (X/4, Y/2, Z).

    Five transcript lines.  Checked here: the quadric Y^2+XZ is a
    semi-invariant of L with factor 1/4, and det J(F) = 1.  The Witness
    check proves that F and its claimed inverse are inverse, and that the
    chain returns F, so F^{-1} o L o F = F o L; the closed form is checked
    here as displayed o L^{-1} = F, one composition with a linear map,
    which makes it F o L as well.
    """
    x, y, z = Poly.variables(3)
    s = y**2 + x * z
    f = nagata()
    l = gen_to_endo(Diagonal((Fraction(1, 4), Fraction(1, 2), Fraction(1))))
    if s.substitute(l.coords) != Fraction(1, 4) * s:
        raise VerificationError("sigma o L != sigma/4")
    displayed = Endo([
        Fraction(1, 4) * x - Fraction(1, 4) * s * y - Fraction(1, 16) * s**2 * z,
        Fraction(1, 2) * y + Fraction(1, 4) * s * z,
        z,
    ])
    if displayed.compose(gen_to_endo(Diagonal((4, 2, 1)))) != f:
        raise VerificationError("F^-1 o L o F does not match the closed form")
    if f.jacobian_det() != Poly.constant(3, 1):
        raise VerificationError("det J(F) != 1")
    checks = (
        "sigma o L = (1/4)*sigma: ok",
        "F o F^-1 = F^-1 o F = identity: ok",
        f"F^-1 o L o F = {render_map(displayed)}: ok",
        "(F^-1 o L o F) o L^-1 = F: ok",
        "det J(F) = 1: ok",
    )
    return Witness("Obs4", f, f, nagata_inverse(), l, checks)
