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
(1/4, 1/2, 1).  Constructors verify every claimed identity exactly and
raise VerificationError on any failure, so a constructed witness is a
checked certificate; verify_witness rechecks one from scratch.
"""

from __future__ import annotations

from fractions import Fraction

from .endo import Endo, verify_inverse_pair
from .poly import Poly, Rational, Record, VerificationError
from .tame import Diagonal, Elementary, gen_to_endo
from .textio import MapDocument, render_map

KINDS = ("Obs2", "Obs3", "Obs4")


class Witness(Record):
    """A verified membership certificate: kind is one of KINDS, the four
    maps are Endo, and transcript is a tuple of human-readable lines,
    metadata only (default empty)."""

    __slots__ = ("kind", "target", "conjugator", "conjugator_inverse", "diagonal",
                 "transcript")
    _defaults = {"transcript": ()}

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": MapDocument.from_endo(self.target).to_json_dict(),
            "conjugator": MapDocument.from_endo(self.conjugator).to_json_dict(),
            "conjugator_inverse": MapDocument.from_endo(
                self.conjugator_inverse
            ).to_json_dict(),
            "diagonal": MapDocument.from_endo(self.diagonal).to_json_dict(),
            "verified": verify_witness(self),
            "transcript": list(self.transcript),
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict())


def _diagonal_entries(g: Endo):
    """The scaling vector of a diagonal automorphism, or None."""
    entries = []
    for i, p in enumerate(g.coords):
        mono = tuple(1 if j == i else 0 for j in range(g.n))
        if set(p.terms) != {mono}:
            return None
        entries.append(p.terms[mono])
    return tuple(entries)


def _reciprocal_diagonal(entries) -> Endo:
    n = len(entries)
    return Endo([Poly.variable(n, i + 1) * (1 / entries[i]) for i in range(n)])


def verify_witness(w: Witness) -> bool:
    """Recheck all witness invariants by exact computation."""
    if w.kind not in KINDS:
        return False
    maps = (w.target, w.conjugator, w.conjugator_inverse, w.diagonal)
    if len({g.n for g in maps}) != 1:
        return False
    if not verify_inverse_pair(w.conjugator, w.conjugator_inverse):
        return False
    entries = _diagonal_entries(w.diagonal)
    if entries is None:
        return False
    if w.kind == "Obs3":
        det = Fraction(1)
        for c in entries:
            det *= c
        if det != 1:
            return False
    chain = w.conjugator_inverse.compose(w.diagonal).compose(w.conjugator)
    return chain.compose(_reciprocal_diagonal(entries)) == w.target


# ----------------------------------------------------------------------
# construction: doubling one coordinate

def witness_obs2(e: Elementary) -> Witness:
    """Conjugate D = (..., 2 X_i, ...) by the elementary F itself.

    F^{-1} o D o F lands on (..., 2 X_i + g, ...), so composing with
    D^{-1} recovers F exactly.
    """
    n = e.n
    f = gen_to_endo(e)
    f_inv = gen_to_endo(Elementary(e.i, -e.g))
    d = gen_to_endo(Diagonal(tuple(2 if k == e.i - 1 else 1 for k in range(n))))

    inner = f_inv.compose(d).compose(f)
    expected_coords = list(Poly.variables(n))
    expected_coords[e.i - 1] = 2 * expected_coords[e.i - 1] + e.g
    if inner != Endo(expected_coords):
        raise VerificationError("conjugate does not have the 2*X_i + g shape")
    target = inner.compose(_reciprocal_diagonal(_diagonal_entries(d)))
    if target != f:
        raise VerificationError("witness chain does not recompose to F")

    transcript = (
        f"F = {render_map(f)}",
        f"D = {render_map(d)}",
        f"F^-1 o D o F = {render_map(inner)}",
        f"(F^-1 o D o F) o D^-1 = {render_map(target)}",
        "target equals F: ok",
    )
    return Witness("Obs2", f, f, f_inv, d, transcript)


# ----------------------------------------------------------------------
# construction: determinant-one conjugation

def witness_obs3(e: Elementary, a: Rational = 2, j: int | None = None) -> Witness:
    """Exhibit an elementary as (E^{-1} o D o E) o D^{-1} with det D = 1.

    D scales X_i by a and X_j by 1/a; writing g = sum_r g_r X_j^r with
    g_r free of X_i and X_j, the conjugating elementary adds
    h = sum_r (a^{1+r} - 1)^{-1} g_r X_j^r to slot i, chosen so that
    a*(h o D^{-1}) - h telescopes back to g.  Every factor has Jacobian
    determinant 1.
    """
    n = e.n
    if n < 2:
        raise ValueError("need a second variable to balance the determinant")
    a = Fraction(a)
    if a in (0, 1, -1):
        raise ValueError("a must not be 0, 1, or -1 (no roots of unity)")
    if j is None:
        j = 1 if e.i != 1 else 2
    if not 1 <= j <= n or j == e.i:
        raise ValueError(f"j must be an index distinct from i={e.i}, got {j}")

    # per-term geometric damping: the X_j-degree r term picks up a^{1+r}
    # around the conjugation loop
    h = Poly(n, {
        mono: c / (a ** (1 + mono[j - 1]) - 1) for mono, c in e.g.terms.items()
    })
    conj = Elementary(e.i, h)
    f = gen_to_endo(e)
    e_endo = gen_to_endo(conj)
    e_inv = gen_to_endo(Elementary(e.i, -h))
    d = gen_to_endo(Diagonal(tuple(
        a if k == e.i - 1 else (1 / a if k == j - 1 else Fraction(1))
        for k in range(n)
    )))

    one = Poly.constant(n, 1)
    for factor in (e_endo, e_inv, d, _reciprocal_diagonal(_diagonal_entries(d))):
        if factor.jacobian_det() != one:
            raise VerificationError("factor has Jacobian determinant != 1")
    target = e_inv.compose(d).compose(e_endo).compose(
        _reciprocal_diagonal(_diagonal_entries(d))
    )
    if target != f:
        raise VerificationError("witness chain does not recompose to F")

    transcript = (
        f"F = {render_map(f)}",
        f"a = {a}, j = {j}",
        f"E = {render_map(e_endo)}",
        f"D = {render_map(d)}",
        "all factors have Jacobian determinant 1: ok",
        "(E^-1 o D o E) o D^-1 equals F: ok",
    )
    return Witness("Obs3", f, e_endo, e_inv, d, transcript)


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

    Five exact checks: the quadric Y^2+XZ is a semi-invariant of L with
    factor 1/4; F and its claimed inverse really are mutually inverse;
    the middle conjugate has the displayed closed form; the full chain
    returns F; and det J(F) = 1.
    """
    x, y, z = Poly.variables(3)
    s = y**2 + x * z
    f = nagata()
    f_inv = nagata_inverse()
    l = gen_to_endo(Diagonal((Fraction(1, 4), Fraction(1, 2), Fraction(1))))
    l_inv = _reciprocal_diagonal(_diagonal_entries(l))
    checks = []

    if s.substitute(l.coords) != Fraction(1, 4) * s:
        raise VerificationError("sigma o L != sigma/4")
    checks.append("sigma o L = (1/4)*sigma: ok")

    if not verify_inverse_pair(f, f_inv):
        raise VerificationError("F and F^-1 are not inverse")
    checks.append("F o F^-1 = F^-1 o F = identity: ok")

    inner = f_inv.compose(l).compose(f)
    displayed = Endo([
        Fraction(1, 4) * x - Fraction(1, 4) * s * y - Fraction(1, 16) * s**2 * z,
        Fraction(1, 2) * y + Fraction(1, 4) * s * z,
        z,
    ])
    if inner != displayed:
        raise VerificationError("F^-1 o L o F does not match the closed form")
    checks.append(f"F^-1 o L o F = {render_map(displayed)}: ok")

    target = inner.compose(l_inv)
    if target != f:
        raise VerificationError("(F^-1 o L o F) o L^-1 != F")
    checks.append("(F^-1 o L o F) o L^-1 = F: ok")

    if f.jacobian_det() != Poly.constant(3, 1):
        raise VerificationError("det J(F) != 1")
    checks.append("det J(F) = 1: ok")

    return Witness("Obs4", f, f, f_inv, l, tuple(checks))
