"""Exact linear algebra over the rationals.

Small dense routines for matrices given as lists of Fraction rows, plus an
incremental sparse dependence finder used by the minimal-polynomial search,
its counterpart over GF(p), and rational reconstruction to lift residues
back to Q.  No floating point anywhere; every pivot decision is a
deterministic "first nonzero entry" choice.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .endo import SquareMatrixPoly
from .poly import Poly


def mat_det(rows) -> Fraction:
    """Determinant, by the fraction-free elimination of SquareMatrixPoly."""
    entries = [[Poly.constant(1, x) for x in row] for row in rows]
    return SquareMatrixPoly(entries).det().constant_term()


def mat_inverse(rows):
    """Inverse matrix; raises ValueError if singular."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    aug = [a[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != col:
            aug[piv], aug[col] = aug[col], aug[piv]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def mat_vec(rows, vec):
    return [sum((a * v for a, v in zip(row, vec)), Fraction(0)) for row in rows]


class DependenceFinder:
    """Incremental search for a rational linear dependence among vectors.

    Vectors are sparse maps {key: Fraction} over an arbitrary growing key
    space (keys only need a total order).  Vectors are fed in one at a time;
    `add` returns None while they stay independent, and the first time the
    new vector is a combination of the earlier ones it returns that
    combination as {vector_index: coefficient} with coefficient 1 on the
    newest vector.

    Internally keeps a reduced echelon basis, each basis row paired with its
    expression in the original vectors, so the reported dependence is exact
    and needs no back-substitution pass.
    """

    def __init__(self):
        self._rows = []  # (pivot_key, row_dict, combo_dict)
        self._count = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def vectors_seen(self) -> int:
        return self._count

    def add(self, vec):
        work = {k: Fraction(v) for k, v in vec.items() if v}
        combo = {self._count: Fraction(1)}
        self._count += 1
        for pivot, row, rcombo in self._rows:
            f = work.get(pivot)
            if not f:
                continue
            _sub_scaled(work, row, f)
            _sub_scaled(combo, rcombo, f)
        if not work:
            return combo
        pivot = min(work)
        inv = 1 / work[pivot]
        if inv != 1:
            work = {k: v * inv for k, v in work.items()}
            combo = {k: v * inv for k, v in combo.items()}
        # keep the basis fully reduced: clear the new pivot from old rows
        for entry in self._rows:
            f = entry[1].get(pivot)
            if f:
                _sub_scaled(entry[1], work, f)
                _sub_scaled(entry[2], combo, f)
        self._rows.append((pivot, work, combo))
        return None


def _sub_scaled(target: dict, source: dict, factor: Fraction):
    # target -= factor * source, dropping exact zeros
    for k, v in source.items():
        s = target.get(k, 0) - factor * v
        if s:
            target[k] = s
        else:
            target.pop(k, None)


class UnluckyPrime(ArithmeticError):
    """The prime cannot decide: a vector entry has a denominator divisible
    by it, so the vector has no image over GF(p), or a dependence found
    mod p does not lift to the one over Q."""


class ModularDependenceFinder(DependenceFinder):
    """DependenceFinder over GF(p) for one prime p.

    Same contract as the rational finder: `add` returns None while the
    vectors stay independent, then the first dependence as
    {vector_index: residue} with residue 1 on the newest vector.  Entries
    are reduced mod p on the way in; one whose denominator p divides raises
    UnluckyPrime.

    The rank over GF(p) is at most the rank over Q (clear the denominators
    of a rational dependence and reduce it mod p), so the first dependence
    found here comes no later than the rational one.  Whether it is the
    same one only an exact check can tell.

    The basis rows are kept in insertion order, each reduced against the
    rows before it only; reducing a new vector in that order clears every
    pivot, so the back-substitution of the rational finder is not needed.
    """

    def __init__(self, p: int):
        super().__init__()
        self.p = p

    def add(self, vec):
        p = self.p
        work = {}
        for k, v in vec.items():
            num, den = v.numerator, v.denominator
            if den != 1:
                if den % p == 0:
                    raise UnluckyPrime(f"denominator {den} vanishes mod {p}")
                num *= pow(den, -1, p)
            r = num % p
            if r:
                work[k] = r
        combo = {self._count: 1}
        self._count += 1
        for pivot, row, rcombo in self._rows:
            f = work.get(pivot)
            if f:
                _sub_scaled_mod(work, row, f, p)
                _sub_scaled_mod(combo, rcombo, f, p)
        if not work:
            return combo
        pivot = min(work)
        inv = pow(work[pivot], -1, p)
        if inv != 1:
            work = {k: v * inv % p for k, v in work.items()}
            combo = {k: v * inv % p for k, v in combo.items()}
        self._rows.append((pivot, work, combo))
        return None


def _sub_scaled_mod(target: dict, source: dict, factor: int, p: int):
    # target -= factor * source over GF(p), dropping zeros
    for k, v in source.items():
        s = (target.get(k, 0) - factor * v) % p
        if s:
            target[k] = s
        else:
            target.pop(k, None)


def rational_reconstruction(a: int, m: int):
    """The fraction r/t with r = a*t (mod m) and |r|, |t| <= sqrt(m/2),
    or None if there is none (Wang 1981).

    Within that bound the fraction is unique, so every rational whose
    numerator and denominator fit comes back from its residue mod m.
    """
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)
