"""Exact linear algebra over the rationals.

Small dense routines for matrices given as lists of Fraction rows, plus an
incremental sparse dependence finder used by the minimal-polynomial search,
its counterpart over GF(p), and rational reconstruction to lift residues
back to Q.  No floating point anywhere; every pivot decision is a
deterministic "first nonzero entry" choice: in key order over Q, in the
order keys first appear over GF(p).

The GF(p) finder packs each row into one int of fixed-width fields, so a
row operation is one big-int multiply-add instead of a loop over entries.
A field holds 2*bits(p) + 64 bits, rounded up to whole bytes: entries
stay below p and each operation adds less than p^2 to a field, so 2^64
operations cannot carry from one field into the next.
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
    """DependenceFinder over GF(p) for one prime p, on packed integer rows.

    Same contract as the rational finder: `add` returns None while the
    vectors stay independent, then the first dependence as
    {vector_index: residue} with residue 1 on the newest vector.  Entries
    are reduced mod p on the way in, with one cached inverse per
    denominator; one whose denominator p divides raises UnluckyPrime.

    The rank over GF(p) is at most the rank over Q (clear the denominators
    of a rational dependence and reduce it mod p), so the first dependence
    found here comes no later than the rational one.  Whether it is the
    same one only an exact check can tell.

    Each basis row, and its combination of the original vectors, is one
    int of fixed-width fields (the width is argued in the module
    docstring): a key gets the next field the first time it appears with
    a nonzero residue, and vector j's coefficient sits in field j of the
    combination.  A row operation is one multiply-add,
    work += (p - f) * row with stored fields below p; residues are taken,
    and zeros found, once per `add`.

    The basis rows are kept in insertion order, each reduced against the
    rows before it only; reducing a new vector in that order clears every
    pivot, so the back-substitution of the rational finder is not needed.
    The pivot of a row is its first nonzero field in first-seen key order.
    The first dependence is unique, so the pivot order cannot change it.
    """

    def __init__(self, p: int):
        super().__init__()
        self.p = p
        self._size = (2 * p.bit_length() + 64 + 7) // 8  # bytes per field
        self._slots = {}  # key -> field, in first-seen order
        self._inverses = {}  # denominator -> its inverse mod p

    def add(self, vec):
        p, size, inverses, slots = self.p, self._size, self._inverses, self._slots
        residues = []
        for k, v in vec.items():
            num, den = v.numerator, v.denominator
            if den != 1:
                inv = inverses.get(den)
                if inv is None:
                    if den % p == 0:
                        raise UnluckyPrime(f"denominator {den} vanishes mod {p}")
                    inv = inverses[den] = pow(den, -1, p)
                num *= inv
            r = num % p
            if r:
                residues.append((k, r))
        for k, _ in residues:
            slots.setdefault(k, len(slots))
        fields = [0] * len(slots)
        for k, r in residues:
            fields[slots[k]] = r
        work = _pack(fields, size)
        width = 8 * size
        combo = 1 << (self._count * width)
        self._count += 1
        mask = (1 << width) - 1
        for shift, row, rcombo in self._rows:
            f = (work >> shift & mask) % p
            if f:
                work += (p - f) * row
                combo += (p - f) * rcombo
        fields = _unpack_mod(work, len(slots), size, p)
        coeffs = _unpack_mod(combo, self._count, size, p)
        pivot = next((j for j, r in enumerate(fields) if r), None)
        if pivot is None:
            return {j: c for j, c in enumerate(coeffs) if c}
        inv = pow(fields[pivot], -1, p)
        self._rows.append((
            pivot * width,
            _pack([r * inv % p for r in fields], size),
            _pack([c * inv % p for c in coeffs], size),
        ))
        return None


def _pack(values: list, size: int) -> int:
    # one field of size bytes per value, the first value lowest
    return int.from_bytes(
        b"".join(v.to_bytes(size, "little") for v in values), "little"
    )


def _unpack_mod(packed: int, count: int, size: int, p: int) -> list:
    # the residues mod p of the first count fields
    data = packed.to_bytes(count * size, "little")
    return [
        int.from_bytes(data[at:at + size], "little") % p
        for at in range(0, count * size, size)
    ]


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
