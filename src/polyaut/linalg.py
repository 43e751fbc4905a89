"""Exact linear algebra over the rationals.

The incremental sparse dependence finder over GF(p) used by the
minimal-polynomial search, and rational reconstruction to lift its residues
back to Q, plus two small dense routines for matrices given as lists of
Fraction rows: the determinant (a scalar Bareiss elimination over the ints)
and the inverse.  No library module calls the dense two, since an affine
map is checked, inverted and expanded by its own integer elimination in
tame; they stay as the Fraction references of the tests and the routines
the benchmark's tracer (perfbench) times by name.  No floating point
anywhere; every pivot decision is a deterministic "first nonzero entry"
choice, in the order keys first appear.  It all works on Fractions and
ints, so no other polyaut module is imported.

The finder takes each vector as integer numerators over one
denominator, the form a Poly keeps its coefficients in, so reducing a
vector mod p costs one inverse, of that denominator, and one product per
entry; no entry is a Fraction.  It packs each row into one int of
fixed-width fields, so a row operation is one big-int multiply-add instead
of a loop over entries.  A field holds 2*bits(p) + 64 bits, rounded up to
whole bytes: entries stay below p and each operation adds less than p^2
to a field, so 2^64 operations cannot carry from one field into the next.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod


def mat_det(rows) -> Fraction:
    """Determinant, by fraction-free (Bareiss) elimination over the ints,
    with no polynomial arithmetic.

    Each row is scaled to integers by the lcm of its denominators.  Each
    step eliminates the first column of what is left and divides exactly
    by the previous pivot, so every entry stays a minor of the scaled
    matrix; a zero column gives 0.  Not called in the library: it is a
    reference for the tests, and the benchmark's tracer wraps it by name.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square and nonempty")
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    m = [[x.numerator * (s // x.denominator) for x in row]
         for row, s in zip(rows, scales)]
    sign, prev = 1, 1
    while len(m) > 1:
        piv = next((r for r, row in enumerate(m) if row[0]), None)
        if piv is None:
            return Fraction(0)
        if piv:
            m[0], m[piv] = m[piv], m[0]
            sign = -sign
        top = m[0]
        p = top[0]
        m = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
             for row in m[1:]]
        prev = p
    return Fraction(sign * m[0][0], prod(scales))


def mat_inverse(rows):
    """Inverse matrix, by Gauss-Jordan elimination on Fractions; raises
    ValueError if singular.  Not called in the library: it is a reference
    for the tests, and the benchmark's tracer wraps it by name."""
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


class UnluckyPrime(ArithmeticError):
    """The prime cannot decide on its own: a vector entry has a
    denominator divisible by it, so the vector has no image over GF(p).
    The minimal-polynomial search also raises it when p divides a
    coefficient of the map, or finds a dependence impossible over Q; a
    prime whose first dependence is merely too early is skipped there."""


class DependenceFinder:
    """Incremental search for a linear dependence among vectors over GF(p),
    for one prime p, on packed integer rows.

    A vector is fed in one at a time as integer numerators over one
    denominator: add(vec, den) takes vec / den, with vec a sparse map
    {key: int}.  `add` returns None while they stay independent mod p,
    then the first dependence as {vector_index: residue} with residue 1 on
    the newest vector.  Entries are reduced mod p on the way in, with one
    inverse per vector, of den; a den that p divides raises UnluckyPrime.
    The rank mod p is at most the rank over Q (clear the denominators of a
    rational dependence and reduce it), so the first dependence found here
    comes no later than the rational one; whether it is the same one only
    an exact check can tell.

    A key gets the next field of a row the first time it appears with a
    nonzero residue, and vector j's coefficient sits in field j of a
    row's combination.  A row operation is one multiply-add,
    work += (p - f) * row with stored fields below p; residues are taken,
    and zeros found, once per `add`.  Rows are kept in insertion order,
    each reduced against the rows before it only, which clears every pivot
    of a new vector without back-substitution.  The pivot of a row is its
    first nonzero field; the first dependence is unique, so the pivot
    order cannot change it.
    """

    def __init__(self, p: int):
        self.p = p
        self._rows = []  # (pivot field shift, packed row, packed combination)
        self._count = 0
        self._size = (2 * p.bit_length() + 64 + 7) // 8  # bytes per field
        self._slots = {}  # key -> field, in first-seen order

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def vectors_seen(self) -> int:
        return self._count

    def add(self, vec, den):
        p, size, slots = self.p, self._size, self._slots
        if den % p == 0:
            raise UnluckyPrime(f"denominator {den} vanishes mod {p}")
        inv = pow(den, -1, p)
        residues = [(k, r) for k, v in vec.items() if (r := v * inv % p)]
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
