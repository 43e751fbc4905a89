"""Polynomial endomorphisms of affine n-space.

An endomorphism is an n-tuple of dimension-n polynomials.  Composition is
total substitution: (F o G)_i = F_i(G_1, ..., G_n), so F o G means "apply G
first".  Everything here is exact; two endomorphisms are equal iff their
canonical coordinate polynomials are identical.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .poly import (
    NEG_INF, InconsistencyError, Poly, Rational, Record, _convolve, _divide_packed, _normal,
    _pack, _shifts, _substitute, _unpack, is_int,
)


class Endo(Record):
    """A polynomial endomorphism G = (G_1, ..., G_n) of k^n."""

    __slots__ = ("n", "coords", "_orbit")
    _fields = ("coords",)

    def __post_init__(self):
        coords = tuple(self.coords)
        if not coords:
            raise ValueError("an endomorphism needs at least one coordinate")
        n = coords[0].n
        if len(coords) != n or any(p.n != n for p in coords):
            raise ValueError(
                f"need exactly n coordinates of dimension n, got {len(coords)} "
                f"of dimensions {[p.n for p in coords]}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_orbit", None)  # not a field: copies drop it

    @classmethod
    def identity(cls, n: int) -> "Endo":
        return cls(Poly.variables(n))

    def __repr__(self):
        return f"Endo({list(self.coords)!r})"

    def __str__(self):
        from .textio import render_map

        return render_map(self)

    @property
    def is_zero_map(self) -> bool:
        return all(p.is_zero for p in self.coords)

    def is_identity(self) -> bool:
        return self == Endo.identity(self.n)

    # ------------------------------------------------------------------

    def compose(self, other: "Endo") -> "Endo":
        """Composition self o other (other is applied first)."""
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return Endo(_substitute(self.coords, other.coords))

    def iterate(self, m: int) -> "Endo":
        """The m-th iterate; iterate(0) is the identity.  Taken from the
        orbit, so the earlier iterates are kept on the map too."""
        if not is_int(m) or m < 0:
            raise ValueError(f"iteration count must be a non-negative integer, got {m!r}")
        return self.orbit(m)[m]

    def orbit(self, k: int) -> tuple:
        """The iterates (identity, self, ..., self^{ok}).

        Iterate 1 is the map itself; each later iterate is composed once
        per map object and kept on it, so the callers that need the same
        iterates (certification, vanishing, minimality, inversion) share
        them; they are freed with the map.
        """
        orbit = self._orbit
        if orbit is None:
            orbit = [Endo.identity(self.n)]
            object.__setattr__(self, "_orbit", orbit)
        while len(orbit) <= k:
            # iterate 1 as a copy of the map, which has no orbit, so that
            # the orbit holds no reference cycle
            orbit.append(self.compose(orbit[-1]) if len(orbit) > 1 else Endo(self.coords))
        return tuple(orbit[:k + 1])

    def degree(self):
        """max_i deg G_i; NEG_INF for the zero map."""
        return max(p.total_degree() for p in self.coords)

    def jacobian_matrix(self) -> "SquareMatrixPoly":
        """The matrix of partial derivatives (dG_i / dx_j)."""
        n = self.n
        return SquareMatrixPoly(
            [[p.partial_derivative(j) for j in range(1, n + 1)] for p in self.coords]
        )

    def jacobian_det(self) -> Poly:
        return self.jacobian_matrix().det()


#: A prime above 2^61, the largest below 2^64 divided by the golden ratio.
_BASE = 0x9E3779B97F4A7BB9


class LeadingOrbit:
    """The proved degrees of a map g's iterates, read from one point mod p.

    Per iterate and coordinate it keeps the degree and the value of the
    top form at x = (b, b^2, ..., b^n), b = _BASE mod p, which has no
    coordinate 0 for a prime p below _BASE.  Coordinate i of g o h is
    g_i(h_1, ..., h_n): the terms of g_i of maximal degree d under the
    degrees of h, with each h_j replaced by its top form, sum to the part
    of degree d, and their value at h's values is that part's value at x.
    A nonzero value proves the part nonzero, so it is the top form and d
    the exact degree: no degree rests on chance.  A zero value means a
    true cancellation or a zero at x, and that iterate is composed in
    full, in g's orbit, and read off.  So a Henon map composes no iterate.

    advance() returns the next iterate's degree vector; leads holds the
    degrees and values of iterates 0, 1, ... so far.  iterate(k) returns
    g^k once the iterates composed up to k match their predicted degrees,
    and raises InconsistencyError otherwise.

    Precondition: p divides no coefficient and no denominator of g.  The
    values need g's coefficients mod p, and a coefficient that vanishes
    mod p zeroes the values it multiplies (3 does in (Y, X + 3*Y^2) mod
    3), so every iterate would be composed.  The caller refuses such a p.
    """

    def __init__(self, g: Endo, p: int):
        self.g, self.p = g, p
        self.point = tuple(pow(_BASE, j, p) for j in range(1, g.n + 1))
        self._terms = [_mod(c, p) for c in g.coords]  # g's coefficients mod p
        self.leads = [((1,) * g.n, self.point)]  # per iterate, as lead gives it
        self._checked = 1  # iterates 0.._checked-1 are composed and checked

    def lead(self, h: Endo) -> tuple:
        """The degrees of h's coordinates, and the values of their top forms
        at the point, read off h itself."""
        return tuple(zip(*(_top(_mod(c, self.p), (1,) * h.n, self.point, self.p)
                           for c in h.coords)))

    def predict(self, degrees: tuple, values: tuple):
        """lead(g o h) from lead(h) = (degrees, values), or None when a
        value is zero: a cancellation, or a zero at the point, which only
        full composition can tell apart."""
        tops = [_top(terms, degrees, values, self.p) for terms in self._terms]
        return None if any(d != NEG_INF and not v for d, v in tops) else tuple(zip(*tops))

    def advance(self) -> tuple:
        """The next iterate's degree vector, predicted from the values of
        the last one, or read off the iterate when a value is zero."""
        m = len(self.leads)
        lead = self.predict(*self.leads[-1])
        if lead is None:
            # the iterates before m are checked now, m later against this
            self.iterate(m - 1)
            lead = self.lead(self.g.orbit(m)[m])
        self.leads.append(lead)
        return lead[0]

    def iterate(self, k: int) -> Endo:
        """g^k from g's orbit, after checking each iterate up to k composed
        since the last check against the degrees predicted for it."""
        orbit = self.g.orbit(k)
        for j in range(self._checked, k + 1):
            if tuple(c.total_degree() for c in orbit[j].coords) != self.leads[j][0]:
                raise InconsistencyError(f"iterate {j} does not have the degrees predicted for it")
        self._checked = max(self._checked, k + 1)
        return orbit[k]


def _mod(c: Poly, p: int) -> list:
    # the terms of c, with coefficients mod p: one inverse, of c.den
    inv = pow(c.den, -1, p)
    return [(mono, v * inv % p) for mono, v in c.num.items()]


def _top(terms: list, degrees: tuple, values: tuple, p: int) -> tuple:
    """(d, v) for a polynomial in terms mod p, with x_j given the degree
    degrees[j] and the value values[j]: d is the largest degree of a term,
    and v the value of the terms of degree d, mod p.  A term with a factor
    of degree NEG_INF (zero) is dropped."""
    best, value = NEG_INF, 0
    for mono, c in terms:
        d = sum(a * dj for a, dj in zip(mono, degrees) if a)
        if d > best:
            best, value = d, 0
        if d == best != NEG_INF:
            value += c * prod(pow(v, a, p) for v, a in zip(values, mono))
    return best, value % p


class SquareMatrixPoly(Record):
    """A square grid of polynomials sharing one ambient dimension."""

    __slots__ = ("size", "rows")
    _fields = ("rows",)

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        size = len(rows)
        if size == 0 or any(len(r) != size for r in rows):
            raise ValueError("matrix must be square and nonempty")
        dim = rows[0][0].n
        if any(p.n != dim for r in rows for p in r):
            raise ValueError("matrix entries have mixed dimensions")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "rows", rows)

    def det(self) -> Poly:
        """Exact symbolic determinant: one fraction-free (Bareiss)
        elimination over row-scaled, packed integer entries.

        Each step forms m[k][k]*m[i][j] - m[i][k]*m[k][j] with the product
        kernel and divides it exactly by the previous pivot; the result is
        unpacked once over the product of the row scales.
        """
        rows = self.rows
        size = self.size
        dim = rows[0][0].n
        # a numerator multiplies two minors: at most twice the rows' degree sum
        bound = 2 * sum(max(max(map(sum, p.num), default=0) for p in r) for r in rows)
        shifts = _shifts(dim, bound)
        scales = [lcm(*(p.den for p in r)) for r in rows]
        m = [[_pack(p.num, shifts, lr // p.den) for p in r] for r, lr in zip(rows, scales)]
        scale = prod(scales)
        for k in range(size - 1):
            piv = next((r for r in range(k, size) if m[r][k]), None)
            if piv is None:
                return Poly.zero(dim)
            if piv != k:
                m[piv], m[k] = m[k], m[piv]
                scale = -scale
            mk = m[k]
            for mi in m[k + 1:]:
                neg = {key: -v for key, v in mi[k].items()}
                for j in range(k + 1, size):
                    num = _convolve(neg, mk[j], _convolve(mk[k], mi[j]))
                    mi[j] = (
                        _divide_packed(num, prev, shifts, bound)
                        if k
                        else {key: v for key, v in num.items() if v}
                    )
            prev = mk[k]
        return _unpack(dim, m[-1][-1], scale, shifts)


# ----------------------------------------------------------------------
# module-level operations

def linear_combination(coeffs: Sequence[Rational], maps: Sequence[Endo]) -> Endo:
    """Coordinatewise rational linear combination sum_k coeffs[k] * maps[k].

    Each coordinate is summed in integers over one common denominator,
    the lcm of c.denominator * den over the coordinates num / den of the
    maps with c != 0, and made canonical once (_normal).
    """
    coeffs = [Fraction(c) for c in coeffs]
    maps = list(maps)
    if not maps or len(coeffs) != len(maps):
        raise ValueError(
            f"need equally many coefficients and maps (>= 1), got {len(coeffs)} and {len(maps)}"
        )
    n = maps[0].n
    if any(g.n != n for g in maps):
        raise ValueError("maps have mixed dimensions")
    coords = []
    for i in range(n):
        parts = [(c, g.coords[i]) for c, g in zip(coeffs, maps) if c]
        den = lcm(*(c.denominator * p.den for c, p in parts))
        acc: dict = {}
        get = acc.get
        for c, p in parts:
            # c * v / p.den over den
            scale = c.numerator * (den // (c.denominator * p.den))
            for mono, v in p.num.items():
                acc[mono] = get(mono, 0) + scale * v
        coords.append(_normal(n, {m: v for m, v in acc.items() if v}, den))
    return Endo(coords)


def verify_inverse_pair(f: Endo, g: Endo) -> bool:
    """True iff f o g and g o f are both the identity.

    One composition decides, with the lower-degree map outside.  Proof
    (van den Essen, Polynomial Automorphisms and the Jacobian Conjecture,
    2000): f o g = id gives phi_g o phi_f = id on k[x], where
    phi_h(p) = p o h, so phi_g is surjective; a surjective endomorphism of
    a Noetherian ring is injective, so phi_g has inverse phi_f and
    g o f = id.
    """
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    outer, inner = sorted((f, g), key=Endo.degree)  # stable: a tie keeps f outside
    return outer.compose(inner).is_identity()
