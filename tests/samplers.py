"""Seeded random generators shared by the test suite.

Everything takes an explicit random.Random so counted acceptance runs are
reproducible; hypothesis-based tests build their own strategies instead.
"""

from fractions import Fraction

from polyaut.endo import Endo
from polyaut.linalg import mat_det
from polyaut.poly import Poly
from polyaut.tame import Affine, Diagonal, Elementary, TameWord

COEFF_POOL = [
    Fraction(v) for v in (-3, -2, -1, 1, 2, 3)
] + [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]

DIAGONAL_POOL = [Fraction(v) for v in (-3, -2, -1, 1, 2, 3)] + [
    Fraction(1, 2), Fraction(-1, 3),
]


def random_poly(rng, n, max_deg, max_terms, avoid=()):
    """Sparse polynomial; variables listed in avoid never appear."""
    usable = [j for j in range(n) if j + 1 not in avoid]
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * n
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            if usable:
                mono[rng.choice(usable)] += 1
        terms[tuple(mono)] = rng.choice(COEFF_POOL)
    return Poly(n, terms)


def random_elementary(rng, n, max_deg, max_terms=3) -> Elementary:
    i = rng.randint(1, n)
    return Elementary(i, random_poly(rng, n, max_deg, max_terms, avoid=(i,)))


def random_diagonal(rng, n) -> Diagonal:
    return Diagonal(tuple(rng.choice(DIAGONAL_POOL) for _ in range(n)))


def random_triangular(rng, n, max_deg=2, scalars=(Fraction(1),)) -> Endo:
    """x_i -> a_i x_i + f_i(x_{i+1}, ..., x_n) with each a_i drawn from
    scalars: unipotent by default, de Jonquieres with DIAGONAL_POOL.
    Locally finite either way."""
    coords = []
    for i in range(1, n + 1):
        tail = random_poly(rng, n, max_deg, 2, avoid=range(1, i + 1))
        coords.append(rng.choice(scalars) * Poly.variable(n, i) + tail)
    return Endo(coords)


def random_henon(rng) -> Endo:
    """(x2, x1 + c x2^d + c' x2^e) with d in {2, 3} and e < d: degrees
    double or triple, so certification always runs out of budget."""
    d = rng.choice((2, 3))
    f = Poly(2, {
        (1, 0): Fraction(1),
        (0, d): rng.choice(COEFF_POOL),
        (0, rng.randrange(d)): rng.choice(COEFF_POOL),
    })
    return Endo([Poly.variable(2, 2), f])


def random_affine(rng, n, span=5) -> Affine:
    """Invertible integer matrix with entries in [-span, span], plus an
    integer translation part."""
    while True:
        a = tuple(
            tuple(Fraction(rng.randint(-span, span)) for _ in range(n))
            for _ in range(n)
        )
        if mat_det(a) != 0:
            break
    b = tuple(Fraction(rng.randint(-span, span)) for _ in range(n))
    return Affine(a, b)


def random_word(rng, n, max_len, max_deg=3) -> TameWord:
    factors = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice(("elementary", "elementary", "diagonal", "affine"))
        if kind == "elementary":
            factors.append(random_elementary(rng, n, max_deg))
        elif kind == "diagonal":
            factors.append(random_diagonal(rng, n))
        else:
            factors.append(random_affine(rng, n))
    return TameWord(tuple(factors), n)
