from fractions import Fraction
from itertools import combinations, permutations
from math import isqrt, lcm, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fraction_finder import FractionDependenceFinder
from polyaut.linalg import (
    DependenceFinder,
    UnluckyPrime,
    mat_det,
    mat_inverse,
    rational_reconstruction,
)

Q = Fraction

entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def square(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def test_det_values():
    assert mat_det([[Q(2)]]) == 2
    assert mat_det([[1, 2], [3, 4]]) == -2
    assert mat_det([[0, 1], [1, 0]]) == -1
    assert mat_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


def _leibniz_det(rows):
    # the permutation sum: sgn(s) * prod_i rows[i][s(i)] over every s
    n = len(rows)
    return sum(
        (-1) ** sum(a > b for a, b in combinations(s, 2))
        * prod((rows[i][j] for i, j in enumerate(s)), start=Fraction(1))
        for s in permutations(range(n))
    )


@st.composite
def det_cases(draw):
    # a sampled square matrix, with an edge case forced in most draws
    n = draw(st.integers(min_value=1, max_value=4))
    rows = draw(square(n))
    edge = draw(st.sampled_from(["none", "zero row", "repeated row", "zero lead"]))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    if edge == "zero row":
        rows[k] = [Q(0)] * n
    elif edge == "repeated row" and n > 1:
        rows[(k + 1) % n] = list(rows[k])
    elif edge == "zero lead":
        rows[0][0] = Q(0)
    return rows


@given(det_cases())
@example([[Q(0), Q(1, 2)], [Q(3, 4), Q(5)]])  # a zero pivot needs a swap
@example([[Q(0), Q(1), Q(2)], [Q(0), Q(3), Q(1, 3)], [Q(0), Q(-2), Q(5)]])  # zero column
@example([[Q(1, 2), Q(1, 3)], [Q(1, 2), Q(1, 3)]])  # repeated row
@example([[Q(0), Q(0), Q(1)], [Q(0), Q(1), Q(0)], [Q(1), Q(0), Q(0)]])  # two swaps
def test_det_matches_leibniz_reference(rows):
    assert mat_det(rows) == _leibniz_det(rows)
    assert type(mat_det(rows)) is Fraction


def test_inverse_roundtrip():
    m = [[Q(2), Q(1)], [Q(5), Q(3)]]
    inv = mat_inverse(m)
    assert inv == [[Q(3), Q(-1)], [Q(-5), Q(2)]]
    with pytest.raises(ValueError):
        mat_inverse([[Q(1), Q(2)], [Q(2), Q(4)]])


@given(square(3))
def test_inverse_is_two_sided_when_nonsingular(rows):
    rows = [[Q(e) for e in r] for r in rows]
    if mat_det(rows) == 0:
        return
    inv = mat_inverse(rows)
    ident = [[Q(int(i == j)) for j in range(3)] for i in range(3)]
    prod = [
        [sum(rows[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    assert prod == ident


# ----------------------------------------------------------------------
# the Fraction reference finder: the combination it reports must vanish

def integral(vec):
    """A vector {key: rational} as DependenceFinder.add takes it: integer
    numerators over the lcm of the denominators."""
    den = lcm(*(Q(v).denominator for v in vec.values()))
    return {k: int(v * den) for k, v in vec.items()}, den


def _check_combo(vectors, combo):
    keys = set().union(*(v.keys() for v in vectors if v)) if vectors else set()
    for k in keys:
        assert sum(c * vectors[i].get(k, Q(0)) for i, c in combo.items()) == 0


def test_finder_reports_first_dependence():
    f = FractionDependenceFinder()
    vs = [{"a": Q(1)}, {"b": Q(1)}, {"a": Q(2), "b": Q(3)}]
    assert f.add(vs[0]) is None
    assert f.add(vs[1]) is None
    combo = f.add(vs[2])
    assert combo is not None and combo[2] == 1
    _check_combo(vs, combo)
    assert f.rank == 2
    assert f.vectors_seen == 3
    # the library's GF(p) finder reports the same combination mod p
    g = DependenceFinder(P61)
    assert [g.add(*integral(v)) for v in vs] == [
        None, None, {j: c % P61 for j, c in combo.items()}]
    assert (g.rank, g.vectors_seen) == (2, 3)


def test_zero_vector_depends_on_nothing():
    f = FractionDependenceFinder()
    combo = f.add({})
    assert combo == {0: Q(1)}
    assert DependenceFinder(P61).add({}, 1) == {0: 1}


def test_finder_independent_run():
    for f in (FractionDependenceFinder(), DependenceFinder(P61)):
        for i in range(4):
            assert f.add(*integral({i: Q(1), i + 1: Q(1)})) is None
        assert f.rank == 4


@given(
    st.lists(
        st.dictionaries(st.integers(min_value=0, max_value=4), entries, max_size=5),
        min_size=1,
        max_size=8,
    )
)
def test_finder_combination_vanishes(vectors):
    vectors = [{k: Q(v) for k, v in vec.items() if v} for vec in vectors]
    f = FractionDependenceFinder()
    for vec in vectors:
        combo = f.add(vec)
        if combo is not None:
            newest = f.vectors_seen - 1
            assert combo[newest] == 1
            _check_combo(vectors, combo)
            return
    # never more independent vectors than coordinates touched
    dim = len(set().union(*(v.keys() for v in vectors))) if any(vectors) else 0
    assert f.rank <= dim


# ----------------------------------------------------------------------
# the same search over GF(p), and lifting residues back to Q

P61 = 2**61 - 1


@given(
    st.lists(
        st.dictionaries(st.integers(min_value=0, max_value=4), entries, max_size=5),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from([5, 7, P61]),
)
def test_modular_finder_combination_vanishes_mod_p(vectors, p):
    # entries have denominators up to 4, so no prime here is unlucky
    vectors = [{k: Q(v) for k, v in vec.items() if v} for vec in vectors]
    f = DependenceFinder(p)
    exact = FractionDependenceFinder()
    exact_first = next(
        (i for i, vec in enumerate(vectors) if exact.add(vec) is not None), None
    )
    for i, vec in enumerate(vectors):
        combo = f.add(*integral(vec))
        if combo is not None:
            assert combo[i] == 1
            assert all(0 <= c < p for c in combo.values())
            keys = set().union(*(v.keys() for v in vectors[: i + 1]))
            for k in keys:
                total = sum(
                    c * vectors[j].get(k, Q(0)) for j, c in combo.items()
                )
                assert (total.numerator * pow(total.denominator, -1, p)) % p == 0
            # the rank mod p never exceeds the rank over Q
            assert exact_first is None or i <= exact_first
            return
    assert exact_first is None
    assert f.rank == f.vectors_seen == len(vectors)


class _DictRowModularFinder:
    """The modular finder on {key: residue} rows, as it was before rows
    were packed into ints: the reference for the packed finder."""

    def __init__(self, p):
        self.p = p
        self._rows = []  # (pivot_key, row_dict, combo_dict)
        self._count = 0

    @property
    def rank(self):
        return len(self._rows)

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


def _sub_scaled_mod(target, source, factor, p):
    # target -= factor * source over GF(p), dropping zeros
    for k, v in source.items():
        s = (target.get(k, 0) - factor * v) % p
        if s:
            target[k] = s
        else:
            target.pop(k, None)


def _outcome(finder, *vec):
    try:
        return finder.add(*vec)
    except UnluckyPrime:
        return UnluckyPrime


# keys shaped like the flattened iterates: (coordinate, exponent tuple)
KEY_POOL = [(i, (a, b)) for i in range(2) for a in range(3) for b in range(2)]
# denominators 3, 5 and 7 make those primes unlucky
POOL_ENTRIES = st.fractions(min_value=-20, max_value=20, max_denominator=15)


@given(
    st.lists(
        st.dictionaries(st.sampled_from(KEY_POOL), POOL_ENTRIES, max_size=6),
        min_size=1,
        max_size=14,
    ),
    st.sampled_from([3, 5, 7, P61]),
)
def test_packed_finder_matches_dict_rows(vectors, p):
    # every add gives the same dependence, None or UnluckyPrime, and the
    # rank agrees throughout, also after a dependence or an unlucky vector
    packed, reference = DependenceFinder(p), _DictRowModularFinder(p)
    for vec in vectors:
        assert _outcome(packed, *integral(vec)) == _outcome(reference, vec)
        assert packed.rank == reference.rank
    assert packed.vectors_seen == reference._count


def test_packed_finder_carries_at_full_width():
    # entries p - 1 at the largest prime: 64 vectors of full rank, each
    # reduced against every earlier row, then one that depends on them all
    p, dim = P61, 64
    vectors = [
        {(0, (k,)): Q(p - 1) for k in range(dim) if k != i} for i in range(dim)
    ]
    packed, reference = DependenceFinder(p), _DictRowModularFinder(p)
    for vec in vectors:
        assert packed.add(*integral(vec)) is None
        assert reference.add(vec) is None
    assert packed.rank == dim
    dependent = {(0, (k,)): Q(p - 1) for k in range(dim)}
    combo = packed.add(*integral(dependent))
    assert combo == reference.add(dependent)
    # the sum of the 64 vectors is 63 times the dependent one
    assert combo == {**{j: pow(-63, -1, p) % p for j in range(dim)}, dim: 1}


def test_modular_finder_rejects_denominator_divisible_by_p():
    f = DependenceFinder(3)
    assert f.add(*integral({"a": Q(1, 2)})) is None
    with pytest.raises(UnluckyPrime):
        f.add(*integral({"a": Q(1), "b": Q(5, 6)}))


@given(
    st.integers(min_value=-isqrt(P61 // 2), max_value=isqrt(P61 // 2)),
    st.integers(min_value=1, max_value=isqrt(P61 // 2)),
)
def test_reconstruction_round_trip_within_bound(num, den):
    x = Q(num, den)
    residue = x.numerator * pow(x.denominator, -1, P61) % P61
    assert rational_reconstruction(residue, P61) == x


def test_reconstruction_values():
    bound = isqrt(P61 // 2)
    assert rational_reconstruction(0, P61) == 0
    assert rational_reconstruction(P61 - 5, P61) == -5
    assert rational_reconstruction(bound, P61) == bound
    assert rational_reconstruction(P61 - bound, P61) == -bound
    # just beyond the bound, and a coefficient that needs a second prime
    assert rational_reconstruction(bound + 1, P61) is None
    assert rational_reconstruction(P61 - bound - 1, P61) is None
    assert rational_reconstruction((10**6 + 3) * (10**6 + 7), P61) is None
    # modulus 15 = 3 * 5: bound 2
    assert rational_reconstruction(-3 * pow(2, -1, 15) % 15, 15) is None
    assert rational_reconstruction(pow(-2, -1, 15) % 15, 15) == Q(-1, 2)
