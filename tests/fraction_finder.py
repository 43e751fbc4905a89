"""Exact Fraction elimination: the reference for the GF(p) finder.

The library eliminates over GF(p) only (linalg.DependenceFinder) and
certifies each lifted relation exactly.  This finder is the plain
rational search it replaced, kept for the tests to compare against.
"""

from fractions import Fraction


class FractionDependenceFinder:
    """Incremental search for a rational linear dependence among vectors.

    Vectors are sparse maps {key: rational} over an arbitrary growing key
    space (keys only need a total order), each divided by den, as
    DependenceFinder.add takes them.  Vectors are fed in one at a time;
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

    def add(self, vec, den=1):
        work = {k: Fraction(v) / den for k, v in vec.items() if v}
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
