"""Exact linear algebra over the rationals.

Vectors here are sparse: dicts from an arbitrary (totally ordered) column
label to a nonzero Fraction.  This suits coefficient vectors of polynomial
vector fields, whose natural column labels are (component, monomial)
pairs discovered on the fly.

All elimination goes through ``SparseEchelon``, whose rows remember how
they were made; dense matrices (lists of rows) are read as sparse vectors
keyed by column index.

Everything is exact; no pivot-size heuristics are needed because Fraction
arithmetic cannot lose information.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

_ZERO = Fraction(0)

SparseVec = Mapping


@dataclass(slots=True)
class _Row:
    """A stored echelon row and how it was made: ``entries`` is
    ``(vector[origin] - sum(m * row[p] for p, m in steps)) / scale``, with
    ``origin`` the index of the ``add`` call and ``scale`` the pivot value
    before normalizing."""

    entries: dict
    origin: int
    scale: Fraction
    steps: list
    combination: dict | None = None  # {added index: coefficient}, expanded on demand


class SparseEchelon:
    """Incremental row-echelon span of sparse rational vectors.

    ``add`` reduces a vector against the rows collected so far and keeps
    it (normalized) when a nonzero remainder survives.  Rows are keyed by
    their pivot column; every entry of a stored row sits at a column >=
    its pivot, so a single ascending elimination pass is complete.
    """

    def __init__(self):
        self._rows: dict = {}
        self._pivots: list = []  # ascending
        self._added = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _eliminate(self, vec: SparseVec) -> tuple[dict, list]:
        """Remainder of ``vec`` and the (pivot, multiplier) pairs used."""
        rem = {k: Fraction(v) for k, v in vec.items() if v != 0}
        steps = []
        rows = self._rows
        for pivot in self._pivots:
            coef = rem.get(pivot)
            if not coef:
                continue
            steps.append((pivot, coef))
            for col, val in rows[pivot].entries.items():
                nv = rem.get(col, _ZERO) - coef * val
                if nv:
                    rem[col] = nv
                else:
                    rem.pop(col, None)
        return rem, steps

    def reduce(self, vec: SparseVec) -> dict:
        return self._eliminate(vec)[0]

    def contains(self, vec: SparseVec) -> bool:
        return not self.reduce(vec)

    def add(self, vec: SparseVec) -> bool:
        """Insert ``vec``; True if it enlarged the span."""
        rem, steps = self._eliminate(vec)
        origin = self._added
        self._added += 1
        if not rem:
            return False
        pivot = min(rem)
        scale = rem[pivot]
        inv = 1 / scale
        self._rows[pivot] = _Row({k: v * inv for k, v in rem.items()}, origin, scale, steps)
        insort(self._pivots, pivot)
        return True

    def _combination(self, pivot) -> dict:
        """The row at ``pivot`` as {added index: coefficient}."""
        row = self._rows[pivot]
        if row.combination is None:
            acc = {row.origin: Fraction(1)}
            for p, m in row.steps:
                for i, c in self._combination(p).items():
                    acc[i] = acc.get(i, _ZERO) - m * c
            inv = 1 / row.scale
            row.combination = {i: c * inv for i, c in acc.items() if c}
        return row.combination

    def solve(self, vec: SparseVec) -> dict | None:
        """{added index: coefficient} whose combination of the added
        vectors is ``vec``, or None outside the span.  Added vectors that
        did not enlarge the span get no coefficient."""
        rem, steps = self._eliminate(vec)
        if rem:
            return None
        out: dict = {}
        for p, m in steps:
            for i, c in self._combination(p).items():
                out[i] = out.get(i, _ZERO) + m * c
        return out

    def pivot_determinant(self) -> Fraction:
        """Determinant of the added vectors as rows of a square matrix over
        the pivot columns: the product of the pivot values times the sign
        of the pivot permutation.  Reducing by earlier rows leaves the
        determinant unchanged, and after it row k is zero at every earlier
        pivot, so the reduced matrix is triangular up to that permutation.
        Zero if some added vector did not enlarge the span."""
        if self.rank < self._added:
            return _ZERO
        order = sorted(self._rows, key=lambda p: self._rows[p].origin)
        det = Fraction(1)
        for k, pivot in enumerate(order):
            det *= self._rows[pivot].scale
            for later in order[k + 1:]:
                if later < pivot:
                    det = -det
        return det


def _echelon(vectors) -> SparseEchelon:
    ech = SparseEchelon()
    for v in vectors:
        ech.add(v)
    return ech


def sparse_rank(vectors: Sequence[SparseVec]) -> int:
    return _echelon(vectors).rank


def solve_in_span(vectors: Sequence[SparseVec], targets: Sequence[SparseVec]) -> list[list[Fraction] | None]:
    """For each target, coefficients a with sum(a[i] * vectors[i]) == target,
    else None.

    One echelon over ``vectors`` serves every target, and a non-None answer
    is exact by construction.  When the vectors are dependent, a vector in
    the span of earlier ones gets coefficient 0.
    """
    ech = _echelon(vectors)
    out: list[list[Fraction] | None] = []
    for target in targets:
        combination = ech.solve(target)
        out.append(None if combination is None else [combination.get(i, _ZERO) for i in range(len(vectors))])
    return out


def dense_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return sparse_rank([dict(enumerate(row)) for row in rows])


def nullspace_dimension(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    return ncols - dense_rank(rows)


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    return _echelon(dict(enumerate(row)) for row in matrix).pivot_determinant()
