"""Exact linear algebra over the rationals.

Vectors here are sparse: dicts from an arbitrary (totally ordered) column
label to an int or Fraction (zero entries are ignored).  This suits
coefficient vectors of polynomial vector fields, whose natural column
labels are (component, monomial) pairs discovered on the fly.

All elimination goes through ``SparseEchelon``, whose rows remember how
they were made; dense matrices (lists of rows) are read as sparse vectors
keyed by column index.

The elimination is fraction-free (Bareiss 1968): an incoming vector is
scaled once by the lcm of its denominators, every stored row is an
integer row with its gcd removed, and reducing by a row cross-multiplies
by the two entries at its pivot, dividing the content out again after a
step that scaled the remainder.  The inner loop is integer arithmetic
with no gcd per entry.  A rational factor tracked beside each remainder,
and step multipliers kept as integer pairs, keep every answer exact:
``reduce`` returns the rational remainder itself, ``solve`` sums
combinations as integer numerators over one denominator and makes one
Fraction per coefficient, and ``pivot_determinant`` multiplies the pivot
values.  No pivot-size heuristics are needed because nothing is rounded.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

_ZERO = Fraction(0)

SparseVec = Mapping


@dataclass(slots=True)
class _Row:
    """A stored echelon row and how it was made.  ``entries`` are ints
    with no common factor and ``lead`` > 0 is the one at the pivot;
    ``scale * entries`` is ``vector[origin] - sum(Fraction(n, d) *
    row[p].entries for p, n, d in steps)``, the exact remainder of the
    ``origin``-th added vector, whose pivot value is ``lead * scale``."""

    entries: dict
    lead: int
    origin: int
    scale: Fraction
    steps: list
    combination: tuple[dict, int] | None = None  # ({added index: int}, denominator), expanded on demand


def _content(values) -> int:
    """gcd of nonzero ints, 1 for none."""
    return gcd(*values) or 1


class SparseEchelon:
    """Incremental row-echelon span of sparse rational vectors.

    ``add`` reduces a vector against the rows collected so far and keeps
    it (as a primitive integer row) when a nonzero remainder survives.
    Rows are keyed by their pivot column; every entry of a stored row sits
    at a column >= its pivot, so a single ascending elimination pass is
    complete.

    With ``keep_dependent``, the elimination steps of every added vector
    that did not enlarge the span are kept, so that ``combination`` can
    express it in the earlier vectors without a second elimination.
    """

    def __init__(self, keep_dependent: bool = False):
        self._rows: dict = {}
        self._pivots: list = []  # ascending
        self._added = 0
        self._dependent: dict | None = {} if keep_dependent else None

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _eliminate(self, vec: SparseVec) -> tuple[dict, int, int, list]:
        """Integer remainder ``rem`` of ``vec`` with the exact remainder
        equal to ``rem * num / den``, and the (pivot, n, d) steps used:
        ``vec`` minus the sum of Fraction(n, d) times each step's row."""
        den = lcm(*[v.denominator for v in vec.values()])  # a zero's is 1
        rem = {k: v.numerator * (den // v.denominator) for k, v in vec.items() if v}
        num = _content(rem.values())
        if num != 1:
            rem = {k: v // num for k, v in rem.items()}
        steps = []
        rows = self._rows
        for pivot in self._pivots:
            coef = rem.get(pivot)
            if not coef:
                continue
            row = rows[pivot]
            lead = row.lead
            steps.append((pivot, coef * num, den * lead))
            g = gcd(coef, lead)
            a, b = lead // g, coef // g
            if a != 1:
                for col in rem:
                    rem[col] *= a
            for col, val in row.entries.items():
                nv = rem.get(col, 0) - b * val
                if nv:
                    rem[col] = nv
                else:
                    del rem[col]
            if a != 1:
                den *= a
                c = _content(rem.values())
                if c != 1:
                    num *= c
                    rem = {k: v // c for k, v in rem.items()}
        return rem, num, den, steps

    def reduce(self, vec: SparseVec) -> dict:
        """The exact rational remainder of ``vec`` after elimination."""
        rem, num, den, _ = self._eliminate(vec)
        return {k: Fraction(v * num, den) for k, v in rem.items()}

    def contains(self, vec: SparseVec) -> bool:
        return not self._eliminate(vec)[0]

    def add(self, vec: SparseVec) -> bool:
        """Insert ``vec``; True if it enlarged the span."""
        rem, num, den, steps = self._eliminate(vec)
        origin = self._added
        self._added += 1
        if not rem:
            if self._dependent is not None:
                self._dependent[origin] = steps
            return False
        pivot = min(rem)
        c = _content(rem.values())
        if rem[pivot] < 0:
            c = -c
        if c != 1:
            rem = {k: v // c for k, v in rem.items()}
        self._rows[pivot] = _Row(rem, rem[pivot], origin, Fraction(num * c, den), steps)
        insort(self._pivots, pivot)
        return True

    def _combination(self, pivot) -> tuple[dict, int]:
        """The row at ``pivot`` as ({added index: int}, denominator)."""
        row = self._rows[pivot]
        if row.combination is None:
            # entries = (vector[origin] - acc / den) / scale
            acc, den = self._sum_rows(row.steps)
            scale = row.scale
            ints = {i: -c * scale.denominator for i, c in acc.items() if c}
            ints[row.origin] = den * scale.denominator
            den *= scale.numerator
            if den < 0:
                ints = {i: -c for i, c in ints.items()}
                den = -den
            g = gcd(den, *ints.values())
            row.combination = ({i: c // g for i, c in ints.items()}, den // g)
        return row.combination

    def _sum_rows(self, steps: list) -> tuple[dict, int]:
        """sum(Fraction(n, d) * row[p].entries for p, n, d in steps) as a
        combination of the added vectors: ({added index: int}, denominator)."""
        terms = []
        for p, n, d in steps:
            ints, den = self._combination(p)
            terms.append((n, d * den, ints))
        den = lcm(*[d for _, d, _ in terms])
        acc: dict = {}
        for n, d, ints in terms:
            m = n * (den // d)
            for i, c in ints.items():
                acc[i] = acc.get(i, 0) + m * c
        return acc, den

    def combination(self, index: int) -> tuple[dict, int]:
        """The ``index``-th added vector of a ``keep_dependent`` echelon as
        ({added index: int}, denominator): itself if it enlarged the span,
        else the sum of its elimination steps, over vectors that did.
        Entries may be zero."""
        steps = self._dependent.get(index)
        if steps is None:
            return {index: 1}, 1
        return self._sum_rows(steps)

    def solve(self, vec: SparseVec) -> dict | None:
        """{added index: coefficient} whose combination of the added
        vectors is ``vec``, or None outside the span.  Only nonzero
        coefficients are listed; added vectors that did not enlarge the
        span get none."""
        rem, _, _, steps = self._eliminate(vec)
        if rem:
            return None
        acc, den = self._sum_rows(steps)
        return {i: Fraction(c, den) for i, c in acc.items() if c}

    def pivot_determinant(self) -> Fraction:
        """Determinant of the added vectors as rows of a square matrix over
        the pivot columns: the product of the pivot values ``lead * scale``
        times the sign of the pivot permutation.  Reducing by earlier rows
        leaves the determinant unchanged, and after it row k is zero at
        every earlier pivot, so the reduced matrix is triangular up to that
        permutation.  Zero if some added vector did not enlarge the span."""
        if self.rank < self._added:
            return _ZERO
        order = sorted(self._rows, key=lambda p: self._rows[p].origin)
        det = Fraction(1)
        for k, pivot in enumerate(order):
            row = self._rows[pivot]
            det *= row.lead * row.scale
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


def solve_in_span(vectors: Sequence[SparseVec], targets: Sequence[SparseVec]) -> list[dict[int, Fraction] | None]:
    """For each target, the nonzero coefficients {i: a[i]} with
    sum(a[i] * vectors[i]) == target, else None.

    One echelon over ``vectors`` serves every target, and a non-None answer
    is exact by construction.  When the vectors are dependent, a vector in
    the span of earlier ones gets no coefficient.
    """
    ech = _echelon(vectors)
    return [ech.solve(target) for target in targets]


def dense_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return sparse_rank([dict(enumerate(row)) for row in rows])


def nullspace_dimension(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    return ncols - dense_rank(rows)


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    return _echelon(dict(enumerate(row)) for row in matrix).pivot_determinant()
