"""Exact Lie-algebra computations for polynomial vector fields.

The central operation is ``closure``: starting from a set of generator
fields, keep bracketing until nothing new appears or a cap is exceeded.
Independence over R is decided in coefficient space (exact row reduction
of the fields' coefficient vectors), never by sampling, so a finite
answer is a proof and a ``CapExceeded`` is a certificate that the
generated algebra has dimension above the cap.

Each pair of basis fields is bracketed once.  ``closure`` adds every
bracket to one integer echelon as its packed integer sums, so the
Fraction components of a rejected bracket are never built, and the basis
it returns carries the table of every bracket: an admitted one is a basis
element, a rejected one keeps the elimination steps that expressed it.
``structure_constants`` expands that table; any other basis goes through
the same pair loop over an echelon seeded with its fields.

Structure constants are stored sparse, as the nonzero entries only; the
Killing form and the center read them there, and the dense table ``.c``
is a view built on its first read.

Pointwise questions -- whether a basis is linearly independent at a
generic point ("modular") -- are intrinsically about evaluation, so there
the definition is followed: seeded rational sample points, exact rank of
the evaluation matrix, one full-rank witness suffices.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Sequence

from .exactlinalg import (  # solve_in_span: bench/tracing.py patches it here
    SparseEchelon,
    dense_rank,
    determinant,
    solve_in_span,
    sparse_rank,
)
from .vectorfield import PolyVectorField, lie_bracket

DEFAULT_CLOSURE_CAP = 64
_ZERO = Fraction(0)


class CapExceeded(Exception):
    """The generated algebra outgrew the requested cap."""

    def __init__(self, cap: int, dimension: int):
        super().__init__(f"cap exceeded at dimension {dimension}")
        self.cap = cap
        self.dimension = dimension


class NotClosed(Exception):
    """A bracket of two basis fields escaped the span of the basis."""

    def __init__(self, alpha: int, beta: int):
        super().__init__(f"bracket of basis fields {alpha} and {beta} lies outside the span")
        self.alpha = alpha
        self.beta = beta


class LieBasis:
    """A linearly independent list of polynomial fields on a common space.
    A basis made by ``closure`` also carries the expansion of every bracket
    of its fields (``_brackets``), which ``structure_constants`` reads."""

    __slots__ = ("dimension", "fields", "_brackets")

    def __init__(self, fields: Sequence[PolyVectorField], dimension: int | None = None):
        fields = tuple(fields)
        if fields:
            n = fields[0].dimension
            for f in fields:
                if f.dimension != n:
                    raise ValueError("basis fields must share one dimension")
            if dimension is not None and dimension != n:
                raise ValueError("explicit dimension disagrees with the fields")
        elif dimension is None:
            raise ValueError("an empty basis needs an explicit ambient dimension")
        else:
            n = dimension
        if independence_rank(fields) != len(fields):
            raise ValueError("basis fields are linearly dependent")
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "_brackets", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LieBasis is immutable")

    @property
    def size(self) -> int:
        return len(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)


def independence_rank(fields: Sequence[PolyVectorField]) -> int:
    """Rank of a family of polynomial fields over R (exact, sample-free)."""
    fields = list(fields)
    if not fields:
        return 0
    n = fields[0].dimension
    for f in fields:
        if f.dimension != n:
            raise ValueError("fields must share one dimension")
    return sparse_rank([f.coefficient_vector() for f in fields])


class _Brackets:
    """Every bracket [Y_a, Y_b], a < b, of a basis, bracketed once.

    One integer echelon (``SparseEchelon(keep_dependent=True)``) receives
    the basis fields and the brackets as packed integer vectors
    (``PolyVectorField.integer_vector``), each D times its field.
    ``sources[t]`` is ``(index, D)`` for the t-th added vector, ``index``
    being its basis index if it enlarged the span and None otherwise;
    ``pairs[a, b]`` is the added index of [Y_a, Y_b].  A dependent bracket
    keeps its elimination steps, so ``coordinates`` reads its expansion in
    the basis without a second elimination.
    """

    __slots__ = ("echelon", "sources", "pairs")

    def __init__(self):
        self.echelon = SparseEchelon(keep_dependent=True)
        self.sources: list[tuple[int | None, int]] = []
        self.pairs: dict[tuple[int, int], int] = {}

    def add(self, field: PolyVectorField) -> bool:
        """Add ``field``; True if it enlarged the span, as the next basis
        element."""
        den, vec = field.integer_vector()
        index = self.echelon.rank
        new = self.echelon.add(vec)
        self.sources.append((index if new else None, den))
        return new

    def bracket_pairs(
        self, fields: list[PolyVectorField], outside: Callable[[int, int, PolyVectorField], None]
    ) -> None:
        """Bracket every pair j < i of ``fields`` once, i ascending, as
        [Y_j, Y_i]; ``outside(j, i, bracket)`` runs for a bracket that
        enlarges the span and may append it to ``fields``."""
        i = 0
        while i < len(fields):
            for j in range(i):
                bracket = lie_bracket(fields[j], fields[i])
                self.pairs[j, i] = len(self.sources)
                if self.add(bracket):
                    outside(j, i, bracket)
            i += 1

    def coordinates(self, t: int) -> dict[int, Fraction]:
        """{basis index: coefficient} of the t-th added vector's field."""
        ints, den = self.echelon.combination(t)
        den *= self.sources[t][1]
        out = {}
        for s, c in ints.items():
            if c:
                index, scale = self.sources[s]
                out[index] = Fraction(c * scale, den)
        return out


def closure(generators: Sequence[PolyVectorField], cap: int = DEFAULT_CLOSURE_CAP) -> LieBasis:
    """Basis of the smallest Lie algebra containing the generators.

    Every unordered pair of basis fields is bracketed exactly once, in a
    fixed order, and a bracket joins the basis iff it is independent of
    the current span; that is decided on the bracket's packed integer
    sums, so the Fraction components of a rejected bracket are never
    built.  The returned basis carries every bracket's expansion for
    ``structure_constants``.  Raises CapExceeded as soon as the basis
    would grow past ``cap``, and ExponentLimitError for exponents that do
    not fit packed monomials.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("closure needs at least one generator")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    n = generators[0].dimension
    for g in generators:
        if g.dimension != n:
            raise ValueError("generators must share one dimension")

    brackets = _Brackets()
    fields: list[PolyVectorField] = []

    def grow(field: PolyVectorField) -> None:
        if len(fields) == cap:
            raise CapExceeded(cap, cap + 1)
        fields.append(field)

    for g in generators:
        if brackets.add(g):
            grow(g)
    brackets.bracket_pairs(fields, lambda j, i, bracket: grow(bracket))
    basis = LieBasis(fields, dimension=n)
    object.__setattr__(basis, "_brackets", brackets)
    return basis


class StructureConstants:
    """c[a][b][g] with [Y_a, Y_b] = sum_g c[a][b][g] Y_g, exact; ``planes[a]``
    holds {(b, g): c[a][b][g]} for the nonzero entries, both orders of every
    pair, and ``c`` is the dense view."""

    __slots__ = ("r", "planes", "_dense")

    def __init__(self, planes: Sequence[Mapping[tuple[int, int], Fraction]]):
        r = len(planes)
        if any(b not in range(r) or g not in range(r) for plane in planes for b, g in plane):
            raise ValueError(f"structure constant indices must lie in range({r})")
        object.__setattr__(self, "r", r)
        planes = tuple({k: v if type(v) is Fraction else Fraction(v) for k, v in plane.items() if v} for plane in planes)
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "_dense", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("StructureConstants is immutable")

    @property
    def c(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        if self._dense is None:
            r = range(self.r)
            object.__setattr__(self, "_dense", tuple(tuple(self.bracket_coefficients(a, b) for b in r) for a in r))
        return self._dense

    def bracket_coefficients(self, alpha: int, beta: int) -> tuple[Fraction, ...]:
        return tuple(self.planes[alpha].get((beta, g), _ZERO) for g in range(self.r))

    def nonzero(self) -> list[tuple[int, int, int, Fraction]]:
        """(a, b, g, c[a][b][g]) for the nonzero constants with a < b, sorted."""
        return sorted((a, b, g, v) for a, plane in enumerate(self.planes) for (b, g), v in plane.items() if a < b)


def structure_constants(basis: LieBasis) -> StructureConstants:
    """Expand every bracket of basis fields in the basis, exactly.

    A basis from ``closure`` carries its brackets' expansions; any other
    basis gets the same pair loop over an echelon seeded with its fields.
    Raises NotClosed(alpha, beta) if some bracket escapes the span.
    """
    brackets = basis._brackets
    if brackets is None:
        brackets = _Brackets()
        for field in basis.fields:
            brackets.add(field)

        def outside(j: int, i: int, bracket: PolyVectorField):
            raise NotClosed(j, i)

        brackets.bracket_pairs(list(basis.fields), outside)
    planes: list[dict[tuple[int, int], Fraction]] = [{} for _ in range(basis.size)]
    for (a, b), t in brackets.pairs.items():
        for g, v in brackets.coordinates(t).items():
            planes[a][b, g] = v
            planes[b][a, g] = -v
    return StructureConstants(planes)


def killing_form(sc: StructureConstants) -> list[list[Fraction]]:
    """K[a][b] = sum_{g,d} c[a][g][d] * c[b][d][g], exact and symmetric.

    Each plane's nonzero entries are taken as integer numerators over the
    table's common denominator D and indexed once by their transposed key,
    (g, d) -> [(b, c[b][d][g])]; K[a][b] then sums only over the entries
    of plane a that meet a nonzero entry of plane b.
    """
    r = sc.r
    den = lcm(1, *(v.denominator for plane in sc.planes for v in plane.values()))
    planes = [{k: v.numerator * (den // v.denominator) for k, v in plane.items()} for plane in sc.planes]
    transposed: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for b, plane in enumerate(planes):
        for (d, g), w in plane.items():
            transposed.setdefault((g, d), []).append((b, w))
    K = [[_ZERO] * r for _ in range(r)]
    for a in range(r):
        acc = [0] * r
        for key, v in planes[a].items():
            for b, w in transposed.get(key, ()):
                acc[b] += v * w
        for b in range(a, r):
            K[a][b] = K[b][a] = Fraction(acc[b], den * den)
    return K


def killing_determinant(sc: StructureConstants) -> Fraction:
    return determinant(killing_form(sc))


def center_dimension(sc: StructureConstants) -> int:
    """Dimension of {v : [v, Y_b] = 0 for all b} via an exact nullspace:
    r minus the rank of the rows (b, g), each {a: c[a][b][g]} over its
    nonzero entries only.  Equal rows are eliminated once."""
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a, plane in enumerate(sc.planes):
        for key, v in plane.items():
            rows.setdefault(key, {})[a] = v
    distinct = {tuple(row.items()): row for row in rows.values()}
    return sc.r - sparse_rank(list(distinct.values()))


def is_modular_basis(basis: LieBasis, samples: int = 20, seed: int = 0) -> bool:
    """True iff the fields are linearly independent at some sampled point.

    Pointwise rank is lower-semicontinuous, so a single full-rank witness
    certifies genericity; several seeded rational points (coordinates in
    [-10, 10], denominators <= 16) guard against landing on a thin zero
    set.  Ranks are exact.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    r = basis.size
    if r == 0:
        return True
    n = basis.dimension
    if r > n:
        return False
    rng = random.Random(seed)
    for _ in range(samples):
        point = []
        for _ in range(n):
            den = rng.randint(1, 16)
            point.append(Fraction(rng.randint(-10 * den, 10 * den), den))
        rows = [f.evaluate(point) for f in basis.fields]
        if dense_rank(rows) == r:
            return True
    return False


def check_lie_condition(closure_dim: int, component_dims: Sequence[int]) -> bool:
    """The dimension bound satisfied by any system admitting a mixed
    superposition rule: dim V <= sum of the component space dimensions."""
    return closure_dim <= sum(component_dims)
