"""Exact Lie-algebra computations for polynomial vector fields.

The central operation is ``closure``: starting from a set of generator
fields, keep bracketing until nothing new appears or a cap is exceeded.
Independence over R is decided in coefficient space (exact row reduction
of the fields' packed integer coefficient vectors, Laurent fields
included), never by sampling, so a finite answer is a proof and a
``CapExceeded`` is a certificate that the generated algebra has dimension
above the cap.

Each pair of basis fields is bracketed at most once, and a bracket is
reduced in an integer echelon as its packed integer sums, so the
Fraction components of a rejected bracket are never built.  ``closure``
reduces in two echelons: its ``lie_dimension`` pass reduces each bracket
it forms in a plain echelon, and its pair loop reduces every bracket
again, taking the pass's from a memo, in the echelon of the table that
the returned basis carries: an admitted bracket is a basis element, a
rejected one keeps the elimination steps that expressed it.

The generators do most of the work (de Graaf, *Lie Algebras: Theory and
Algorithms*).  ``lie_dimension`` brackets each basis field with the
generators alone -- ad-invariance under the generators is enough, by the
Jacobi identity -- in a plain echelon that keeps no bracket expansions;
rule verification needs only that dimension.  ``closure`` runs the same
pass first, for the cap verdict and the dimension d, then its pair loop,
which reuses the pass's brackets and stops once the basis holds d fields.
``structure_constants`` resumes that loop where it stopped, the same loop
that any other basis runs from its first pair.  A closure basis opens
with its k independent generators, so ``center_dimension`` needs only
the k * r rows that bracket with them.

Structure constants are stored sparse, as the integer numerators of the
nonzero entries over one least denominator, filled straight from the
echelon's integer rows; the Killing form and the center read those
integers, and a Fraction is made only where a value is read: by
``nonzero``, ``bracket_coefficients`` and the dense view ``.c``, which is
built on its first read.

Pointwise questions -- whether a basis is linearly independent at a
generic point ("modular") -- are intrinsically about evaluation, so there
the definition is followed: seeded rational sample points, exact rank of
the evaluation matrix, one full-rank witness suffices.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
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
    An empty list, such as the closure of zero fields, needs the explicit
    ambient ``dimension``.  A basis made by ``closure`` also carries its
    pair loop (``_brackets``), which ``structure_constants`` finishes and
    reads.  Independence is decided on packed monomials, so a field with
    an exponent e, |e| > ``EXPONENT_LIMIT``, raises ExponentLimitError."""

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


def independence_rank(fields: Sequence[PolyVectorField]) -> int:
    """Rank of a family of polynomial fields over R (exact, sample-free):
    the rank of their packed integer vectors, each D times its field.
    Raises ExponentLimitError for an exponent that does not fit packed
    monomials."""
    fields = list(fields)
    if not fields:
        return 0
    n = fields[0].dimension
    for f in fields:
        if f.dimension != n:
            raise ValueError("fields must share one dimension")
    return sparse_rank([f.integer_vector()[1] for f in fields])


class _Brackets:
    """The brackets [Y_j, Y_i], j < i, of a basis, each bracketed once.

    One integer echelon (``SparseEchelon(keep_dependent=True)``) receives
    the basis fields and the brackets as packed integer vectors
    (``PolyVectorField.integer_vector``), each D times its field.
    ``sources[t]`` is ``(index, D)`` for the t-th added vector, ``index``
    being its basis index if it enlarged the span and None otherwise;
    ``pairs[j, i]`` is the added index of [Y_j, Y_i].  A dependent bracket
    keeps its elimination steps, so ``coordinates`` reads its expansion in
    the basis without a second elimination.

    The pair loop runs in one fixed order and may stop early: ``next_pair``
    is the pair it resumes at.  ``generators`` is the number of seed
    fields, which open the basis and generate its algebra.  ``memo`` holds
    brackets formed before the loop, keyed by the ids of their two fields;
    each of those fields is a seed field or a bracket the memo holds, so
    no key's id is reused while the memo lives.
    """

    __slots__ = ("echelon", "sources", "pairs", "next_pair", "generators", "memo")

    def __init__(
        self, fields: Sequence[PolyVectorField], memo: dict[tuple[int, int], PolyVectorField] | None = None
    ):
        """Seeded with the independent ``fields`` that generate the algebra."""
        self.echelon = SparseEchelon(keep_dependent=True)
        self.sources: list[tuple[int | None, int]] = []
        self.pairs: dict[tuple[int, int], int] = {}
        self.next_pair = (0, 1)
        self.generators = len(fields)
        self.memo = {} if memo is None else memo
        for field in fields:
            self.add(field)

    def add(self, field: PolyVectorField) -> bool:
        """Add ``field``; True if it enlarged the span, as the next basis
        element."""
        den, vec = field.integer_vector()
        index = self.echelon.rank
        new = self.echelon.add(vec)
        self.sources.append((index if new else None, den))
        return new

    def bracket_pairs(
        self,
        fields: list[PolyVectorField],
        outside: Callable[[int, int, PolyVectorField], None],
        full: int | None = None,
    ) -> None:
        """Bracket the pairs j < i of ``fields`` once, from ``next_pair`` on,
        i ascending and j ascending within it, as [Y_j, Y_i];
        ``outside(j, i, bracket)`` runs for a bracket that enlarges the
        span and may append it to ``fields``.  Stops at the end, or as soon
        as ``fields`` holds ``full`` fields."""
        j, i = self.next_pair
        memo = self.memo
        while i < len(fields) and len(fields) != full:
            x, y = fields[j], fields[i]
            bracket = memo.get((id(x), id(y)))
            if bracket is None:
                bracket = lie_bracket(x, y)
            self.pairs[j, i] = len(self.sources)
            if self.add(bracket):
                outside(j, i, bracket)
            j += 1
            if j == i:
                j, i = 0, i + 1
        self.next_pair = j, i
        if i >= len(fields):  # every pair is bracketed: the memo is spent
            self.memo = {}

    def coordinates(self, t: int) -> tuple[int, dict[int, int]]:
        """``(D, {basis index: N})``: the t-th added vector's field is the
        sum of N / D times the basis fields, over the nonzero N."""
        ints, den = self.echelon.combination(t)
        out = {}
        for s, c in ints.items():
            if c:
                index, scale = self.sources[s]
                out[index] = c * scale
        return den * self.sources[t][1], out


def _checked_generators(generators: Sequence[PolyVectorField], cap: int) -> list[PolyVectorField]:
    """The generators as a list, after the argument checks that ``closure``
    and ``lie_dimension`` share."""
    generators = list(generators)
    if not generators:
        raise ValueError("closure needs at least one generator")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    n = generators[0].dimension
    for g in generators:
        if g.dimension != n:
            raise ValueError("generators must share one dimension")
    return generators


def _ad_span(
    generators: list[PolyVectorField], cap: int, memo: dict[tuple[int, int], PolyVectorField] | None = None
) -> tuple[list[PolyVectorField], int]:
    """The pass of ``lie_dimension``: ``(fields, k)``, the fields spanning
    the generated algebra, the first k of them the independent generators.
    Every bracket formed goes into ``memo`` if given, keyed by the ids of
    its two fields.  Raises CapExceeded(cap, cap + 1) past the cap."""
    echelon = SparseEchelon()
    fields: list[PolyVectorField] = []

    def admit(field: PolyVectorField) -> None:
        if echelon.add(field.integer_vector()[1]):
            if len(fields) == cap:
                raise CapExceeded(cap, cap + 1)
            fields.append(field)

    for g in generators:
        admit(g)
    independent = fields[:]
    for i, field in enumerate(fields):  # grows while it is walked
        for g in independent[:i]:
            bracket = lie_bracket(g, field)
            if memo is not None:
                memo[id(g), id(field)] = bracket
            admit(bracket)
    return fields, len(independent)


def closure(generators: Sequence[PolyVectorField], cap: int = DEFAULT_CLOSURE_CAP) -> LieBasis:
    """Basis of the smallest Lie algebra containing the generators.

    The ``lie_dimension`` pass runs first: it raises CapExceeded as soon as
    the algebra would grow past ``cap``, and otherwise gives its dimension
    d.  Then the unordered pairs of basis fields are bracketed once each,
    in a fixed order, and a bracket joins the basis iff it is independent
    of the current span; that is decided on the bracket's packed integer
    sums, so the Fraction components of a rejected bracket are never
    built.  A bracket the pass already formed is taken from it.  The pair
    loop stops once the basis holds d fields, since no later bracket can
    join it, so the basis is the one the full loop gives.  The returned
    basis carries the brackets' expansions, and where the loop stopped,
    for ``structure_constants``.  Raises ExponentLimitError for exponents
    that do not fit packed monomials; a pair after the stop raises it in
    ``structure_constants``.
    """
    generators = _checked_generators(generators, cap)
    memo: dict[tuple[int, int], PolyVectorField] = {}
    span, k = _ad_span(generators, cap, memo)
    # the pass admitted the independent generators, in order, first
    fields = span[:k]
    brackets = _Brackets(fields, memo)
    brackets.bracket_pairs(fields, lambda j, i, bracket: fields.append(bracket), full=len(span))
    # the echelon proved the fields independent: no second rank pass
    basis = object.__new__(LieBasis)
    object.__setattr__(basis, "dimension", generators[0].dimension)
    object.__setattr__(basis, "fields", tuple(fields))
    object.__setattr__(basis, "_brackets", brackets)
    return basis


def lie_dimension(generators: Sequence[PolyVectorField], cap: int = DEFAULT_CLOSURE_CAP) -> int:
    """Dimension of the Lie algebra the generators generate, the number
    ``closure(generators, cap).size`` gives, found with fewer brackets.

    The independent generators G open a list of basis fields in one plain
    integer echelon; each basis field, in order, is bracketed with the
    generators only, and a bracket joins the list iff it enlarges the
    span.  The i-th generator is bracketed only with the generators before
    it, as [g_j, g_i] for j < i, the orientation and order of ``closure``'s
    pair loop.  That is |G| * r - |G| (|G| + 1) / 2 brackets where the full
    pair loop takes r (r - 1) / 2.

    Why the final span V is the whole algebra Lie(G): V contains G and
    lies in Lie(G), its fields being iterated brackets of G, and
    [g, V] is in V for every g in G.  The x in Lie(G) with [x, V] in V
    form a subspace S that contains G, and S is closed under brackets:
    for x, y in S and v in V, the Jacobi identity gives
    [[x, y], v] = [x, [y, v]] - [y, [x, v]], which lies in V.  So S is a
    subalgebra containing G, that is S = Lie(G); in particular
    [V, V] is in V, and the subalgebra V that contains G is Lie(G).

    The argument checks are those of ``closure``, and an algebra of
    dimension above ``cap`` raises CapExceeded(cap, cap + 1) as it does.
    """
    return len(_ad_span(_checked_generators(generators, cap), cap)[0])


class StructureConstants:
    """c[a][b][g] with [Y_a, Y_b] = sum_g c[a][b][g] Y_g, exact, as integer
    numerators over one least denominator ``den``: ``planes[a]`` holds
    {(b, g): N} for the nonzero entries, both orders of every pair, with
    c[a][b][g] = N / den, and ``c`` is the dense view of Fractions.  The
    constructor drops zero numerators and divides out the gcd of ``den``
    and the rest, so two routes to one table give equal ``den`` and
    ``planes``.  The first ``k`` basis fields generate the algebra: k is
    the number of independent generators that open a ``closure`` basis,
    and r for any other table."""

    __slots__ = ("r", "k", "den", "planes", "_dense")

    def __init__(self, planes: Sequence[Mapping[tuple[int, int], int]], den: int, k: int | None = None):
        r = len(planes)
        if any(b not in range(r) or g not in range(r) for plane in planes for b, g in plane):
            raise ValueError(f"structure constant indices must lie in range({r})")
        if k is not None and k not in range(min(r, 1), r + 1):
            raise ValueError(f"k = {k} generators do not fit {r} basis fields")
        common = gcd(den, *(v for plane in planes for v in plane.values()))  # zeros leave it as it is
        planes = tuple({key: v // common for key, v in plane.items() if v} for plane in planes)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "k", r if k is None else k)
        object.__setattr__(self, "den", den // common)
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
        get, den = self.planes[alpha].get, self.den
        return tuple(_ZERO if (n := get((beta, g))) is None else Fraction(n, den) for g in range(self.r))

    def nonzero(self) -> list[tuple[int, int, int, Fraction]]:
        """(a, b, g, c[a][b][g]) for the nonzero constants with a < b, sorted."""
        entries = ((a, b, g, n) for a, plane in enumerate(self.planes) for (b, g), n in plane.items() if a < b)
        return sorted((a, b, g, Fraction(n, self.den)) for a, b, g, n in entries)


def structure_constants(basis: LieBasis) -> StructureConstants:
    """Expand every bracket of basis fields in the basis, exactly.

    A basis from ``closure`` carries the expansions of the brackets its
    pair loop formed before it stopped; the loop resumes where it stopped,
    taking a bracket the ``lie_dimension`` pass formed from it.  Any other
    basis runs the same loop from its first pair over an echelon seeded
    with its fields.  Raises NotClosed(alpha, beta) if some bracket escapes
    the span, which a closure basis never does, and ExponentLimitError as
    ``closure`` does.
    """
    brackets = basis._brackets
    if brackets is None:
        brackets = _Brackets(basis.fields)

    def outside(j: int, i: int, bracket: PolyVectorField):
        raise NotClosed(j, i)

    brackets.bracket_pairs(list(basis.fields), outside)
    expansions = {pair: brackets.coordinates(t) for pair, t in brackets.pairs.items()}
    den = lcm(*[d for d, _ in expansions.values()])
    planes: list[dict[tuple[int, int], int]] = [{} for _ in range(basis.size)]
    for (a, b), (d, coordinates) in expansions.items():
        m = den // d
        for g, n in coordinates.items():
            planes[a][b, g] = n * m
            planes[b][a, g] = -n * m
    return StructureConstants(planes, den, brackets.generators)


def killing_form(sc: StructureConstants) -> list[list[Fraction]]:
    """K[a][b] = sum_{g,d} c[a][g][d] * c[b][d][g], exact and symmetric.

    The table's integer numerators over its denominator D are indexed
    once by their transposed key, (g, d) -> [(b, D c[b][d][g])]; K[a][b]
    then sums only over the entries of plane a that meet a nonzero entry
    of plane b, in integers, and is that sum over D^2.
    """
    r = sc.r
    den, planes = sc.den, sc.planes
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
    """Dimension of {v : [v, Y_b] = 0 for every b < k} via an exact
    nullspace: r minus the rank of the rows (b, g), b < k, each
    {a: c[a][b][g]} over its nonzero entries only, as the table's integer
    numerators (its common denominator leaves the rank as it is).
    That is the center: the centralizer of v is a subalgebra, by the
    Jacobi identity, so it is the whole algebra once it holds the k
    generators.  Equal rows are eliminated once."""
    k = sc.k
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for a, plane in enumerate(sc.planes):
        for key, v in plane.items():
            if key[0] < k:
                rows.setdefault(key, {})[a] = v
    distinct = {tuple(row.items()): row for row in rows.values()}
    return sc.r - sparse_rank(list(distinct.values()))


def is_modular_basis(basis: LieBasis, samples: int = 20, seed: int = 0) -> bool:
    """True iff the fields are linearly independent at some sampled point;
    an empty basis is.

    Pointwise rank is lower-semicontinuous, so a single full-rank witness
    certifies genericity; several seeded rational points (coordinates in
    [-10, 10], denominators <= 16) guard against landing on a thin zero
    set.  Ranks are exact.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    r = basis.size
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
