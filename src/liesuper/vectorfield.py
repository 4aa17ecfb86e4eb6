"""Polynomial vector fields, their Lie brackets, and time-dependent systems.

A ``PolyVectorField`` on R^n holds one Poly per coordinate.  ``lie_bracket``
computes [X, Y] in one pass over integer forms: each field keeps (built
once, on first use) its components and their partial derivatives as
integer numerators over one denominator per field, the lcm of its
coefficient denominators, with each monomial packed into one int
(Kronecker substitution): the exponent of x_j sits in a 32-bit field at
bit 32*j, so a product of monomials is one integer addition and a partial
derivative in x_j subtracts ``1 << 32*j``.  An exponent above
``EXPONENT_LIMIT`` = 2^32 - 1 does not fit: packing such a field, or
bracketing two fields whose largest exponents add up past it, raises
``ExponentLimitError``.  Each bracket component is summed as integers in
one dict keyed by packed monomials, and the result keeps these sums over
the denominator D_X * D_Y: its Fraction ``components`` are built on their
first read (``closure`` decides independence on the sums alone and never
reads the components of a bracket it rejects), with the same terms in
the same insertion order as an eager build.

Time-dependent systems come in two shapes:

* ``TDVectorField`` -- a sum of (time function) * (autonomous polynomial
  field) terms.  This decomposed storage is what makes minimal-Lie-algebra
  computations exact: the closure is taken over the constituent autonomous
  fields rather than estimated from samples.

* ``GenericRHS`` -- an opaque but deterministic right-hand side, for
  systems whose components are not polynomial in the state (or are more
  convenient to evaluate directly).  These are only ever integrated, never
  bracketed.

``diagonal_prolong`` copies a field blockwise onto several copies of its
state space; ``direct_product`` glues time-dependent systems on different
spaces into one system on the product space.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence, Union

import numpy as np

from .algebra import Poly
from .parsing import TimeConstant, TimeFunction, define_function, float_literal

State = Sequence[float]


EXPONENT_BITS = 32
EXPONENT_LIMIT = (1 << EXPONENT_BITS) - 1
"""The largest exponent of one variable that a packed monomial key holds."""


class ExponentLimitError(ValueError):
    """A monomial exponent does not fit the packed keys of ``lie_bracket``."""

    def __init__(self, exponent: int):
        super().__init__(
            f"exponent {exponent} is above the packed monomial limit {EXPONENT_LIMIT} (2^{EXPONENT_BITS} - 1)"
        )
        self.exponent = exponent


def _shifts(n: int) -> range:
    """The bit offset of each variable's exponent in a packed monomial."""
    return range(0, EXPONENT_BITS * n, EXPONENT_BITS)


def _unpack(key: int, n: int) -> tuple[int, ...]:
    return tuple((key >> shift) & EXPONENT_LIMIT for shift in _shifts(n))


class PolyVectorField:
    """An autonomous vector field on R^n with polynomial components.

    A field made by ``lie_bracket`` starts as integer sums keyed by packed
    monomials (``_sums``) and builds its Fraction ``components`` on their
    first read."""

    __slots__ = ("dimension", "_components", "_integer", "_sums")

    def __init__(self, components: Sequence[Poly]):
        components = tuple(components)
        if not components:
            raise ValueError("a vector field needs at least one component")
        n = len(components)
        for p in components:
            if p.arity != n:
                raise ValueError(f"component arity {p.arity} does not match dimension {n}")
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "_components", components)
        object.__setattr__(self, "_integer", None)
        object.__setattr__(self, "_sums", None)

    @classmethod
    def _from_sums(cls, n: int, den: int, sums: list[dict]) -> PolyVectorField:
        """The field whose component i is ``sum(v * x^unpack(k)) / den`` over
        ``sums[i]``, a dict {packed monomial: int} that may hold zeros."""
        field = object.__new__(cls)
        object.__setattr__(field, "dimension", n)
        object.__setattr__(field, "_components", None)
        object.__setattr__(field, "_integer", None)
        object.__setattr__(field, "_sums", (den, sums))
        return field

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PolyVectorField is immutable")

    @property
    def components(self) -> tuple[Poly, ...]:
        comps = self._components
        if comps is None:
            n = self.dimension
            den, sums = self._sums
            comps = tuple(
                Poly._from_clean(n, {_unpack(k, n): Fraction(v, den) for k, v in acc.items() if v}) for acc in sums
            )
            object.__setattr__(self, "_components", comps)
        return comps

    @classmethod
    def zero(cls, dimension: int) -> PolyVectorField:
        return cls([Poly.zero(dimension)] * dimension)

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.components)

    def __add__(self, other: PolyVectorField) -> PolyVectorField:
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        return PolyVectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: PolyVectorField) -> PolyVectorField:
        return self + (-other)

    def __neg__(self) -> PolyVectorField:
        return PolyVectorField([-p for p in self.components])

    def __mul__(self, scalar) -> PolyVectorField:
        return PolyVectorField([p * scalar for p in self.components])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyVectorField)
            and self.dimension == other.dimension
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash(self.components)

    def evaluate(self, point: Sequence) -> list:
        """Component values at a point; exact when the point is exact."""
        return [p.evaluate(point) for p in self.components]

    def coefficient_vector(self) -> dict:
        """Sparse coefficient vector keyed by (component, monomial).

        Linear independence of polynomial fields over R is exactly linear
        independence of these vectors, which is how rank computations stay
        sample-free.
        """
        out = {}
        for i, p in enumerate(self.components):
            for exps, c in p.terms.items():
                out[(i, exps)] = c
        return out

    def integer_vector(self) -> tuple[int, dict[int, int]]:
        """``(D, vec)`` with ``vec`` D times the coefficient vector, keyed by
        ``packed monomial * n + component``: what ``closure`` eliminates.
        A bracket gives its own sums over D = D_X * D_Y, read without
        building its components."""
        n = self.dimension
        if self._sums is not None:
            den, sums = self._sums
            return den, {k * n + i: v for i, acc in enumerate(sums) for k, v in acc.items() if v}
        den, terms, _, _ = self._integer_form()
        return den, {k * n + i: v for i, comp in enumerate(terms) for k, v in comp}

    def _integer_form(self) -> tuple[int, list, list, int]:
        """``(D, terms, partials, top)``: D is the lcm of every coefficient
        denominator, ``terms[i]`` lists the ``(packed monomial, numerator)``
        pairs of D times component i, ``partials[i][j]`` those of D times
        its derivative in x_j, and ``top`` is the largest exponent of any
        variable.  Built on first use and kept; a bracket's is read off its
        sums, so its components are never built for it."""
        form = self._integer
        if form is None:
            n = self.dimension
            if self._sums is not None:
                den, sums = self._sums
                g = gcd(den, *(v for acc in sums for v in acc.values()))
                terms = [[(k, v // g) for k, v in acc.items() if v] for acc in sums]
                den //= g
            else:
                den = lcm(1, *(c.denominator for p in self.components for c in p.terms.values()))
                terms = []
                for p in self.components:
                    comp = []
                    for e, c in p.terms.items():
                        if max(e, default=0) > EXPONENT_LIMIT:
                            raise ExponentLimitError(max(e))
                        key = sum(k << shift for shift, k in zip(_shifts(n), e))
                        comp.append((key, c.numerator * (den // c.denominator)))
                    terms.append(comp)
            top = 0
            partials = []
            for comp in terms:
                rows: list[list] = [[] for _ in range(n)]
                for key, v in comp:
                    for j, shift in enumerate(_shifts(n)):
                        k = (key >> shift) & EXPONENT_LIMIT
                        if k:
                            rows[j].append((key - (1 << shift), v * k))
                            if k > top:
                                top = k
                partials.append(rows)
            form = (den, terms, partials, top)
            object.__setattr__(self, "_integer", form)
        return form

    def to_text(self, names: Sequence[str] | None = None) -> str:
        comps = ", ".join(p.to_text(names) for p in self.components)
        return f"({comps})"

    def __repr__(self) -> str:
        return f"PolyVectorField{self.to_text()}"


def lie_bracket(x: PolyVectorField, y: PolyVectorField) -> PolyVectorField:
    """Exact commutator [X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i).

    Each component is summed in one dict of integers keyed by packed
    monomials, from the two fields' integer forms; the result holds these
    sums over D_X * D_Y and builds its Fraction components on first read.
    Raises ExponentLimitError, before any work, when the two fields'
    largest exponents add up past ``EXPONENT_LIMIT``.
    """
    if x.dimension != y.dimension:
        raise ValueError(f"dimension mismatch: {x.dimension} vs {y.dimension}")
    n = x.dimension
    dx, xterms, xpartials, xtop = x._integer_form()
    dy, yterms, ypartials, ytop = y._integer_form()
    if xtop + ytop > EXPONENT_LIMIT:
        raise ExponentLimitError(xtop + ytop)
    sums = []
    for i in range(n):
        acc: dict[int, int] = {}
        get = acc.get
        for j in range(n):
            for ea, va in xterms[j]:
                for eb, vb in ypartials[i][j]:
                    key = ea + eb
                    acc[key] = get(key, 0) + va * vb
            for ea, va in yterms[j]:
                for eb, vb in xpartials[i][j]:
                    key = ea + eb
                    acc[key] = get(key, 0) - va * vb
        sums.append(acc)
    return PolyVectorField._from_sums(n, dx * dy, sums)


def diagonal_prolong(x: PolyVectorField, copies: int) -> PolyVectorField:
    """The field on R^{n*copies} applying X to each block's own variables."""
    if copies < 1:
        raise ValueError("copies must be at least 1")
    n = x.dimension
    total = n * copies
    comps = []
    for a in range(copies):
        index_map = [a * n + j for j in range(n)]
        for i in range(n):
            comps.append(x.components[i].remap(total, index_map))
    return PolyVectorField(comps)


class TDVectorField:
    """A time-dependent field sum_alpha b_alpha(t) * Y_alpha."""

    __slots__ = ("dimension", "terms", "_compiled", "_compiled_rows")

    def __init__(self, terms: Sequence[tuple[TimeFunction, PolyVectorField]]):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a time-dependent field needs at least one term")
        n = terms[0][1].dimension
        for _, field in terms:
            if field.dimension != n:
                raise ValueError("all terms must share one dimension")
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_compiled", None)
        object.__setattr__(self, "_compiled_rows", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("TDVectorField is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TDVectorField)
            and self.dimension == other.dimension
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(self.terms)

    def collect(self) -> TDVectorField:
        """Merge terms with structurally equal time coefficients and drop
        zero fields; used for structural comparisons of products."""
        order: list[TimeFunction] = []
        acc: dict[TimeFunction, PolyVectorField] = {}
        for tf, field in self.terms:
            if tf in acc:
                acc[tf] = acc[tf] + field
            else:
                order.append(tf)
                acc[tf] = field
        merged = [(tf, acc[tf]) for tf in order if not acc[tf].is_zero]
        if not merged:
            merged = [(self.terms[0][0], PolyVectorField.zero(self.dimension))]
        return TDVectorField(merged)

    def constituent_fields(self) -> list[PolyVectorField]:
        return [field for _, field in self.terms]

    def evaluate(self, t: float | np.ndarray, state: State) -> list:
        """Component values at (t, state).  A state is a sequence with one
        entry per coordinate, each a float or a 1-D array of rows (the
        coordinate-major layout the batched integrators pass); a component
        is then a float or an array of rows.  ``t`` is a float, or a 1-D
        array with each row's own time."""
        if len(state) != self.dimension:
            raise ValueError(f"state of length {len(state)} for dimension {self.dimension}")
        # a float t, every call but the RKF45 lockstep's, makes no call here
        if t.__class__ is not float and isinstance(t, np.ndarray):
            compiled = self._compiled_rows
            if compiled is None:
                compiled = self._compile(per_row=True)
                object.__setattr__(self, "_compiled_rows", compiled)
            return compiled(t, state)
        compiled = self._compiled
        if compiled is None:
            compiled = self._compile(per_row=False)
            object.__setattr__(self, "_compiled", compiled)
        return compiled(t, state)

    def _compile(self, per_row: bool) -> Callable[[float, State], list]:
        """One straight-line function of (t, state).

        Each distinct time coefficient's statements run once per call,
        where its first term needs the value.  Component i is summed term
        by term as ``o_i = 0.0 + s * (m_1 + m_2 + ...)``, then
        ``o_i = o_i + ...``, each monomial ``m`` being
        ``coefficient * x_j * x_k ** e ...`` left to right: the operations of
        the plain per-monomial loop, so float results are bit-identical to
        it.  Omitted are only the exact no-ops ``1.0 * v`` (a coefficient or
        a constant time coefficient of one), ``-1.0 * v`` written ``-v``, and
        the zero that each monomial sum started from (it changes at most the
        sign of a zero sum, which ``0.0 + ...`` erases).

        ``per_row`` compiles for an array of per-row times: each time
        coefficient other than a constant is then the array of its compiled
        scalar function's values, one call per row (``time_rows``), so each
        row gets the coefficient that its own float time gives.
        """
        n = self.dimension
        namespace: dict = {"_rows": time_rows}
        lines = [f"{''.join(f'x{j}, ' for j in range(n))}= s"]
        coefficients: dict[TimeFunction, str] = {}
        assigned = [False] * n
        for tf, field in self.terms:
            if tf not in coefficients:
                if per_row and not isinstance(tf, TimeConstant):
                    name = f"c{len(coefficients)}"
                    namespace[f"_{name}"] = tf.compile()
                    lines.append(f"{name} = _rows(_{name}, t)")
                    coefficients[tf] = name
                else:
                    coefficients[tf] = tf.emit(lines, namespace)
            s = coefficients[tf]
            for i, p in enumerate(field.components):
                if not p.terms:
                    continue
                total = " + ".join(_monomial_source(exps, c) for exps, c in p.terms.items())
                part = f"({total})" if s == "1.0" else f"{s} * ({total})"
                lines.append(f"o{i} = {f'o{i}' if assigned[i] else '0.0'} + {part}")
                assigned[i] = True
        out = ", ".join(f"o{i}" if assigned[i] else "0.0" for i in range(n))
        return define_function("t, s", lines, f"[{out}]", namespace)


def time_rows(f: Callable[[float], float], t: np.ndarray) -> np.ndarray:
    """``f`` at each entry of a 1-D array of per-row times, one scalar call
    per row (so never numpy's own sin or exp)."""
    return np.array([f(ti) for ti in t.tolist()], dtype=float)


def _monomial_source(exps: tuple[int, ...], c: Fraction) -> str:
    factors = " * ".join(f"x{j}" if e == 1 else f"x{j} ** {e}" for j, e in enumerate(exps) if e)
    value = float(c)
    if not factors:
        return float_literal(value)
    if value == 1.0:
        return factors
    if value == -1.0:
        return f"-{factors}"
    return f"{float_literal(value)} * {factors}"


class GenericRHS:
    """A deterministic right-hand side f(t, state) of fixed dimension.
    ``integrate_batch`` calls it with a coordinate-major state of row
    arrays and, under RKF45, with ``t`` a 1-D array of per-row times."""

    __slots__ = ("dimension", "_fn", "label")

    def __init__(self, dimension: int, fn: Callable[[float, State], Sequence[float]], label: str = ""):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "_fn", fn)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GenericRHS is immutable")

    def evaluate(self, t: float, state: State) -> list[float]:
        if len(state) != self.dimension:
            raise ValueError(f"state of length {len(state)} for dimension {self.dimension}")
        out = self._fn(t, state)
        return list(out)

    def __repr__(self) -> str:
        return f"GenericRHS(dim={self.dimension}, {self.label!r})"


AnyRHS = Union[TDVectorField, GenericRHS]


def direct_product(systems: Sequence[TDVectorField]) -> TDVectorField:
    """Join time-dependent systems on a product space.

    The projection onto each factor recovers that factor's field: each
    term of each factor is embedded into its own coordinate block and the
    time coefficients are kept as they are.
    """
    systems = list(systems)
    if not systems:
        raise ValueError("direct product of an empty family")
    total = sum(s.dimension for s in systems)
    terms: list[tuple[TimeFunction, PolyVectorField]] = []
    offset = 0
    for system in systems:
        n = system.dimension
        index_map = [offset + j for j in range(n)]
        for tf, field in system.terms:
            comps = [Poly.zero(total) for _ in range(total)]
            for i, p in enumerate(field.components):
                comps[offset + i] = p.remap(total, index_map)
            terms.append((tf, PolyVectorField(comps)))
        offset += n
    return TDVectorField(terms)


def join_rhs(parts: Sequence[AnyRHS]) -> GenericRHS:
    """Blockwise join of heterogeneous right-hand sides (evaluation only)."""
    parts = list(parts)
    if not parts:
        raise ValueError("cannot join an empty family")
    dims = [p.dimension for p in parts]
    total = sum(dims)
    offsets = []
    acc = 0
    for d in dims:
        offsets.append(acc)
        acc += d

    def fn(t: float, state: State) -> list[float]:
        out: list[float] = []
        for part, off, d in zip(parts, offsets, dims):
            out.extend(part.evaluate(t, state[off : off + d]))
        return out

    return GenericRHS(total, fn, label="join")


def eval_rhs(rhs: AnyRHS, t: float, state: State) -> list[float]:
    """Evaluate a right-hand side at (t, state)."""
    return rhs.evaluate(t, state)
