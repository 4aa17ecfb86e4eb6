"""Polynomial vector fields, their Lie brackets, and time-dependent systems.

A ``PolyVectorField`` on R^n holds one Poly per coordinate.  ``lie_bracket``
computes [X, Y] in one pass over integer forms: each field keeps (built
once, on first use) its components and their partial derivatives as
integer numerators over one denominator per field, the lcm of its
coefficient denominators, with each monomial packed into one int
(Kronecker substitution): the exponent of x_j is a balanced (signed)
digit in a 34-bit field at bit 34*j, so a product of monomials is one
integer addition, a partial derivative in x_j subtracts ``1 << 34*j``, and
a Laurent field such as the Pinney target brackets like any other.  The
keys order monomials as their exponent vectors order lexicographically,
as unsigned digits would.  An exponent e with |e| above ``EXPONENT_LIMIT``
= 2^32 - 1 does not fit: packing such a field, or bracketing two fields
whose largest |e| add up past it, raises ``ExponentLimitError``.  Each
bracket component is summed as integers in one dict keyed by packed
monomials, and the result keeps these sums over the denominator D_X * D_Y:
its Fraction ``components`` are built on their first read (``closure``
decides independence on the sums alone and never reads the components of
a bracket it rejects), with the same terms in the same insertion order as
an eager build.

A time-dependent system is a ``TDVectorField``: a sum of (time function) *
(autonomous field) terms.  This decomposed storage is what makes
minimal-Lie-algebra computations exact: the closure is taken over the
constituent autonomous fields rather than estimated from samples.  It is
also the one right-hand side the integrators take, compiled once per field
into ``evaluate`` on a point (a list of floats back) and the block kernel
of ``bind(state, out)``, which writes the values of the (dim, rows) float
ndarray of states ``state`` into ``out``, ``t`` being a float or a 1-D
array of per-row times: how ``integrate_batch`` advances many states.

``diagonal_prolong`` copies a field onto several copies of its state
space, the copies of each coordinate side by side; ``direct_product``
glues time-dependent systems on different spaces into one system on the
product space, such as a superposition rule's target joined with its
components.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import gcd, isfinite, lcm, nan
from typing import Callable, Sequence

import numpy as np

from .algebra import Poly, power_plan
from .parsing import TimeFunction, TimeVariable, define_function, float_literal

State = Sequence[float]


EXPONENT_BITS = 32
EXPONENT_LIMIT = (1 << EXPONENT_BITS) - 1
"""The largest |exponent| of one variable that a packed monomial key holds."""

# a packed field holds a balanced digit in [-2^33, 2^33 - 1]: room for a
# bracket's exponents, which lie in [-2^32, 2^32 - 2], and their partials
_FIELD_BITS = EXPONENT_BITS + 2
_HALF = 1 << (_FIELD_BITS - 1)
_MASK = (1 << _FIELD_BITS) - 1


class ExponentLimitError(ValueError):
    """A monomial exponent does not fit the packed keys of ``lie_bracket``:
    its absolute value is above ``EXPONENT_LIMIT``."""

    def __init__(self, exponent: int):
        side = "above" if exponent > 0 else f"below -{EXPONENT_LIMIT}, minus"
        super().__init__(f"exponent {exponent} is {side} the packed monomial limit {EXPONENT_LIMIT} (2^{EXPONENT_BITS} - 1)")
        self.exponent = exponent


def _shifts(n: int) -> range:
    """The bit offset of each variable's exponent in a packed monomial."""
    return range(0, _FIELD_BITS * n, _FIELD_BITS)


@cache
def _bias(n: int) -> int:
    """_HALF in every field: added to a key, it turns each balanced digit e
    into the unsigned digit e + _HALF, read with one shift and mask."""
    return sum(_HALF << shift for shift in _shifts(n))


def _unpack(key: int, n: int) -> tuple[int, ...]:
    key += _bias(n)
    return tuple(((key >> shift) & _MASK) - _HALF for shift in _shifts(n))


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

    def derivative(self, f: Poly) -> Poly:
        """Z(f) = sum_i Z_i df/dx_i, exact, Laurent terms included.  The sum
        runs over f's terms, then each term's variables x_0, x_1, ..., then
        the terms of Z_i, and keeps its terms in the order they first
        appear there: the order in which the compiled P sequence of the
        Riccati hierarchy adds its monomials."""
        n = self.dimension
        if f.arity != n:
            raise ValueError(f"polynomial arity {f.arity} does not match dimension {n}")
        comps = self.components
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in f.terms.items():
            for i, e in enumerate(exps):
                if not e:
                    continue
                lowered = list(exps)
                lowered[i] = e - 1
                for zexps, zc in comps[i].terms.items():
                    key = tuple(a + b for a, b in zip(lowered, zexps))
                    v = out.get(key, 0) + c * e * zc
                    if v:
                        out[key] = v
                    else:
                        out.pop(key, None)
        return Poly._from_clean(n, out)

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
        its derivative in x_j, and ``top`` is the largest |exponent| of any
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
                        if max(map(abs, e), default=0) > EXPONENT_LIMIT:
                            raise ExponentLimitError(max(e, key=abs))
                        key = sum(k << shift for shift, k in zip(_shifts(n), e))
                        comp.append((key, c.numerator * (den // c.denominator)))
                    terms.append(comp)
            top = 0
            partials = []
            bias = _bias(n)
            for comp in terms:
                rows: list[list] = [[] for _ in range(n)]
                for key, v in comp:
                    biased = key + bias
                    for j, shift in enumerate(_shifts(n)):
                        k = ((biased >> shift) & _MASK) - _HALF
                        if k:
                            rows[j].append((key - (1 << shift), v * k))
                            if abs(k) > top:
                                top = abs(k)
                partials.append(rows)
            form = (den, terms, partials, top)
            object.__setattr__(self, "_integer", form)
        return form

    def to_text(self) -> str:
        comps = ", ".join(p.to_text() for p in self.components)
        return f"({comps})"

    def __repr__(self) -> str:
        return f"PolyVectorField{self.to_text()}"


def lie_bracket(x: PolyVectorField, y: PolyVectorField) -> PolyVectorField:
    """Exact commutator [X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i).

    Each component is summed in one dict of integers keyed by packed
    monomials, from the two fields' integer forms; the result holds these
    sums over D_X * D_Y and builds its Fraction components on first read.
    Raises ExponentLimitError, before any work, when the two fields'
    largest |exponents| add up past ``EXPONENT_LIMIT``.
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
        ypi, xpi = ypartials[i], xpartials[i]
        for j in range(n):
            # a side with no terms or no partials adds nothing: skipping it
            # keeps the order in which keys enter acc
            if xterms[j] and ypi[j]:
                for ea, va in xterms[j]:
                    for eb, vb in ypi[j]:
                        key = ea + eb
                        acc[key] = get(key, 0) + va * vb
            if yterms[j] and xpi[j]:
                for ea, va in yterms[j]:
                    for eb, vb in xpi[j]:
                        key = ea + eb
                        acc[key] = get(key, 0) - va * vb
        sums.append(acc)
    return PolyVectorField._from_sums(n, dx * dy, sums)


def diagonal_prolong(x: PolyVectorField, copies: int) -> PolyVectorField:
    """The field on R^{n*copies} applying X to each copy's own variables,
    coordinate j of copy c being coordinate ``j * copies + c``: the copies
    of one coordinate are consecutive, so that a compiled kernel computes
    them with one call on a contiguous block of rows."""
    if copies < 1:
        raise ValueError("copies must be at least 1")
    n = x.dimension
    total = n * copies
    return PolyVectorField(
        [x.components[j].remap(total, [k * copies + c for k in range(n)]) for j in range(n) for c in range(copies)]
    )


class TDVectorField:
    """A time-dependent field sum_alpha b_alpha(t) * Y_alpha."""

    __slots__ = ("dimension", "terms", "_compiled")

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

    def constituent_fields(self) -> list[PolyVectorField]:
        return [field for _, field in self.terms]

    def evaluate(self, t: float, state: State) -> list:
        """Component values at (t, state), a point (a sequence of one float
        per coordinate), as a list of floats; a block of states goes
        through ``bind``."""
        if len(state) != self.dimension:
            raise ValueError(f"state of length {len(state)} for dimension {self.dimension}")
        return (self._compiled or self._compile())[0](t, state)

    def bind(self, state: np.ndarray, out: np.ndarray) -> Callable[[float | np.ndarray], None]:
        """The kernel, bound once to two (dim, rows) float64 buffers, whose call
        ``kernel(t)`` writes the values of the states in ``state`` into ``out``,
        ``t`` being a float or a 1-D array of one time per row."""
        return (self._compiled or self._compile())[1](state, out)

    def _compile(self) -> tuple[Callable, Callable]:
        """The point form and the kernel's binder, straight-line Python.

        Each distinct time coefficient is computed once per call into
        ``c<k>``.  One that does not read t is folded into a float literal
        (unless its evaluation raises or is not finite), and a term whose
        coefficient folds to zero is dropped.  Component i is one list of
        statements, ``o_i = s * (m_1 + m_2 + ...)`` for its first term and
        ``o_i = o_i + ...`` for each later one (``o_i = 0.0`` when no term
        reaches it), each monomial ``m`` being ``coefficient * x_j * x_k^e
        ...`` left to right.  Both forms run these statements and close with
        one ``0.0 +``: the point form on floats, returning ``[0.0 + o_0,
        ...]``, and the kernel as ufunc calls into bound rows
        (``_kernel_calls``, a bare name or a literal being a row copy
        ``o_i[...] = x_j``), ending each call with one ``out = 0.0 + out``
        over the whole block.  These are the operations of the plain
        per-monomial loop, which sums from 0.0, with its bits: under round
        to nearest, ``(0.0 + a) + b`` and ``(a + b) + 0.0`` have the same
        bits (for a != +-0, a + b is never -0.0, so both are a + b; for
        a = +-0, both are b with -0.0 made +0.0; a NaN or an inf passes
        through both alike, and adding 0.0 raises no floating-point flag),
        and by induction the ``0.0 +`` moves past every later part.
        Omitted are only the exact no-ops ``1.0 * v``, ``-1.0 * v`` written
        ``-v``, and the zero that each monomial sum started from (it changes
        at most the sign of a zero sum, which the closing ``0.0 +`` erases,
        and so a dropped term's +-0.0 is exact on finite states);
        ``-s * (m)`` is ``s * (-m)`` negating one float, and a negated
        monomial after the first of a sum, or a later part that is one
        negated monomial, is subtracted: ``a - m`` is the IEEE operation
        ``a + (-m)`` for operands other than NaN, and ``-(x * y)`` and
        ``(-x) * y`` have the same bits.

        The kernel runs a statement on a block of consecutive rows when the
        statements of the next rows are its translates (``_merged``): the
        copies of one coordinate in a ``diagonal_prolong``ed field, or a
        chain ``o_i = x_{i+1}``.  So the Pinney rule's joint kernel makes 6
        ufunc calls and 2 row copies at omega = 1, and the hierarchy rule's
        joint kernel at order 5 (b = 1, 0, ...) one negation and one row
        copy for its five companion copies.

        A power has one rule: x_j^e, e >= 1, is the square-and-multiply
        products of ``algebra.power_plan``, each made once per call into a
        name ``x<j>_<k>`` that every monomial reading x_j^k shares (so the
        statements grow with log e), and a negative power divides by them,
        ``c / x0_3`` for c x0^-3.  The powers are computed by exponent, then
        variable, the kernel's power rows in that order.  An exponent too
        large for a float is written ``x_j * e``, which raises OverflowError
        on each call in Python and numpy alike, as ``x_j ** e`` does.

        Every operand of the kernel's ufunc calls is a float64 array: a
        ufunc call on 20-row operands costs 0.35-0.37 us, and 0.54-0.59 us
        when one operand is a Python float, which numpy converts on each
        call (numpy 2.4, a 2-core Xeon VM).  A literal (``0.0``, a folded
        coefficient) is a read-only 0-d array made once here; each
        coefficient ``c<k>`` and each ``-c<k>`` the statements read is a
        row (a block of rows, for a statement run on a block: numpy
        broadcasts a row over a block on a slower path) that ``bind``
        allocates for that binding alone and that each call writes once: at
        a float t, one evaluation of the coefficients whose values ``fill``
        the rows; at per-row times, one evaluation per row, the values of
        all rows written in order from one flat list into the slots' block
        (per-row times of another length than the rows raise ValueError).
        The ufuncs see the float64 values they saw as Python floats, so the
        bits do not move.
        """
        n = self.dimension
        namespace: dict = dict(_KERNEL_NAMES)
        times: list[str] = []  # the statements of the coefficients c<k>
        sums: list[tuple[int, str]] = []  # (i, a statement of o_i)
        coefficients: dict[TimeFunction, str | None] = {}
        powers: dict[tuple[int, int], str] = {}  # the statement of each power x<j>_<k>, keyed (k, j)
        assigned = [False] * n
        for tf, field in self.terms:
            if tf not in coefficients:
                try:
                    value = nan if _reads_t(tf) else tf.eval(0.0)
                except (ArithmeticError, ValueError):
                    value = nan
                if isfinite(value):
                    coefficients[tf] = float_literal(value) if value else None
                else:
                    coefficients[tf] = name = f"c{len(coefficients)}"
                    times.append(f"{name} = {tf.emit(times, namespace)}")
            s = coefficients[tf]
            for i, p in enumerate(field.components):
                if s is None or not p.terms:
                    continue
                first, *rest = (_monomial_source(exps, c, powers) for exps, c in p.terms.items())
                total = first + "".join(f" - {m[1:]}" if m[0] == "-" else f" + {m}" for m in rest)
                negated = not rest and first[0] == "-"
                if s == "1.0":
                    part = f"({total})"
                elif negated:
                    # s * (-m) as -s * (m): in a kernel, s is one float
                    part = f"-{s} * ({total[1:]})"
                else:
                    part = f"{s} * ({total})"
                if not assigned[i]:
                    sums.append((i, f"o{i} = {part}"))
                elif s == "1.0" and negated:
                    sums.append((i, f"o{i} = o{i} - ({total[1:]})"))
                else:
                    sums.append((i, f"o{i} = o{i} + {part}"))
                assigned[i] = True
        sums += [(i, f"o{i} = 0.0") for i in range(n) if not assigned[i]]
        powers = dict(sorted(powers.items()))
        xs, os = (" ".join(f"{v}{j}," for j in range(n)) for v in "xo")
        results = f"[{', '.join(f'0.0 + o{i}' for i in range(n))}]"
        lines = [f"{xs} = s", *times, *powers.values(), *(line for _, line in sums)]
        point = define_function("t, s", lines, results, namespace)
        calls: list[str] = []
        operands = _Operands(namespace, [f"x{j}_{k}" for k, j in powers])
        for line, width in [*_merged(list(powers.items())), *_merged([((0, i), line) for i, line in sums])]:
            _kernel_calls(line, width, calls, operands)
        calls.append(f"_add({operands.constant(0.0)}, out, out)")
        kernel = [f"{xs} = s", f"{os} = out", *operands.bindings()]
        body = [f"    {call}" for call in calls]
        if operands.slots:
            # the slots are the rows of one block: each slot filled with its
            # value at a float t, or, at per-row times (one per row), the
            # block's transpose written in order from one flat list of values
            values = [source for source, height in operands.slots.items() for _ in range(height)]
            namespace["_cs"] = define_function("t", times, f"({', '.join(values)},)", namespace)
            body[:0] = [
                "    if t.__class__ is _ndarray:",
                # a flat list of another length would repeat or stop short
                "        if t.shape != cs.shape[1:]:",
                "            raise ValueError(f'{t.shape} times for a block of {cs.shape[1]} rows')",
                "        by_row.flat = [v for ti in t.tolist() for v in _cs(ti)]",
                "    else:",
                "        cv = _cs(t)",
                *(f"        cs{m}.fill(cv[{row}])" for m, row in enumerate(operands.slot_rows().values())),
            ]
        kernel += ["def kernel(t):", *body]
        object.__setattr__(self, "_compiled", (point, define_function("s, out", kernel, "kernel", namespace)))
        return self._compiled


# what a kernel calls; each ufunc writes into its ``out`` row
_KERNEL_NAMES = dict(_add=np.add, _sub=np.subtract, _mul=np.multiply, _div=np.divide, _neg=np.negative,
                     _empty=np.empty, _ndarray=np.ndarray)
_UFUNCS = {ast.Add: "_add", ast.Sub: "_sub", ast.Mult: "_mul", ast.Div: "_div"}


def _reads_t(tf: TimeFunction) -> bool:
    nodes = map(tf.__getattribute__, tf.__slots__)
    return isinstance(tf, TimeVariable) or any(isinstance(v, TimeFunction) and _reads_t(v) for v in nodes)


_INDEX = re.compile(r"\b([xo])(\d+)")


def _shifted(statement: str, d: int) -> str:
    """``statement`` on the rows d further on: every state, power and output
    index plus d."""
    return _INDEX.sub(lambda m: f"{m[1]}{int(m[2]) + d}", statement)


def _merged(statements: list[tuple[tuple[int, int], str]]) -> list[tuple[str, int]]:
    """The kernel's ``(statement, width)`` runs of ``statements``, each keyed
    by its row ``(group, index)``.  A statement takes with it the next
    pending statement of rows (group, index + 1), (group, index + 2), ...
    as long as each is its translate by that distance, and runs on the
    block of those rows.  Each row's statements keep their order, and a
    statement reads no other row's output, so every row gets the
    operations it got alone."""
    pending: dict[tuple[int, int], deque[int]] = {}
    for position, (key, _) in enumerate(statements):
        pending.setdefault(key, deque()).append(position)
    runs = []
    for position, ((group, index), statement) in enumerate(statements):
        own = pending[group, index]
        if not own or own[0] != position:
            continue  # in the run of an earlier statement
        own.popleft()
        width = 1
        while (nxt := pending.get((group, index + width))) and statements[nxt[0]][1] == _shifted(statement, width):
            nxt.popleft()
            width += 1
        runs.append((statement, width))
    return runs


class _Operands:
    """A kernel's operands: rows and blocks of its buffers, literals made
    once into its namespace, and coefficient slots, one block of rows per
    source ``c<k>`` or ``-c<k>`` that the statements read.  A
    statement run on ``width`` rows reads each name as the block of that
    row and the next ``width - 1``: ``x<j>`` of the state ``s``, ``o<i>``
    of ``out``, ``x<j>_<k>`` of the power rows (``powers``, in row order,
    where the powers of consecutive variables are consecutive), and a
    scratch value or a slot as a block of its own."""

    def __init__(self, namespace: dict, powers: list[str]):
        self.namespace = namespace
        self.constants: dict[str, str] = {}  # keyed by repr, so that 0.0 and -0.0 stay apart
        self.powers = {name: row for row, name in enumerate(powers)}
        self.blocks: dict[str, str] = {}  # a block's name -> its slice of a buffer
        self.slots: dict[str, int] = {}  # source -> rows of its block
        self.slot_names: dict[str, tuple[str, int]] = {}  # name -> (source, width)
        self.scratch = 1  # rows of the scratch buffer

    def constant(self, value) -> str:
        key = repr(value)
        if key not in self.constants:
            try:
                array = np.array(float(value))
            except OverflowError:
                # an exponent too large for a float: the ufunc raises on
                # each call, as the point form does
                return key
            array.flags.writeable = False
            self.constants[key] = name = f"k{len(self.constants)}"
            self.namespace[name] = array
        return self.constants[key]

    def rows(self, name: str, width: int) -> str:
        if width == 1:
            return name
        if name in self.powers:
            buffer, row = "pw", self.powers[name]
        else:
            buffer, row = ("s" if name[0] == "x" else "out"), int(name[1:])
        self.blocks[block := f"{name}__{width}"] = f"{buffer}[{row}:{row + width}]"
        return block

    def scratch_rows(self, level: int, width: int) -> str:
        self.scratch = max(self.scratch, (level + 1) * width)
        if width == 1:
            return f"w{level}"
        self.blocks[block := f"w{level}__{width}"] = f"ws[{level * width}:{(level + 1) * width}]"
        return block

    def slot(self, source: str, width: int) -> str:
        name = f"{source[1:]}_neg" if source[0] == "-" else source
        if width > 1:
            name = f"{name}__{width}"
        self.slots[source] = max(width, self.slots.get(source, 1))
        self.slot_names[name] = (source, width)
        return name

    def slot_rows(self) -> dict[str, int]:
        """The first row of each source's block in the slots' block."""
        return dict(zip(self.slots, accumulate(self.slots.values(), initial=0)))

    def bindings(self) -> list[str]:
        """The statements that ``bind`` runs: the buffers and their views."""
        lines = [f"{' '.join(f'w{k},' for k in range(self.scratch))} = ws = _empty(({self.scratch}, s.shape[1]))"]
        if self.powers:
            lines.append(f"{' '.join(f'{p},' for p in self.powers)} = pw = _empty(({len(self.powers)}, s.shape[1]))")
        if self.slots:
            # a source's block cs<m> has as many rows as its widest reader
            # reads, and a narrower reader reads its first rows
            first = self.slot_rows()
            lines += [f"cs = _empty(({sum(self.slots.values())}, s.shape[1]))", "by_row = cs.T"]
            lines += [f"cs{m} = cs[{first[c]}:{first[c] + rows}]" for m, (c, rows) in enumerate(self.slots.items())]
            for name, (source, width) in self.slot_names.items():
                a = first[source]
                lines.append(f"{name} = cs[{a}]" if width == 1 else f"{name} = cs[{a}:{a + width}]")
        return lines + [f"{block} = {where}" for block, where in self.blocks.items()]


def _kernel_calls(statement: str, width: int, calls: list[str], operands: _Operands) -> None:
    """Append the ufunc calls computing ``o_i = <expression>`` into row
    ``o_i`` and the ``width - 1`` rows after it, in Python's order, a right
    operand going into the next scratch block ``w<k>`` when the left one
    holds the current block.  A state row ``x<j>`` or power row ``x<j>_<k>``
    is an operand as it is, a subexpression without a name is a literal
    folded once into a 0-d constant (Python's float arithmetic, which the
    statement ran on each call), and ``c<k>`` and ``-c<k>`` are coefficient
    slots.  A statement that is one operand, a bare name or a literal, is a
    row copy ``o_i[...] = x_j``."""
    target, source = statement.split(" = ", 1)
    out = operands.rows(target, width)

    def emit(node: ast.expr, level: int) -> str:
        if isinstance(node, ast.Name):
            return operands.slot(node.id, width) if node.id[0] == "c" else operands.rows(node.id, width)
        if not any(isinstance(v, ast.Name) for v in ast.walk(node)):
            return operands.constant(eval(ast.unparse(node), {}))
        if isinstance(node, ast.UnaryOp) and getattr(node.operand, "id", "_")[0] == "c":
            return operands.slot(ast.unparse(node), width)
        dest = out if level < 0 else operands.scratch_rows(level, width)
        if isinstance(node, ast.UnaryOp):
            calls.append(f"_neg({emit(node.operand, level)}, {dest})")
        else:
            left = emit(node.left, level)
            calls.append(f"{_UFUNCS[type(node.op)]}({left}, {emit(node.right, level + (left == dest))}, {dest})")
        return dest

    result = emit(ast.parse(source, mode="eval").body, -1)
    if result != out:
        calls.append(f"{out}[...] = {result}")


def _monomial_source(exps: tuple[int, ...], c: Fraction, powers: dict[tuple[int, int], str]) -> str:
    factors = " * ".join(_factor_source(j, e, powers) for j, e in enumerate(exps) if e > 0)
    value = float(c)
    if not factors:
        source = float_literal(value)
    elif value == 1.0:
        source = factors
    elif value == -1.0:
        source = f"-{factors}"
    else:
        source = f"{float_literal(value)} * {factors}"
    divisor = " * ".join(_factor_source(j, -e, powers) for j, e in enumerate(exps) if e < 0)
    return f"{source} / ({divisor})" if divisor else source


def _factor_source(j: int, e: int, powers: dict[tuple[int, int], str]) -> str:
    """x_j^e for e >= 1: the name of the last product of ``power_plan(e)``,
    each product's statement entered once in ``powers``, keyed (k, j) for
    the product x_j^k."""
    try:
        float(e)
    except OverflowError:
        return f"(x{j} * {e})"
    names = {1: f"x{j}"}
    for a, b in power_plan(e):
        names[a + b] = name = f"x{j}_{a + b}"
        powers.setdefault((a + b, j), f"{name} = {names[a]} * {names[b]}")
    return names[e]


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
