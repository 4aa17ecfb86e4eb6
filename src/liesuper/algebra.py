"""Exact sparse polynomial arithmetic over the rationals.

Two polynomial flavours back the rest of the library:

* ``Poly`` -- multivariate polynomials in variables x0..x{n-1} with
  ``fractions.Fraction`` coefficients, stored sparsely as a mapping from
  exponent tuples (one entry per variable) to coefficients.  The zero
  polynomial stores no terms.  All arithmetic prunes zero coefficients,
  so two polynomials are equal iff their term maps are.

* ``DiffPoly`` -- differential polynomials in one dependent variable and
  its derivatives y0, y1, y2, ... (y0 is the variable itself, y1 its first
  derivative, and so on), with additional commuting coefficient symbols
  b0, b1, ....  A term key is a pair of exponent tuples (jet part, b part),
  both trimmed of trailing zeros so a key never depends on how many
  variables the surrounding polynomial happens to mention.  The b symbols
  behave as constants under the total derivative.

Rational numbers are ``fractions.Fraction`` throughout: arbitrary
precision, automatically reduced to lowest terms, denominator always
positive, zero normalized to 0/1.  ``Rational`` is exported as an alias so
call sites can say what they mean.

Canonical text renderings (``to_text``) sort terms deterministically and
write ``*`` and ``^`` explicitly; they are the single source of truth for
CLI output and golden tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _trim(exps: Iterable[int]) -> tuple[int, ...]:
    """Drop trailing zero exponents so tuples of different lengths agree."""
    out = list(exps)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _coeff_text(c: Fraction, has_vars: bool) -> str:
    """Coefficient part of a rendered term (without sign), '' for unit."""
    a = abs(c)
    if not has_vars:
        return str(a)
    if a == 1:
        return ""
    return f"{a}*"


def _join_terms(parts: list[tuple[Fraction, str]]) -> str:
    """Assemble '(sign) coeff*monomial' pieces into canonical text."""
    if not parts:
        return "0"
    chunks: list[str] = []
    for i, (coeff, body) in enumerate(parts):
        if i == 0:
            chunks.append(("-" if coeff < 0 else "") + body)
        else:
            chunks.append((" - " if coeff < 0 else " + ") + body)
    return "".join(chunks)


class Poly:
    """A multivariate polynomial with exact rational coefficients.

    ``terms`` maps full-length exponent tuples (len == ``arity``) to
    nonzero ``Fraction`` coefficients.  Instances are immutable by
    convention: no method mutates ``terms`` after construction.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                key = tuple(int(e) for e in exps)
                if len(key) != arity:
                    raise ValueError(f"exponent tuple {key} does not match arity {arity}")
                if any(e < 0 for e in key):
                    raise ValueError(f"negative exponent in {key}")
                clean[key] = c
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_clean(cls, arity: int, terms: dict[tuple[int, ...], Fraction]) -> Poly:
        """Wrap a term map that is already clean (int exponent tuples of
        length ``arity``, nonzero Fraction values) without checking or
        copying it; the library's own arithmetic builds its results this way."""
        p = object.__new__(cls)
        object.__setattr__(p, "arity", arity)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, arity: int) -> Poly:
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, value: Scalar) -> Poly:
        return cls(arity, {(0,) * arity: Fraction(value)})

    @classmethod
    def variable(cls, arity: int, index: int) -> Poly:
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        exps = [0] * arity
        exps[index] = 1
        return cls(arity, {tuple(exps): _ONE})

    @classmethod
    def monomial(cls, arity: int, exps: Sequence[int], coeff: Scalar = 1) -> Poly:
        return cls(arity, {tuple(exps): Fraction(coeff)})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _require_same_arity(self, other: Poly) -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.constant(self.arity, other)
        self._require_same_arity(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            v = out.get(exps, _ZERO) + c
            if v:
                out[exps] = v
            else:
                out.pop(exps, None)
        return Poly._from_clean(self.arity, out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._from_clean(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.constant(self.arity, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> Poly:
        return (-self) + other

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            c = Fraction(other)
            if c == 0:
                return Poly.zero(self.arity)
            return Poly._from_clean(self.arity, {e: v * c for e, v in self.terms.items()})
        self._require_same_arity(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(key, _ZERO) + c1 * c2
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return Poly._from_clean(self.arity, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        if len(self.terms) == 1:
            # a monomial with coefficient +-1 is raised in one step, so that
            # x0^3000000000 parses at once; any other power multiplies n times
            ((exps, c),) = self.terms.items()
            if abs(c) == 1:
                return Poly._from_clean(self.arity, {tuple(e * n for e in exps): c**n})
        result = Poly.constant(self.arity, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.terms.items())))

    # -- calculus and evaluation --------------------------------------------

    def partial(self, var_index: int) -> Poly:
        if not 0 <= var_index < self.arity:
            raise IndexError(f"variable index {var_index} out of range for arity {self.arity}")
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[var_index]
            if e == 0:
                continue
            key = list(exps)
            key[var_index] = e - 1
            out[tuple(key)] = c * e
        return Poly._from_clean(self.arity, out)

    def evaluate(self, point: Sequence):
        """Evaluate at a point; exact on Fractions, float on floats."""
        if len(point) != self.arity:
            raise ValueError(f"point of length {len(point)} for arity {self.arity}")
        total = _ZERO
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v = v * x**e
            total = total + v
        return total

    def remap(self, new_arity: int, index_map: Sequence[int]) -> Poly:
        """Re-embed into a larger variable space; old var i becomes index_map[i]."""
        if len(index_map) != self.arity:
            raise ValueError("index map must cover every variable")
        if len(set(index_map)) != len(index_map) or not all(0 <= k < new_arity for k in index_map):
            raise ValueError(f"index map must send variables to distinct indices in range({new_arity})")
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            key = [0] * new_arity
            for i, e in enumerate(exps):
                if e:
                    key[index_map[i]] += e
            out[tuple(key)] = c
        return Poly._from_clean(new_arity, out)

    # -- rendering ----------------------------------------------------------

    def to_text(self, names: Sequence[str] | None = None) -> str:
        """Canonical text: graded-lex ordering (total degree, then exponents,
        both descending), explicit '*' and '^'."""
        if names is None:
            names = [f"x{i}" for i in range(self.arity)]
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        parts: list[tuple[Fraction, str]] = []
        for exps, c in items:
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(exps)
                if e
            ]
            body = _coeff_text(c, bool(factors)) + "*".join(factors)
            parts.append((c, body))
        return _join_terms(parts)

    def __repr__(self) -> str:
        return f"Poly({self.arity}, {self.to_text()!r})"


def poly_partial(p: Poly, var_index: int) -> Poly:
    """Exact partial derivative with respect to variable ``var_index``."""
    return p.partial(var_index)


DiffKey = tuple[tuple[int, ...], tuple[int, ...]]


class DiffPoly:
    """A differential polynomial in y0, y1, ... with coefficient symbols b0, b1, ...

    ``terms`` maps ``((jet exponents), (b exponents))`` to nonzero
    coefficients, with both tuples trimmed of trailing zeros.  ``y(i)``
    denotes the i-th derivative of the dependent variable (``y(0)`` the
    variable itself); the ``b(l)`` are constants as far as the total
    derivative is concerned.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[DiffKey, Scalar] | None = None):
        clean: dict[DiffKey, Fraction] = {}
        if terms:
            for (jets, bs), coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                jkey = _trim(int(e) for e in jets)
                bkey = _trim(int(e) for e in bs)
                if any(e < 0 for e in jkey) or any(e < 0 for e in bkey):
                    raise ValueError("negative exponent in differential polynomial")
                clean[(jkey, bkey)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("DiffPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> DiffPoly:
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> DiffPoly:
        return cls({((), ()): Fraction(value)})

    @classmethod
    def one(cls) -> DiffPoly:
        return cls.constant(1)

    @classmethod
    def y(cls, index: int) -> DiffPoly:
        if index < 0:
            raise ValueError("jet index must be non-negative")
        exps = (0,) * index + (1,)
        return cls({(exps, ()): _ONE})

    @classmethod
    def b(cls, index: int) -> DiffPoly:
        if index < 0:
            raise ValueError("b index must be non-negative")
        exps = (0,) * index + (1,)
        return cls({((), exps): _ONE})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def order(self) -> int:
        """Highest derivative index appearing; -1 when none does."""
        best = -1
        for jets, _ in self.terms:
            if jets:
                best = max(best, len(jets) - 1)
        return best

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(j) + sum(b) for j, b in self.terms)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: DiffPoly | Scalar) -> DiffPoly:
        if not isinstance(other, DiffPoly):
            other = DiffPoly.constant(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key, _ZERO) + c
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return DiffPoly(out)

    __radd__ = __add__

    def __neg__(self) -> DiffPoly:
        return DiffPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: DiffPoly | Scalar) -> DiffPoly:
        if not isinstance(other, DiffPoly):
            other = DiffPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> DiffPoly:
        return (-self) + other

    def __mul__(self, other: DiffPoly | Scalar) -> DiffPoly:
        if not isinstance(other, DiffPoly):
            c = Fraction(other)
            if c == 0:
                return DiffPoly.zero()
            return DiffPoly({k: v * c for k, v in self.terms.items()})
        out: dict[DiffKey, Fraction] = {}
        for (j1, b1), c1 in self.terms.items():
            for (j2, b2), c2 in other.terms.items():
                jets = tuple(
                    (j1[i] if i < len(j1) else 0) + (j2[i] if i < len(j2) else 0)
                    for i in range(max(len(j1), len(j2)))
                )
                bs = tuple(
                    (b1[i] if i < len(b1) else 0) + (b2[i] if i < len(b2) else 0)
                    for i in range(max(len(b1), len(b2)))
                )
                key = (jets, bs)
                v = out.get(key, _ZERO) + c1 * c2
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return DiffPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> DiffPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be non-negative integers")
        result = DiffPoly.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- calculus and evaluation ---------------------------------------------

    def total_derivative(self) -> DiffPoly:
        """Total derivative along the jet: y_i -> y_{i+1} by the Leibniz
        rule, with every b symbol treated as a constant."""
        out: dict[DiffKey, Fraction] = {}
        for (jets, bs), c in self.terms.items():
            for i, e in enumerate(jets):
                if e == 0:
                    continue
                new = list(jets)
                new[i] = e - 1
                if len(new) <= i + 1:
                    new.extend([0] * (i + 2 - len(new)))
                new[i + 1] += 1
                key = (_trim(new), bs)
                v = out.get(key, _ZERO) + c * e
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return DiffPoly(out)

    def evaluate(self, yjet: Sequence, bvals: Sequence = ()):
        """Substitute jet values and b values; exact on Fractions."""
        total = _ZERO
        for (jets, bs), c in self.terms.items():
            if len(jets) > len(yjet):
                raise ValueError(
                    f"jet vector of length {len(yjet)} is too short for a term of order {len(jets) - 1}"
                )
            if len(bs) > len(bvals):
                raise ValueError(
                    f"b vector of length {len(bvals)} is too short; term needs b{len(bs) - 1}"
                )
            v = c
            for i, e in enumerate(jets):
                if e:
                    v = v * yjet[i] ** e
            for i, e in enumerate(bs):
                if e:
                    v = v * bvals[i] ** e
            total = total + v
        return total

    def to_poly(self, arity: int) -> Poly:
        """View a b-free differential polynomial as a Poly in y0..y{arity-1}."""
        out: dict[tuple[int, ...], Fraction] = {}
        for (jets, bs), c in self.terms.items():
            if bs:
                raise ValueError("cannot convert a differential polynomial with b symbols")
            if len(jets) > arity:
                raise ValueError(f"term of order {len(jets) - 1} does not fit arity {arity}")
            out[jets + (0,) * (arity - len(jets))] = c
        return Poly(arity, out)

    # -- rendering ------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text: ascending total degree; within a degree the b-major
        exponent vector decides, higher lexicographic first.  This puts pure
        coefficient terms before mixed ones and mixed ones before pure jet
        terms of the same degree."""
        if not self.terms:
            return "0"
        jwidth = max((len(j) for j, _ in self.terms), default=0)
        bwidth = max((len(b) for _, b in self.terms), default=0)

        def sort_key(item):
            (jets, bs), _ = item
            jpad = jets + (0,) * (jwidth - len(jets))
            bpad = bs + (0,) * (bwidth - len(bs))
            degree = sum(jpad) + sum(bpad)
            return (degree, tuple(-e for e in bpad + jpad))

        parts: list[tuple[Fraction, str]] = []
        for (jets, bs), c in sorted(self.terms.items(), key=sort_key):
            factors = [f"b{i}" if e == 1 else f"b{i}^{e}" for i, e in enumerate(bs) if e]
            factors += [f"y{i}" if e == 1 else f"y{i}^{e}" for i, e in enumerate(jets) if e]
            body = _coeff_text(c, bool(factors)) + "*".join(factors)
            parts.append((c, body))
        return _join_terms(parts)

    def __repr__(self) -> str:
        return f"DiffPoly({self.to_text()!r})"


def diff_total_derivative(q: DiffPoly) -> DiffPoly:
    """Total derivative of a differential polynomial (jet shift)."""
    return q.total_derivative()


def diff_eval(q: DiffPoly, yjet: Sequence, bvals: Sequence = ()):
    """Evaluate a differential polynomial at a jet point and b values."""
    return q.evaluate(yjet, bvals)
