"""Exact sparse polynomial arithmetic over the rationals.

One polynomial class backs the rest of the library: ``Poly``,
multivariate polynomials in variables x0..x{n-1} with
``fractions.Fraction`` coefficients, stored sparsely as a mapping from
exponent tuples (one entry per variable) to coefficients.  The zero
polynomial stores no terms.  All arithmetic prunes zero coefficients, so
two polynomials are equal iff their term maps are.  An exponent may be
negative (a Laurent polynomial, such as the c/x^3 of the Pinney
equation): +, -, * and derivatives stay exact, ``evaluate``
raises ZeroDivisionError at a zero coordinate of such a term, and
``to_text`` writes ``x0^-3``, which ``parsing.parse_poly`` reads back.
The differential polynomials of the Riccati hierarchy are ``Poly``s on
jet variables y0, y1, ... (and coefficient symbols b0, b1, ... in the
member's text); the total derivative is the field
``vectorfield.PolyVectorField.derivative`` of the jet shift, and a
partial derivative df/dx_j is the derivative along the unit field e_j.

Rational numbers are ``fractions.Fraction`` throughout: arbitrary
precision, automatically reduced to lowest terms, denominator always
positive, zero normalized to 0/1.

Canonical text renderings (``to_text``) sort terms deterministically and
write ``*`` and ``^`` explicitly; they are the single source of truth for
CLI output and golden tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@cache
def power_plan(e: int) -> tuple[tuple[int, int], ...]:
    """x^e, e >= 1, by square and multiply: the products x^(a+b) = x^a * x^b
    that build it from x, each squaring the power so far or multiplying it
    by x (x^4 is (x*x)*(x*x)).  Every float power of the numeric layer is
    these products, so its evaluators round alike."""
    plan, k = [], 1
    for bit in bin(e)[3:]:
        plan.append((k, k))
        k += k
        if bit == "1":
            plan.append((k, 1))
            k += 1
    return tuple(plan)


def power(x, e: int):
    """x^e for an integer e >= 1, by the products of ``power_plan``."""
    p = x
    for a, b in power_plan(e):
        p = p * (p if a == b else x)
    return p


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


def _terms_text(items: Sequence[tuple[tuple[int, ...], Fraction]], names: Sequence[str]) -> str:
    """The terms ``(exponents, coefficient)`` in the order given, as text."""
    parts: list[tuple[Fraction, str]] = []
    for exps, c in items:
        factors = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(exps) if e]
        parts.append((c, _coeff_text(c, bool(factors)) + "*".join(factors)))
    return _join_terms(parts)


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
        """``self`` to a non-negative integer power, by repeated squaring
        (about 2 log2(n) products, so the time follows the size of the
        result).  The product of a sum's terms is the same polynomial in
        any grouping, but its terms may be listed in another order than n
        successive products would list them."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.constant(self.arity, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
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

    def evaluate(self, point: Sequence):
        """Evaluate at a point; exact on Fractions, float on floats."""
        if len(point) != self.arity:
            raise ValueError(f"point of length {len(point)} for arity {self.arity}")
        total = _ZERO
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e > 0:
                    v = v * power(x, e)
                elif e:
                    v = v / power(x, -e)
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

    def leading(self, k: int) -> Poly:
        """The same polynomial on the first k variables, which must be all
        that it reads."""
        if any(any(e[k:]) for e in self.terms):
            raise ValueError(f"polynomial reads a variable past the first {k}")
        return Poly._from_clean(k, {e[:k]: c for e, c in self.terms.items()})

    # -- rendering ----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text in x0..x{n-1}: graded-lex ordering (total degree,
        then exponents, both descending), explicit '*' and '^'."""
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        return _terms_text(items, [f"x{i}" for i in range(self.arity)])

    def __repr__(self) -> str:
        return f"Poly({self.arity}, {self.to_text()!r})"


# ``bench/tracing.py`` patches ``algebra.DiffPoly.evaluate``; the benchmark
# change that maps that layer onto ``Poly.evaluate`` (ROADMAP item 1)
# deletes this name.
DiffPoly = Poly
