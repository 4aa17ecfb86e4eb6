"""Recursive-descent parsers for time functions and polynomial expressions.

Time-function grammar (the CLI-facing contract):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' integer)?
    base   := number | 't' | fn '(' expr ')' | '(' expr ')'
    fn     := 'sin' | 'cos' | 'exp'

Numbers are unsigned decimal literals and parse exactly (``0.5`` becomes
the Fraction 1/2).  Time functions have no unary minus; write ``0 - 1``
or ``(0 - 1)*t`` for negative quantities.  Power exponents are integers
and may carry a sign (``t^-2``).

Polynomial expressions reuse the same grammar with the variable set
x0..x{n-1} instead of ``t``, no function calls, division restricted to
constant divisors so results stay exact polynomials, and one optional
leading minus per expression, ``expr := '-'? term (('+' | '-') term)*``.

Time-function trees parsed from text render back to canonical text via
``to_text`` and re-parse to structurally equal trees; ``Poly.to_text``
output parses back with ``parse_poly`` to an equal polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import Poly


class ParseError(ValueError):
    """Syntax or name error, with the offending position in the source."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_OPERATORS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'name', 'op', 'end'
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(_Token("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


def _fraction_from_literal(text: str) -> Fraction:
    if "." in text:
        whole, frac = text.split(".")
        whole = whole or "0"
        return Fraction(int(whole + frac), 10 ** len(frac))
    return Fraction(int(text))


def _decimal_text(value: Fraction) -> str | None:
    """Exact decimal rendering when the denominator is 2^a * 5^b, else None."""
    if value < 0:
        return None
    den = value.denominator
    k = 0
    while den % 2 == 0:
        den //= 2
        k += 1
    m = 0
    while den % 5 == 0:
        den //= 5
        m += 1
    if den != 1:
        return None
    shift = max(k, m)
    digits = value.numerator * 10**shift // value.denominator
    if shift == 0:
        return str(digits)
    text = str(digits).rjust(shift + 1, "0")
    return f"{text[:-shift]}.{text[-shift:]}"


# ---------------------------------------------------------------------------
# time-function expression trees
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


class TimeFunction:
    """A smooth closed-form function of the scalar time variable t."""

    __slots__ = ()

    def eval(self, t: float) -> float:
        raise NotImplementedError

    def to_text(self) -> str:
        return self._render()[0]

    def _render(self) -> tuple[str, int]:
        raise NotImplementedError

    @staticmethod
    def parse(src: str) -> "TimeFunction":
        return parse_timefn(src)

    @staticmethod
    def constant(value) -> "TimeFunction":
        """A constant tree that renders to re-parseable canonical text."""
        f = Fraction(value)
        if f < 0:
            return TimeBinary("-", TimeConstant(Fraction(0)), TimeFunction.constant(-f))
        if _decimal_text(f) is not None:
            return TimeConstant(f)
        return TimeBinary("/", TimeConstant(Fraction(f.numerator)), TimeConstant(Fraction(f.denominator)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()!r})"


@dataclass(frozen=True, slots=True, repr=False)
class TimeConstant(TimeFunction):
    value: Fraction

    def eval(self, t: float) -> float:
        return float(self.value)

    def _render(self) -> tuple[str, int]:
        text = _decimal_text(self.value)
        if text is None:
            raise ValueError(f"constant {self.value} has no exact decimal form; use TimeFunction.constant")
        return text, _PREC_ATOM


@dataclass(frozen=True, slots=True, repr=False)
class TimeVariable(TimeFunction):
    def eval(self, t: float) -> float:
        return t

    def _render(self) -> tuple[str, int]:
        return "t", _PREC_ATOM


@dataclass(frozen=True, slots=True, repr=False)
class TimeBinary(TimeFunction):
    op: str  # '+', '-', '*', '/'
    left: TimeFunction
    right: TimeFunction

    def eval(self, t: float) -> float:
        a = self.left.eval(t)
        b = self.right.eval(t)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b

    def _render(self) -> tuple[str, int]:
        prec = _PREC_ADD if self.op in "+-" else _PREC_MUL
        lt, lp = self.left._render()
        rt, rp = self.right._render()
        if lp < prec:
            lt = f"({lt})"
        # the parser associates to the left, so a right operand of equal
        # precedence needs parentheses to reproduce the same tree
        if rp <= prec:
            rt = f"({rt})"
        return f"{lt} {self.op} {rt}", prec


@dataclass(frozen=True, slots=True, repr=False)
class TimePower(TimeFunction):
    base: TimeFunction
    exponent: int

    def eval(self, t: float) -> float:
        return self.base.eval(t) ** self.exponent

    def _render(self) -> tuple[str, int]:
        bt, bp = self.base._render()
        if bp < _PREC_ATOM:
            bt = f"({bt})"
        return f"{bt}^{self.exponent}", _PREC_POW


@dataclass(frozen=True, slots=True, repr=False)
class TimeCall(TimeFunction):
    fn: str  # 'sin', 'cos', 'exp'
    arg: TimeFunction

    def eval(self, t: float) -> float:
        v = self.arg.eval(t)
        if self.fn == "sin":
            return math.sin(v)
        if self.fn == "cos":
            return math.cos(v)
        return math.exp(v)

    def _render(self) -> tuple[str, int]:
        return f"{self.fn}({self.arg._render()[0]})", _PREC_ATOM


_FUNCTIONS = ("sin", "cos", "exp")


class _TimeFnParser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)

    def parse(self) -> TimeFunction:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> TimeFunction:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = TimeBinary(op, node, self.term())
        return node

    def term(self) -> TimeFunction:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = TimeBinary(op, node, self.factor())
        return node

    def factor(self) -> TimeFunction:
        node = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            node = TimePower(node, self.integer())
        return node

    def integer(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            sign = -1
        tok = self.next()
        if tok.kind != "num" or "." in tok.text:
            raise ParseError("expected an integer exponent", tok.pos)
        return sign * int(tok.text)

    def base(self) -> TimeFunction:
        tok = self.next()
        if tok.kind == "num":
            return TimeConstant(_fraction_from_literal(tok.text))
        if tok.kind == "name":
            if tok.text == "t":
                return TimeVariable()
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return TimeCall(tok.text, arg)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse_timefn(src: str) -> TimeFunction:
    """Parse a time-function expression; raises ParseError with position."""
    return _TimeFnParser(src).parse()


# ---------------------------------------------------------------------------
# polynomial expressions
# ---------------------------------------------------------------------------

class _PolyParser:
    """Same grammar over variables x0..x{n-1}, plus a leading minus; no
    calls, exact arithmetic."""

    def __init__(self, src: str, names: Sequence[str]):
        self.tokens = _tokenize(src)
        self.i = 0
        self.names = {name: i for i, name in enumerate(names)}
        self.arity = len(names)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Poly:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Poly:
        # a leading minus (Poly.to_text writes one) subtracts from zero
        leading_minus = self.peek().kind == "op" and self.peek().text == "-"
        node = Poly.zero(self.arity) if leading_minus else self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.next()
            rhs = self.term()
            node = node + rhs if tok.text == "+" else node - rhs
        return node

    def term(self) -> Poly:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.next()
            rhs = self.factor()
            if tok.text == "*":
                node = node * rhs
            else:
                if rhs.total_degree() > 0:
                    raise ParseError("division by a non-constant polynomial", tok.pos)
                divisor = rhs.evaluate([Fraction(0)] * self.arity)
                if divisor == 0:
                    raise ParseError("division by zero", tok.pos)
                node = node * (1 / divisor)
        return node

    def factor(self) -> Poly:
        node = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            tok = self.next()
            exp_tok = self.next()
            if exp_tok.kind != "num" or "." in exp_tok.text:
                raise ParseError("expected a non-negative integer exponent", exp_tok.pos)
            node = node ** int(exp_tok.text)
        return node

    def base(self) -> Poly:
        tok = self.next()
        if tok.kind == "num":
            return Poly.constant(self.arity, _fraction_from_literal(tok.text))
        if tok.kind == "name":
            idx = self.names.get(tok.text)
            if idx is None:
                raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
            return Poly.variable(self.arity, idx)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            closing = self.next()
            if closing.kind != "op" or closing.text != ")":
                raise ParseError("expected ')'", closing.pos)
            return node
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse_poly(src: str, arity: int, names: Sequence[str] | None = None) -> Poly:
    """Parse a polynomial in x0..x{arity-1} (or the given variable names)."""
    if names is None:
        names = [f"x{i}" for i in range(arity)]
    if len(names) != arity:
        raise ValueError("variable name list must match the arity")
    return _PolyParser(src, names).parse()
