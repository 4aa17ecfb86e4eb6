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
constant divisors so results stay exact (Laurent) polynomials, a negative
exponent only on one variable (``x0^-3``, not ``(x0 + 1)^-1`` or
``2^-1``), and one optional leading minus per expression,
``expr := '-'? term (('+' | '-') term)*``.

``Poly.to_text`` output, Laurent terms included, parses back with
``parse_poly`` to an equal polynomial.

``TimeFunction.emit`` writes a tree as straight-line Python statements of
t, with its constants baked in as floats; the field compiler inlines them
in the point and block forms of a field.  ``TimeFunction.compile`` wraps
them in a function of t that returns exactly what ``eval`` returns, which
is how the tests check ``emit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

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
        if ch in "0123456789" or (ch == "." and i + 1 < n and src[i + 1] in "0123456789"):
            j = i
            seen_dot = False
            while j < n and (src[j] in "0123456789" or (src[j] == "." and not seen_dot)):
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


# ---------------------------------------------------------------------------
# time-function expression trees
# ---------------------------------------------------------------------------

class TimeFunction:
    """A smooth closed-form function of the scalar time variable t."""

    __slots__ = ()

    def eval(self, t: float) -> float:
        raise NotImplementedError

    def compile(self) -> Callable[[float], float]:
        """This tree as one Python function of t.  Each node becomes one
        statement, in the order ``eval`` visits it, so the function returns
        exactly what ``eval`` returns and raises the same exception class
        where ``eval`` raises."""
        lines: list[str] = []
        namespace: dict = {}
        result = self.emit(lines, namespace)
        return define_function("t", lines, result, namespace)

    def emit(self, lines: list[str], namespace: dict) -> str:
        """Append the statements computing this node at ``t`` to ``lines``
        and return the operand that holds its value; names the statements
        use go into ``namespace``.  A node type without its own code is
        called through ``eval``."""
        name = f"n{len(namespace)}"
        namespace[name] = self
        return _assign(lines, f"{name}.eval(t)")

    @staticmethod
    def constant(value) -> "TimeFunction":
        """The constant ``value``, held as its exact Fraction."""
        return TimeConstant(Fraction(value))


def _assign(lines: list[str], expr: str) -> str:
    name = f"v{len(lines)}"
    lines.append(f"{name} = {expr}")
    return name


def define_function(params: str, lines: list[str], result: str, namespace: dict) -> Callable:
    """``def f(params)`` running ``lines`` and returning ``result``, defined
    in ``namespace`` next to the math functions emitted statements call."""
    namespace.update(_sin=math.sin, _cos=math.cos, _exp=math.exp)
    body = "".join(f"    {line}\n" for line in lines)
    exec(f"def f({params}):\n{body}    return {result}\n", namespace)
    return namespace["f"]


def float_literal(value: float) -> str:
    """Source text of a finite float that evaluates back to it exactly,
    safe as an operand of any operator."""
    text = repr(value)
    return f"({text})" if value < 0 else text


@dataclass(frozen=True, slots=True)
class TimeConstant(TimeFunction):
    value: Fraction

    def eval(self, t: float) -> float:
        return float(self.value)

    def emit(self, lines: list[str], namespace: dict) -> str:
        try:
            return float_literal(float(self.value))
        except OverflowError:
            # too large for a float: raise where eval raises
            return TimeFunction.emit(self, lines, namespace)


@dataclass(frozen=True, slots=True)
class TimeVariable(TimeFunction):
    def eval(self, t: float) -> float:
        return t

    def emit(self, lines: list[str], namespace: dict) -> str:
        return "t"


@dataclass(frozen=True, slots=True)
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

    def emit(self, lines: list[str], namespace: dict) -> str:
        a = self.left.emit(lines, namespace)
        b = self.right.emit(lines, namespace)
        return _assign(lines, f"{a} {self.op} {b}")


@dataclass(frozen=True, slots=True)
class TimePower(TimeFunction):
    base: TimeFunction
    exponent: int

    def eval(self, t: float) -> float:
        return self.base.eval(t) ** self.exponent

    def emit(self, lines: list[str], namespace: dict) -> str:
        return _assign(lines, f"{self.base.emit(lines, namespace)} ** ({self.exponent})")


@dataclass(frozen=True, slots=True)
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

    def emit(self, lines: list[str], namespace: dict) -> str:
        return _assign(lines, f"_{self.fn}({self.arg.emit(lines, namespace)})")


_FUNCTIONS = ("sin", "cos", "exp")


class _Parser:
    """Tokens, lookahead and the rules that both grammars share."""

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

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
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


class _TimeFnParser(_Parser):
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

class _PolyParser(_Parser):
    """Same grammar over variables x0..x{n-1}, plus a leading minus; no
    calls, exact arithmetic, and a negative exponent only on one variable
    (``x0^-3``)."""

    def __init__(self, src: str, names: Sequence[str]):
        super().__init__(src)
        self.names = {name: i for i, name in enumerate(names)}
        self.arity = len(names)

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
                if any(map(any, rhs.terms)):
                    raise ParseError("division by a non-constant polynomial", tok.pos)
                divisor = rhs.evaluate([Fraction(0)] * self.arity)
                if divisor == 0:
                    raise ParseError("division by zero", tok.pos)
                node = node * (1 / divisor)
        return node

    def factor(self) -> Poly:
        start = self.peek()
        node = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            e = self.integer()
            if e >= 0:
                return node ** e
            if start.kind != "name":
                raise ParseError("a negative exponent needs one variable as its base", start.pos)
            (exps,) = node.terms
            node = Poly.monomial(self.arity, [e * k for k in exps])
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
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse_poly(src: str, arity: int, names: Sequence[str] | None = None) -> Poly:
    """Parse a polynomial in x0..x{arity-1} (or the given variable names)."""
    if names is None:
        names = [f"x{i}" for i in range(arity)]
    if len(names) != arity:
        raise ValueError("variable name list must match the arity")
    return _PolyParser(src, names).parse()
