"""Time-function and polynomial expression parsing."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liesuper.algebra import Poly
from liesuper.parsing import (
    ParseError,
    TimeBinary,
    TimeCall,
    TimeConstant,
    TimeFunction,
    TimePower,
    TimeVariable,
    parse_poly,
    parse_timefn,
)


class TestParseTimefn:
    def test_basic_arithmetic(self):
        f = parse_timefn("1 + 0.5*sin(t)")
        assert f.eval(math.pi / 2) == pytest.approx(1.5)

    def test_power(self):
        f = parse_timefn("t^2 - 3")
        assert f.eval(2.0) == pytest.approx(1.0)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'q'") as err:
            parse_timefn("sin(q)")
        assert err.value.position == 4

    def test_literals_parse_exactly(self):
        f = parse_timefn("0.1")
        assert isinstance(f, TimeConstant)
        assert f.value == Fraction(1, 10)

    def test_precedence(self):
        assert parse_timefn("1 + 2*3").eval(0.0) == 7.0
        assert parse_timefn("(1 + 2)*3").eval(0.0) == 9.0
        assert parse_timefn("2*t^2").eval(3.0) == 18.0
        assert parse_timefn("1 - 2 - 3").eval(0.0) == -4.0

    def test_negative_exponent(self):
        f = parse_timefn("t^-2")
        assert f.eval(2.0) == pytest.approx(0.25)

    def test_division_by_zero_at_eval(self):
        f = parse_timefn("1/t")
        with pytest.raises(ZeroDivisionError):
            f.eval(0.0)

    def test_trees_associate_to_the_left(self):
        one, two, three = (TimeConstant(Fraction(k)) for k in (1, 2, 3))
        assert parse_timefn("1 - 2 - 3") == TimeBinary("-", TimeBinary("-", one, two), three)
        assert parse_timefn("1 - (2 - 3)") == TimeBinary("-", one, TimeBinary("-", two, three))
        assert parse_timefn("1/2*t^-2") == TimeBinary("*", TimeBinary("/", one, two), TimePower(TimeVariable(), -2))

    def test_functions(self):
        assert parse_timefn("exp(t)").eval(1.0) == pytest.approx(math.e)
        assert parse_timefn("cos(t)").eval(0.0) == 1.0

    @pytest.mark.parametrize("src", ["1 +", "(1", "sin t", "2 ** 3", "t^0.5", ""])
    def test_syntax_errors_carry_position(self, src):
        with pytest.raises(ParseError) as err:
            parse_timefn(src)
        assert err.value.position >= 0

    def test_no_unary_minus(self):
        # the grammar has no unary minus; spell negatives as 0 - x
        with pytest.raises(ParseError):
            parse_timefn("-1")
        assert parse_timefn("0 - 1").eval(0.0) == -1.0


class TestConstant:
    def test_constant_factory(self):
        for value in (Fraction(1, 3), Fraction(-7, 2), Fraction(5), Fraction(-1, 10), 1):
            tree = TimeFunction.constant(value)
            assert tree == TimeConstant(Fraction(value))
            assert tree.eval(0.0) == float(Fraction(value))


def outcome(fn, t):
    """The float bits returned, or the class of the exception raised."""
    try:
        return struct.pack("<d", fn(t))
    except Exception as exc:
        return type(exc)


@st.composite
def time_trees(draw, depth=4):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return TimeVariable()
        return TimeConstant(Fraction(draw(st.integers(0, 40)), draw(st.sampled_from((1, 2, 3, 4, 10)))))
    kind = draw(st.sampled_from(("+", "-", "*", "/", "pow", "sin", "cos", "exp")))
    if kind in ("+", "-", "*", "/"):
        return TimeBinary(kind, draw(time_trees(depth - 1)), draw(time_trees(depth - 1)))
    if kind == "pow":
        return TimePower(draw(time_trees(depth - 1)), draw(st.integers(-3, 4)))
    return TimeCall(kind, draw(time_trees(depth - 1)))


class TestCompile:
    @settings(max_examples=200, deadline=None)
    @given(tree=time_trees(), t=st.one_of(st.sampled_from((0.0, 1.0, -1.0, 2.0)), st.floats(-3.0, 3.0)))
    def test_compiled_tree_returns_what_eval_returns(self, tree, t):
        assert outcome(tree.compile(), t) == outcome(tree.eval, t)

    def test_division_by_zero_raises_the_same_class(self):
        for src in ("1/(t - 1)", "t^-2 + 1", "exp(1/(t - 1))"):
            tree = parse_timefn(src)
            with pytest.raises(ZeroDivisionError):
                tree.eval(1.0 if "t - 1" in src else 0.0)
            with pytest.raises(ZeroDivisionError):
                tree.compile()(1.0 if "t - 1" in src else 0.0)

    def test_overflowing_constant_raises_when_called(self):
        tree = TimeBinary("+", TimeVariable(), TimeConstant(Fraction(10**400)))
        compiled = tree.compile()
        with pytest.raises(OverflowError):
            compiled(0.0)

    def test_deep_trees_compile(self):
        tree = parse_timefn(" + ".join(["t"] * 500))
        assert tree.compile()(0.5) == tree.eval(0.5)


class TestParsePoly:
    def test_basic(self):
        p = parse_poly("x0^2 + 2*x0*x1 - 1", 2)
        assert p.evaluate([Fraction(1), Fraction(2)]) == Fraction(4)

    def test_decimal_coefficients_exact(self):
        p = parse_poly("0.5*x0", 1)
        assert p.terms[(1,)] == Fraction(1, 2)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_poly("x3 + 1", 2)
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_poly("t", 1)

    def test_constant_division_only(self):
        assert parse_poly("x0/2", 1).terms[(1,)] == Fraction(1, 2)
        with pytest.raises(ParseError, match="non-constant"):
            parse_poly("1/x0", 1)
        with pytest.raises(ParseError, match="division by zero"):
            parse_poly("x0/0", 1)

    def test_no_fractional_powers(self):
        with pytest.raises(ParseError):
            parse_poly("x0^0.5", 1)
        # a negative exponent only on one variable
        for src, position in (("(x0 + 1)^-1", 0), ("2^-1", 0), ("2*(2*x0)^-1", 2)):
            with pytest.raises(ParseError, match="one variable") as err:
                parse_poly(src, 1)
            assert err.value.position == position
        with pytest.raises(ParseError, match="division by a non-constant"):
            parse_poly("1/x0", 1)

    def test_custom_names(self):
        p = parse_poly("u0*u1", 2, names=("u0", "u1"))
        assert p == parse_poly("x0*x1", 2)


@st.composite
def polys(draw):
    arity = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * arity)
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return Poly(arity, draw(st.dictionaries(exps, coeffs, max_size=5)))


@settings(max_examples=200, deadline=None)
@given(polys())
@example(Poly(1, {(1,): -1}))
@example(Poly(2, {(3, 0): -1, (1, 1): -3}))
def test_poly_text_parses_back(p):
    # a negative leading coefficient is written with a leading minus
    assert parse_poly(p.to_text(), p.arity) == p
