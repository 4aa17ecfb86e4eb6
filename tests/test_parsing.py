"""Time-function and polynomial expression parsing."""

import math
import random
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


def random_tree(rng: random.Random, depth: int) -> TimeFunction:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return TimeVariable()
        return TimeConstant(Fraction(rng.randint(0, 40), rng.choice((1, 2, 4, 5, 10))))
    kind = rng.choice(("bin", "bin", "pow", "call"))
    if kind == "bin":
        op = rng.choice("+-*/")
        return TimeBinary(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == "pow":
        return TimePower(random_tree(rng, depth - 1), rng.choice((-2, -1, 2, 3)))
    return TimeCall(rng.choice(("sin", "cos", "exp")), random_tree(rng, depth - 1))


class TestRoundTrip:
    def test_parsed_trees_round_trip(self):
        for src in ("1 + 0.5*sin(t)", "t^2 - 3", "cos(t)*t/(1 + t^2)", "0 - 1", "2/3", "exp(t^-1)"):
            tree = parse_timefn(src)
            assert parse_timefn(tree.to_text()) == tree

    def test_random_trees_round_trip(self):
        rng = random.Random(23)
        for _ in range(200):
            tree = random_tree(rng, 4)
            assert parse_timefn(tree.to_text()) == tree

    def test_constant_factory(self):
        for value in (Fraction(1, 3), Fraction(-7, 2), Fraction(5), Fraction(-1, 10)):
            tree = TimeFunction.constant(value)
            assert parse_timefn(tree.to_text()) == tree
            assert tree.eval(0.0) == pytest.approx(float(value))


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
        with pytest.raises(ParseError):
            parse_poly("x0^-1", 1)

    def test_custom_names(self):
        p = parse_poly("u0*u1", 2, names=("u0", "u1"))
        assert p == parse_poly("x0*x1", 2)


@st.composite
def polys(draw):
    arity = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * arity)
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return Poly(arity, draw(st.dictionaries(exps, coeffs, max_size=5)))


@settings(max_examples=200, deadline=None)
@given(polys())
@example(Poly(1, {(1,): -1}))
@example(Poly(2, {(3, 0): -1, (1, 1): -3}))
def test_poly_text_parses_back(p):
    # a negative leading coefficient is written with a leading minus
    assert parse_poly(p.to_text(), p.arity) == p
