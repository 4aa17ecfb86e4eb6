"""Exact polynomial arithmetic."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesuper.algebra import Poly
from liesuper.vectorfield import PolyVectorField


def P(src: str, arity: int) -> Poly:
    from liesuper.parsing import parse_poly

    return parse_poly(src, arity)


def partial(p: Poly, j: int) -> Poly:
    """dp/dx_j: the derivative along the unit field e_j."""
    n = p.arity
    return PolyVectorField([Poly.constant(n, 1) if i == j else Poly.zero(n) for i in range(n)]).derivative(p)


def random_poly(rng: random.Random, arity: int, degree: int = 3, terms: int = 4) -> Poly:
    p = Poly.zero(arity)
    for _ in range(rng.randint(0, terms)):
        while True:
            exps = tuple(rng.randint(0, degree) for _ in range(arity))
            if sum(exps) <= degree:
                break
        p = p + Poly.monomial(arity, exps, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return p


class TestPolyPartial:
    def test_power_rule_two_vars(self):
        # d/dx (x^2 y) = 2 x y
        assert partial(P("x0^2*x1", 2), 0) == P("2*x0*x1", 2)

    def test_derivative_of_constant(self):
        assert partial(Poly.constant(2, 5), 1) == Poly.zero(2)

    def test_power_rule_univariate(self):
        assert partial(P("x0^3 + 2*x0", 1), 0) == P("3*x0^2 + 2", 1)

    def test_product_rule_randomized(self):
        rng = random.Random(7)
        for _ in range(40):
            arity = rng.randint(1, 3)
            p = random_poly(rng, arity)
            q = random_poly(rng, arity)
            v = rng.randrange(arity)
            assert partial(p * q, v) == partial(p, v) * q + p * partial(q, v)


class TestRationalArithmetic:
    def test_invariants(self):
        f = Fraction(6, -4)
        assert f.denominator > 0
        assert (f.numerator, f.denominator) == (-3, 2)  # lowest terms
        assert Fraction(0, 7) == Fraction(0, 1)

    def test_field_laws_randomized(self):
        rng = random.Random(3)
        for _ in range(60):
            a, b, c = (Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a and a * b == b * a
            assert a * (b + c) == a * b + a * c


class TestPolyArithmetic:
    def test_zero_coefficients_pruned(self):
        p = P("x0 + 1", 1) - P("x0", 1)
        assert p == Poly.constant(1, 1)
        assert len(p.terms) == 1

    def test_equality_is_structural(self):
        assert P("x0*x1 + x1*x0", 2) == P("2*x0*x1", 2)

    def test_pow_and_scalar(self):
        assert P("x0 + 1", 1) ** 2 == P("x0^2 + 2*x0 + 1", 1)
        assert Fraction(1, 2) * P("2*x0", 1) == P("x0", 1)

    def test_evaluate_exact(self):
        p = P("x0^2*x1 - 3", 2)
        assert p.evaluate([Fraction(2), Fraction(1, 2)]) == Fraction(-1)

    def test_evaluate_on_floats_and_fractions(self):
        assert P("x1 + x0^2", 2).evaluate((2.0, 3.0)) == 7.0
        assert P("x0*x1", 2).evaluate((Fraction(1, 3), Fraction(3, 5))) == Fraction(1, 5)
        with pytest.raises(ValueError):
            P("x0*x1", 2).evaluate((1.0,))

    def test_leading_keeps_the_variables_read(self):
        assert P("x0*x1^-2 + 3", 4).leading(2) == P("x0*x1^-2 + 3", 2)
        assert list(P("x1 + x0^2", 3).leading(2).terms) == [(0, 1), (2, 0)]
        with pytest.raises(ValueError):
            P("x0 + x2", 3).leading(2)

    def test_remap_embedding(self):
        p = P("x0*x1", 2)
        q = p.remap(4, [2, 3])
        assert q == P("x2*x3", 4)

    def test_remap_rejects_maps_that_merge_or_leave_the_space(self):
        # x0 + x1 sent to one variable would need its terms merged
        for index_map in ([1, 1], [0, 4], [-1, 2]):
            with pytest.raises(ValueError):
                P("x0 + x1", 2).remap(4, index_map)

    def test_text_graded_lex_descending(self):
        assert P("2 + 3*x0^2", 1).to_text() == "3*x0^2 + 2"
        assert P("x1^2 + x0*x1 + x0^2", 2).to_text() == "x0^2 + x0*x1 + x1^2"
        assert Poly.zero(3).to_text() == "0"
        assert P("0 - x0 + 1", 1).to_text() == "-x0 + 1"
        assert P("x0/2", 1).to_text() == "1/2*x0"


@st.composite
def small_polys(draw):
    arity = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-2, 3)] * arity)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return Poly(arity, draw(st.dictionaries(exps, coeffs, max_size=4)))


class TestPolyPower:
    @settings(max_examples=60, deadline=None)
    @given(p=small_polys(), n=st.integers(0, 12))
    def test_equals_repeated_products(self, p, n):
        product = Poly.constant(p.arity, 1)
        for _ in range(n):
            product = product * p
        assert p**n == product

    def test_large_power_of_a_scaled_variable_parses_at_once(self):
        # n successive products took seconds here; squaring takes 18 products
        started = time.perf_counter()
        p = P("(2*x0)^200000", 1)
        assert time.perf_counter() - started < 0.5
        assert p == Poly.monomial(1, (200000,), 2**200000)


class TestLaurent:
    def test_negative_exponents_are_kept(self):
        p = Poly.monomial(2, (-3, 1), 2)
        assert p.terms == {(-3, 1): Fraction(2)}
        assert p * Poly.monomial(2, (3, 0), 1) == P("2*x1", 2)
        assert partial(p, 0) == Poly.monomial(2, (-4, 1), -6)

    def test_text_writes_negative_powers(self):
        assert Poly.monomial(1, (-3,), 2).to_text() == "2*x0^-3"
        assert (Poly.monomial(2, (-3, 0), Fraction(1, 2)) + P("x1", 2)).to_text() == "x1 + 1/2*x0^-3"

    def test_evaluate_at_a_zero_coordinate_raises(self):
        p = Poly.monomial(2, (-3, 0), 2) + P("x1", 2)
        assert p.evaluate([Fraction(1, 2), Fraction(1)]) == Fraction(17)
        for zero in (0.0, -0.0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                p.evaluate([zero, 1.0])
