"""Vector fields, brackets, prolongations, products, and RHS evaluation."""

import random
import struct
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liesuper.algebra import Poly
from liesuper.parsing import parse_poly, parse_timefn
from liesuper.vectorfield import (
    EXPONENT_LIMIT,
    ExponentLimitError,
    GenericRHS,
    PolyVectorField,
    TDVectorField,
    diagonal_prolong,
    direct_product,
    eval_rhs,
    join_rhs,
    lie_bracket,
)
from liesuper.verify import random_field


def VF(*components: str) -> PolyVectorField:
    n = len(components)
    return PolyVectorField([parse_poly(src, n) for src in components])


class TestLieBracket:
    def test_translation_and_scaling(self):
        # [d/dy, y d/dy] = d/dy
        assert lie_bracket(VF("1"), VF("x0")) == VF("1")

    def test_antisymmetry_diagonal(self):
        x = VF("x0^2 + x0")
        assert lie_bracket(x, x) == PolyVectorField.zero(1)

    def test_translation_and_square(self):
        # [d/dy, y^2 d/dy] = 2 y d/dy
        assert lie_bracket(VF("1"), VF("x0^2")) == VF("2*x0")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lie_bracket(VF("1"), VF("x0", "x1"))

    def test_bilinear_antisymmetric_randomized(self):
        rng = random.Random(5)
        for _ in range(25):
            dim = rng.randint(1, 3)
            x, y = random_field(rng, dim), random_field(rng, dim)
            assert lie_bracket(x, y) == -lie_bracket(y, x)
            assert lie_bracket(x + y, y) == lie_bracket(x, y) + lie_bracket(y, y)

    def test_jacobi_identity_randomized(self):
        rng = random.Random(17)
        for _ in range(25):
            dim = rng.randint(1, 3)
            x, y, z = (random_field(rng, dim) for _ in range(3))
            total = (
                lie_bracket(x, lie_bracket(y, z))
                + lie_bracket(y, lie_bracket(z, x))
                + lie_bracket(z, lie_bracket(x, y))
            )
            assert total == PolyVectorField.zero(dim)


# zero-heavy coefficients with non-unit denominators; a component whose
# coefficients all come out zero is the zero polynomial
COEFFS = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)


@st.composite
def field_pairs(draw):
    n = draw(st.integers(1, 3))
    monomials = st.tuples(*[st.integers(0, 3)] * n)

    def field():
        return PolyVectorField(
            [Poly(n, draw(st.dictionaries(monomials, COEFFS, max_size=4))) for _ in range(n)]
        )

    return field(), field()


def sympy_components(field, xs):
    return [
        sum(
            (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
             for exps, c in p.terms.items()),
            sympy.Integer(0),
        )
        for p in field.components
    ]


@settings(max_examples=60, deadline=None)
@given(field_pairs())
@example((VF("2/3*x0^2", "0"), VF("x1", "5/7*x0*x1 - 1/2")))
@example((VF("1/3", "0", "x2^3"), VF("0", "3/4*x0^2*x1", "2/5*x0")))
def test_lie_bracket_matches_sympy(pair):
    x, y = pair
    n = x.dimension
    xs = sympy.symbols(f"x0:{n}")
    fx, fy = sympy_components(x, xs), sympy_components(y, xs)
    bracket = lie_bracket(x, y)
    for i, p in enumerate(bracket.components):
        expected = sum(
            (fx[j] * sympy.diff(fy[i], xs[j]) - fy[j] * sympy.diff(fx[i], xs[j]) for j in range(n)),
            sympy.Integer(0),
        )
        terms = {
            exps: Fraction(int(c.p), int(c.q))
            for exps, c in sympy.Poly(sympy.expand(expected), *xs).as_dict().items()
            if c != 0
        }
        assert p.terms == terms
        # the result is clean: the checking constructor rebuilds it as is
        assert Poly(p.arity, p.terms) == p
        for exps, c in p.terms.items():
            assert type(c) is Fraction and c != 0
            assert len(exps) == n and all(type(e) is int for e in exps)
    assert lie_bracket(y, x) == -bracket


def tuple_keyed_bracket(x, y):
    """[X, Y] summed term by term in dicts keyed by exponent tuples, in the
    visiting order of ``lie_bracket``: the reference for its packed keys."""
    n = x.dimension

    def integer_form(field):
        den = lcm(1, *(c.denominator for p in field.components for c in p.terms.values()))
        terms = [[(e, c.numerator * (den // c.denominator)) for e, c in p.terms.items()] for p in field.components]
        partials = [
            [[(e[:j] + (e[j] - 1,) + e[j + 1 :], v * e[j]) for e, v in comp if e[j]] for j in range(n)]
            for comp in terms
        ]
        return den, terms, partials

    dx, xterms, xpartials = integer_form(x)
    dy, yterms, ypartials = integer_form(y)
    comps = []
    for i in range(n):
        acc = {}
        for j in range(n):
            for ea, va in xterms[j]:
                for eb, vb in ypartials[i][j]:
                    key = tuple(a + b for a, b in zip(ea, eb))
                    acc[key] = acc.get(key, 0) + va * vb
            for ea, va in yterms[j]:
                for eb, vb in xpartials[i][j]:
                    key = tuple(a + b for a, b in zip(ea, eb))
                    acc[key] = acc.get(key, 0) - va * vb
        comps.append(Poly._from_clean(n, {e: Fraction(v, dx * dy) for e, v in acc.items() if v}))
    return PolyVectorField(comps)


@st.composite
def high_degree_fields(draw, n):
    monomials = st.tuples(*[st.integers(0, 40)] * n)
    return PolyVectorField([Poly(n, draw(st.dictionaries(monomials, COEFFS, max_size=4))) for _ in range(n)])


class TestPackedBracket:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[high_degree_fields(n)] * 3)))
    def test_components_equal_the_tuple_keyed_sum_in_order(self, fields):
        x, y, z = fields
        expected = tuple_keyed_bracket(x, y)
        bracket = lie_bracket(x, y)
        assert [list(p.terms.items()) for p in bracket.components] == [
            list(p.terms.items()) for p in expected.components
        ]
        # a bracket of a bracket packs from the first bracket's integer sums
        nested = lie_bracket(lie_bracket(x, y), z)
        assert [list(p.terms.items()) for p in nested.components] == [
            list(p.terms.items()) for p in tuple_keyed_bracket(expected, z).components
        ]

    def test_exponents_at_the_limit_fit(self):
        top = VF(f"x0^{EXPONENT_LIMIT}")
        assert lie_bracket(VF("1"), top) == VF(f"{EXPONENT_LIMIT}*x0^{EXPONENT_LIMIT - 1}")

    def test_exponents_past_the_limit_raise(self):
        with pytest.raises(ExponentLimitError, match="4294967295"):
            lie_bracket(VF("x0^3000000000"), VF("x0^2000000000"))
        with pytest.raises(ExponentLimitError):
            lie_bracket(VF("1", "0"), VF("0", f"x1^{EXPONENT_LIMIT + 1}"))
        assert issubclass(ExponentLimitError, ValueError)


class TestDiagonalProlong:
    def test_translation(self):
        assert diagonal_prolong(VF("1"), 2) == VF("1", "1")

    def test_scaling(self):
        assert diagonal_prolong(VF("x0"), 2) == VF("x0", "x1")

    def test_copies_positive(self):
        with pytest.raises(ValueError):
            diagonal_prolong(VF("1"), 0)

    def test_bracket_commutation_example(self):
        x, y = VF("1"), VF("x0")
        lhs = diagonal_prolong(lie_bracket(x, y), 3)
        rhs = lie_bracket(diagonal_prolong(x, 3), diagonal_prolong(y, 3))
        assert lhs == rhs == VF("1", "1", "1")

    def test_bracket_commutation_randomized(self):
        rng = random.Random(29)
        for _ in range(25):
            dim = rng.randint(1, 3)
            copies = rng.choice((2, 3))
            x, y = random_field(rng, dim), random_field(rng, dim)
            assert diagonal_prolong(lie_bracket(x, y), copies) == lie_bracket(
                diagonal_prolong(x, copies), diagonal_prolong(y, copies)
            )


def td(pairs) -> TDVectorField:
    return TDVectorField([(parse_timefn(src), field) for src, field in pairs])


class TestDirectProduct:
    def test_single_factor(self):
        x = td([("cos(t)", VF("x0"))])
        z = direct_product([x])
        for t, state in ((0.0, [2.0]), (1.0, [-3.0])):
            assert eval_rhs(z, t, state) == eval_rhs(x, t, state)

    def test_two_copies_equal_prolongation(self):
        y = VF("x0^2")
        x = td([("sin(t)", y)])
        product = direct_product([x, x]).collect()
        prolonged = td([("sin(t)", diagonal_prolong(y, 2))]).collect()
        assert product == prolonged

    def test_block_concatenation(self):
        x1 = td([("1", VF("1"))])
        x2 = td([("1", VF("x0"))])
        z = direct_product([x1, x2])
        assert eval_rhs(z, 0.0, [7.0, 4.0]) == [1.0, 4.0]

    def test_projection_property(self):
        rng = random.Random(31)
        factors = [
            td([("1 + 0.5*sin(t)", random_field(rng, 1)), ("cos(t)", random_field(rng, 1))]),
            td([("t", random_field(rng, 2))]),
        ]
        z = direct_product(factors)
        for _ in range(10):
            t = rng.uniform(0.0, 2.0)
            state = [rng.uniform(-2, 2) for _ in range(3)]
            joint = eval_rhs(z, t, state)
            assert joint[:1] == pytest.approx(eval_rhs(factors[0], t, state[:1]))
            assert joint[1:] == pytest.approx(eval_rhs(factors[1], t, state[1:]))

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            direct_product([])


def per_monomial_sum(field: TDVectorField, t: float, state, absolute: bool = False) -> list[float]:
    """The plain loop over terms, components and monomials that the
    compiled evaluator replaces; ``absolute`` sums magnitudes instead."""
    out = [0.0] * field.dimension
    for tf, vf in field.terms:
        s = tf.eval(t)
        for i, p in enumerate(vf.components):
            if not p.terms:
                continue
            acc = 0.0
            for exps, c in p.terms.items():
                v = float(c)
                for j, e in enumerate(exps):
                    if e:
                        v *= state[j] if e == 1 else state[j] ** e
                acc += abs(v) if absolute else v
            out[i] += abs(s * acc) if absolute else s * acc
    return out


TIME_COEFFS = st.sampled_from(["1", "0", "0.5", "0 - 1", "sin(t)", "t^2", "2 - t", "exp(0 - t)/3"])
STATE_VALUES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-2.0, 2.0))


@st.composite
def td_fields(draw):
    n = draw(st.integers(1, 3))
    monomials = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.one_of(st.sampled_from((1, -1)), COEFFS)
    terms = [
        (
            parse_timefn(draw(TIME_COEFFS)),
            PolyVectorField([Poly(n, draw(st.dictionaries(monomials, coeffs, max_size=4))) for _ in range(n)]),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return TDVectorField(terms)


class TestCompiledField:
    @settings(max_examples=120, deadline=None)
    @given(field=td_fields(), t=st.floats(0.0, 2.0), data=st.data())
    def test_floats_match_the_per_monomial_sum_bit_for_bit(self, field, t, data):
        state = data.draw(st.lists(STATE_VALUES, min_size=field.dimension, max_size=field.dimension))
        got = field.evaluate(t, state)
        want = per_monomial_sum(field, t, state)
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]

    @settings(max_examples=60, deadline=None)
    @given(field=td_fields(), t=st.floats(0.0, 2.0), rows=st.integers(1, 6), data=st.data())
    def test_coordinate_major_arrays_match_each_column(self, field, t, rows, data):
        n = field.dimension
        columns = [data.draw(st.lists(STATE_VALUES, min_size=n, max_size=n)) for _ in range(rows)]
        block = np.array(columns).T
        got = np.empty((n, rows))
        for i, value in enumerate(field.evaluate(t, block)):
            got[i] = value
        want = np.array([per_monomial_sum(field, t, column) for column in columns]).T
        # numpy's x**e may round differently from Python's by an ulp per
        # monomial, so the bound scales with the summed magnitudes
        scale = np.array([per_monomial_sum(field, t, column, absolute=True) for column in columns]).T
        assert np.all(np.abs(got - want) <= 1e-15 * scale)

    def test_compiled_field_never_walks_the_time_trees(self, monkeypatch):
        from liesuper.parsing import TimeCall

        osc = td([("sin(t)", VF("x1", "0")), ("sin(t)", VF("0", "x0")), ("1", VF("1", "1"))])
        calls = []
        honest = TimeCall.eval
        monkeypatch.setattr(TimeCall, "eval", lambda self, t: calls.append(t) or honest(self, t))
        osc.evaluate(0.3, [1.0, 2.0])
        # compiled once, on the first call; the tree is never walked again
        osc.evaluate(0.4, [1.0, 2.0])
        assert calls == []
        assert osc.evaluate(0.3, [1.0, 2.0]) == per_monomial_sum(osc, 0.3, [1.0, 2.0])


class TestEvalRhs:
    def test_constant_field(self):
        x = td([("1", VF("1"))])
        assert eval_rhs(x, 0.0, [7.0]) == [1.0]

    def test_cosine_coefficient(self):
        x = td([("cos(t)", VF("x0"))])
        assert eval_rhs(x, 0.0, [2.0]) == [2.0]

    def test_harmonic_oscillator(self):
        from liesuper.systems import oscillator_system

        osc = oscillator_system(parse_timefn("1"))
        assert eval_rhs(osc, 0.0, [0.0, 1.0]) == pytest.approx([1.0, 0.0])

    def test_dimension_mismatch(self):
        x = td([("1", VF("1"))])
        with pytest.raises(ValueError):
            eval_rhs(x, 0.0, [1.0, 2.0])
        rhs = GenericRHS(2, lambda t, s: [s[1], -s[0]])
        with pytest.raises(ValueError):
            eval_rhs(rhs, 0.0, [1.0])

    def test_time_function_failure_propagates(self):
        x = td([("1/t", VF("1"))])
        with pytest.raises(ZeroDivisionError):
            eval_rhs(x, 0.0, [1.0])

    def test_join_rhs_blocks(self):
        a = td([("1", VF("x0"))])
        b = GenericRHS(2, lambda t, s: [s[1], -s[0]])
        joint = join_rhs([a, b])
        assert joint.dimension == 3
        assert eval_rhs(joint, 0.0, [2.0, 0.5, 1.5]) == pytest.approx([2.0, 1.5, -0.5])
