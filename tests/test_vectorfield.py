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

from liesuper import vectorfield
from liesuper.algebra import Poly
from liesuper.integrate import IntegratorConfig, SingularityEvent, integrate_batch
from liesuper.parsing import TimeBinary, TimeConstant, TimeFunction, parse_poly, parse_timefn
from liesuper.systems import oscillator_system, pinney_system
from liesuper.vectorfield import (
    EXPONENT_LIMIT,
    ExponentLimitError,
    PolyVectorField,
    TDVectorField,
    diagonal_prolong,
    direct_product,
    lie_bracket,
)
from liesuper.verify import build_rule_setup, random_field


def VF(*components: str) -> PolyVectorField:
    n = len(components)
    return PolyVectorField([parse_poly(src, n) for src in components])


class TestLieBracket:
    def test_translation_and_scaling(self):
        # [d/dy, y d/dy] = d/dy
        assert lie_bracket(VF("1"), VF("x0")) == VF("1")

    def test_antisymmetry_diagonal(self):
        x = VF("x0^2 + x0")
        assert lie_bracket(x, x) == VF("0")

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
            assert total == PolyVectorField([Poly.zero(dim)] * dim)

    def test_bracket_terms_come_in_the_order_of_the_plain_loop(self):
        # lie_bracket skips a side with no terms or no partials; each
        # component keeps the order in which the loop over every j, x-side
        # before y-side, first meets its monomials
        rng = random.Random(23)
        for _ in range(40):
            dim = rng.randint(1, 4)
            x, y = random_field(rng, dim), random_field(rng, dim)
            bracket = lie_bracket(x, y).components
            for i in range(dim):
                order: dict = {}
                for j in range(dim):
                    for a, b in ((x, y), (y, x)):
                        for ea in a.components[j].terms:
                            for eb in b.components[i].terms:
                                if eb[j]:
                                    order.setdefault(tuple(p + q - (k == j) for k, (p, q) in enumerate(zip(ea, eb))))
                assert list(bracket[i].terms) == [e for e in order if e in bracket[i].terms]


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


def sympy_expr(p, xs):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
         for exps, c in p.terms.items()),
        sympy.Integer(0),
    )


def sympy_components(field, xs):
    return [sympy_expr(p, xs) for p in field.components]


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


@st.composite
def laurent_fields_and_polys(draw):
    """A field Z and polynomials F, G on R^n, exponents from -2 to 3."""
    n = draw(st.integers(1, 3))
    monomials = st.tuples(*[st.integers(-2, 3)] * n)

    def poly():
        return Poly(n, draw(st.dictionaries(monomials, COEFFS, max_size=3)))

    return PolyVectorField([poly() for _ in range(n)]), poly(), poly()


def jet_field(n: int) -> PolyVectorField:
    """The total derivative on jets y0 .. y_{n-1}: sum_{i<n-1} y_{i+1} d/dy_i."""
    return PolyVectorField([Poly.variable(n, i + 1) for i in range(n - 1)] + [Poly.zero(n)])


class TestDerivative:
    """Z(F) = sum_i Z_i dF/dx_i, which builds the P sequence of the Riccati
    hierarchy."""

    def test_jet_shift(self):
        assert jet_field(3).derivative(Poly.variable(3, 0)) == Poly.variable(3, 1)

    def test_leibniz_square(self):
        y0, y1 = Poly.variable(3, 0), Poly.variable(3, 1)
        assert jet_field(3).derivative(y0 * y0) == 2 * y0 * y1

    def test_unmoved_variables_are_constants(self):
        # b0 y0 on (b0, y0, y1), with a field that leaves b0 alone
        d = PolyVectorField([Poly.zero(3), Poly.variable(3, 2), Poly.zero(3)])
        assert d.derivative(parse_poly("x0*x1", 3)) == parse_poly("x0*x2", 3)
        assert d.derivative(parse_poly("x0^2", 3)) == Poly.zero(3)

    def test_jet_order_rises_by_at_most_one(self):
        rng = random.Random(13)
        d = jet_field(5)
        for _ in range(20):
            f = Poly(5, {tuple(rng.randint(0, 2) for _ in range(3)) + (0, 0): rng.randint(-4, 4) for _ in range(3)})
            assert all(e[4] == 0 for e in d.derivative(f).terms)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            jet_field(2).derivative(Poly.variable(3, 0))

    @settings(max_examples=20, deadline=None)
    @given(laurent_fields_and_polys())
    @example((jet_field(3), parse_poly("x1 + x0^2", 3), Poly.zero(3)))
    def test_matches_sympy(self, data):
        z, f, _ = data
        n = z.dimension
        xs = sympy.symbols(f"x0:{n}")
        sf, sz = sympy_expr(f, xs), sympy_components(z, xs)
        expected = sum((sz[i] * sympy.diff(sf, xs[i]) for i in range(n)), sympy.Integer(0))
        got = z.derivative(f)
        assert sympy.expand(sympy_expr(got, xs) - expected) == 0
        # the result is clean: the checking constructor rebuilds it as is
        assert Poly(n, got.terms) == got

    @settings(max_examples=30, deadline=None)
    @given(laurent_fields_and_polys(), COEFFS)
    def test_linear_leibniz_and_a_bracket(self, data, c):
        z, f, g = data
        n = z.dimension
        d = z.derivative
        assert d(f + g) == d(f) + d(g)
        assert d(f * c) == d(f) * c
        assert d(f * g) == d(f) * g + f * d(g)
        # Z(F) is the last component of [(Z, 0), (0, ..., 0, F)] on R^(n+1)
        lifted = PolyVectorField([p.remap(n + 1, range(n)) for p in z.components] + [Poly.zero(n + 1)])
        graph = PolyVectorField([Poly.zero(n + 1)] * n + [f.remap(n + 1, range(n))])
        assert lie_bracket(lifted, graph).components[n] == d(f).remap(n + 1, range(n))


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
    monomials = st.tuples(*[st.integers(-40, 40)] * n)
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
        bottom = VF(f"x0^-{EXPONENT_LIMIT}")
        assert lie_bracket(VF("1"), bottom) == VF(f"-{EXPONENT_LIMIT}*x0^-{EXPONENT_LIMIT + 1}")

    def test_exponents_past_the_limit_raise(self):
        with pytest.raises(ExponentLimitError, match="4294967295"):
            lie_bracket(VF("x0^3000000000"), VF("x0^2000000000"))
        with pytest.raises(ExponentLimitError):
            lie_bracket(VF("1", "0"), VF("0", f"x1^{EXPONENT_LIMIT + 1}"))
        # the limit bounds |e|, for a field and for the two fields of a bracket
        below = f"exponent -{EXPONENT_LIMIT + 1} is below -{EXPONENT_LIMIT}, minus the packed monomial limit"
        with pytest.raises(ExponentLimitError, match=below):
            lie_bracket(VF("1"), VF(f"x0^-{EXPONENT_LIMIT + 1}"))
        with pytest.raises(ExponentLimitError, match="4294967297 is above"):
            lie_bracket(VF("x0^-2"), VF(f"x0^-{EXPONENT_LIMIT}"))
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
            assert z.evaluate(t, state) == x.evaluate(t, state)

    def test_two_copies_equal_prolongation(self):
        y = VF("x0^2")
        x = td([("sin(t)", y)])
        # one term per copy, each on its own coordinates: summed, the
        # prolonged field
        (tf0, first), (tf1, second) = direct_product([x, x]).terms
        assert tf0 == tf1 == parse_timefn("sin(t)")
        assert first + second == diagonal_prolong(y, 2)

    def test_block_concatenation(self):
        x1 = td([("1", VF("1"))])
        x2 = td([("1", VF("x0"))])
        z = direct_product([x1, x2])
        assert z.evaluate(0.0, [7.0, 4.0]) == [1.0, 4.0]

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
            joint = z.evaluate(t, state)
            assert joint[:1] == pytest.approx(factors[0].evaluate(t, state[:1]))
            assert joint[1:] == pytest.approx(factors[1].evaluate(t, state[1:]))

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            direct_product([])


def bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in np.ravel(values)]


def kernel_values(field: TDVectorField, t, state: np.ndarray) -> np.ndarray:
    """The values of the (dim, rows) block ``state`` at ``t``, from a kernel
    bound to it and to a preallocated ``out``."""
    out = np.empty(state.shape)
    field.bind(state, out)(t)
    return out


def square_and_multiply(x: float, e: int) -> float:
    """x^e for e >= 1 from the bits of e after the leading one, left to
    right: square, then times x for a one bit."""
    p = x
    for bit in bin(e)[3:]:
        p = p * p
        if bit == "1":
            p = p * x
    return p


def per_monomial_sum(field: TDVectorField, t: float, state) -> list[float]:
    """The plain loop over terms, components and monomials that the
    compiled evaluator replaces: each monomial is its coefficient times its
    positive powers, left to right, over the product of its negative ones."""
    out = [0.0] * field.dimension
    for tf, vf in field.terms:
        s = tf.eval(t)
        for i, p in enumerate(vf.components):
            if not p.terms:
                continue
            acc = 0.0
            for exps, c in p.terms.items():
                v = float(c)
                divisor = None
                for j, e in enumerate(exps):
                    if e > 0:
                        v *= square_and_multiply(state[j], e)
                    elif e:
                        power = square_and_multiply(state[j], -e)
                        divisor = power if divisor is None else divisor * power
                acc += v if divisor is None else v / divisor
            out[i] += s * acc
    return out


TIME_COEFFS = st.sampled_from(["1", "0", "0.5", "0 - 1", "sin(t)", "t^2", "2 - t", "exp(0 - t)/3"])
STATE_VALUES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-2.0, 2.0))
# a field with a negative power divides by its coordinates
NONZERO_STATE_VALUES = st.one_of(st.sampled_from((1.0, -1.0)), st.floats(0.25, 2.0), st.floats(-2.0, -0.25))


def states(field: TDVectorField):
    laurent = any(e < 0 for _, vf in field.terms for p in vf.components for exps in p.terms for e in exps)
    n = field.dimension
    return st.lists(NONZERO_STATE_VALUES if laurent else STATE_VALUES, min_size=n, max_size=n)


@st.composite
def td_fields(draw):
    n = draw(st.integers(1, 3))
    # half the fields polynomial, whose states may be zeros of either sign
    monomials = st.tuples(*[st.integers(draw(st.sampled_from((0, -3))), 5)] * n)
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
    # TestBoundKernel's first test checks the same bits on every column
    @settings(max_examples=60, deadline=None)
    @given(field=td_fields(), t=st.floats(0.0, 2.0), data=st.data())
    def test_floats_match_the_per_monomial_sum_bit_for_bit(self, field, t, data):
        state = data.draw(states(field))
        got = field.evaluate(t, state)
        want = per_monomial_sum(field, t, state)
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]

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


# time coefficients that fold when compiled: zeros (-0.0 among them), a
# one, and other constants, next to one that reads t
FOLDING_COEFFS = st.sampled_from(["0", "0 - 0", "2 - 2", "0*(0 - 1)", "2 - 1", "0 - 1", "3/4", "1/3", "sin(t)"])


@st.composite
def folding_fields(draw):
    n = draw(st.integers(1, 3))
    monomials = st.tuples(*[st.integers(draw(st.sampled_from((0, -3))), 4)] * n)
    terms = [
        (
            parse_timefn(draw(FOLDING_COEFFS)),
            PolyVectorField([Poly(n, draw(st.dictionaries(monomials, COEFFS, max_size=3))) for _ in range(n)]),
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    return TDVectorField(terms)


def assert_ufunc_calls(field, monkeypatch, want):
    """Call a kernel of ``field`` on 20 rows at a float and at per-row
    times: ``want`` ufunc calls each, the last the closing 0.0 + out,
    and the point form's bits."""
    calls = []

    def counting(name, ufunc):
        return lambda *args: calls.append(name) or ufunc(*args)

    for name in ("_add", "_sub", "_mul", "_div", "_neg"):
        monkeypatch.setitem(vectorfield._KERNEL_NAMES, name, counting(name, vectorfield._KERNEL_NAMES[name]))
    n = field.dimension
    state, out = np.random.default_rng(3).uniform(0.5, 1.5, size=(n, 20)), np.empty((n, 20))
    kernel = field.bind(state, out)
    for t in (0.3, np.linspace(0.0, 1.0, 20)):
        calls.clear()
        kernel(t)
        assert len(calls) == want and calls[-1] == "_add"
        for row_t, column, got in zip(np.broadcast_to(t, 20).tolist(), state.T.tolist(), out.T):
            assert bits(got) == bits(field.evaluate(row_t, column))


class TestBoundKernel:
    @settings(max_examples=60, deadline=None)
    @given(field=td_fields(), copies=st.integers(0, 3), t=st.floats(0.0, 2.0), rows=st.integers(1, 6), data=st.data())
    def test_a_kernel_bound_once_gives_the_bytes_of_evaluate(self, field, copies, t, rows, data):
        if copies:
            # a field times its diagonal prolongation, as a rule's joint
            # system: the kernel runs the copies' statements on blocks
            prolonged = TDVectorField([(tf, diagonal_prolong(f, copies)) for tf, f in field.terms])
            field = direct_product([field, prolonged])
        n = field.dimension
        columns = [data.draw(states(field)) for _ in range(rows)]
        per_row = data.draw(st.lists(st.floats(0.0, 2.0), min_size=rows, max_size=rows))
        state, out = np.array(columns).T.copy(), np.empty((n, rows))
        # one (dim, rows) float block, components constant in the state
        # broadcast to the rows, and the same bits with per-row times
        block = kernel_values(field, t, state)
        assert kernel_values(field, np.full(rows, t), state).tobytes() == block.tobytes()
        kernel = field.bind(state, out)
        for times in (t, np.array(per_row), t):
            kernel(times)
            assert out.tobytes() == kernel_values(field, times, state).tobytes()
            # each column has the bits of the point form and of the plain
            # loop, powers and all
            for column, row_t, got in zip(columns, np.broadcast_to(times, rows).tolist(), out.T):
                want = bits(per_monomial_sum(field, row_t, column))
                assert bits(got) == bits(field.evaluate(row_t, column)) == want

    def test_a_bound_kernel_reads_its_buffers_at_each_call(self):
        # the kernel's columns are the point form's bits; the last factor's
        # component is zero
        omega = parse_timefn("1 + 0.1*sin(t)")
        field = direct_product([pinney_system(omega, 2.0), oscillator_system(omega), td([("sin(t)", VF("0"))])])
        rng = np.random.default_rng(11)
        state, out = np.empty((5, 4)), np.empty((5, 4))
        kernel = field.bind(state, out)
        for t in (0.3, np.linspace(0.0, 1.0, 4), 0.7):
            state[...] = rng.uniform(0.5, 1.5, size=(5, 4))
            out.fill(np.nan)
            kernel(t)
            for r, row_t in enumerate(np.broadcast_to(t, 4).tolist()):
                assert bits(out[:, r]) == bits(field.evaluate(row_t, state[:, r].tolist()))

    @settings(max_examples=80, deadline=None)
    @given(field=folding_fields(), t=st.floats(0.0, 2.0), rows=st.integers(1, 4), data=st.data())
    def test_folded_and_zero_coefficient_terms_keep_the_bits(self, field, t, rows, data):
        columns = [data.draw(states(field)) for _ in range(rows)]
        block = kernel_values(field, t, np.array(columns).T.copy())
        for column, got in zip(columns, block.T):
            want = bits(per_monomial_sum(field, t, column))
            assert bits(field.evaluate(t, column)) == want and bits(got) == want

    def test_two_kernels_bound_from_one_field_keep_their_own_slots(self):
        # each binding owns its coefficient slots (here -c for omega^2 and c
        # for cos(t)): two kernels on blocks of different widths, called in
        # alternation at float and per-row times, keep evaluate's bytes
        omega = parse_timefn("1 + 0.1*sin(t)")
        field = direct_product([pinney_system(omega, 2.0), td([("cos(t)", VF("x0 + 1"))])])
        rng = np.random.default_rng(5)
        bound = []
        for rows in (3, 5):
            state, out = rng.uniform(0.5, 1.5, size=(3, rows)), np.empty((3, rows))
            bound.append((field.bind(state, out), state, out))
        for times in (lambda rows: 0.3, lambda rows: rng.uniform(0.0, 2.0, rows), lambda rows: 1.7):
            for kernel, state, out in bound:
                t = times(out.shape[1])
                kernel(t)
                assert out.tobytes() == kernel_values(field, t, state).tobytes()
                for r, row_t in enumerate(np.broadcast_to(t, out.shape[1]).tolist()):
                    assert bits(out[:, r]) == bits(field.evaluate(row_t, state[:, r].tolist()))

    def test_a_negative_zero_coordinate_comes_out_positive(self):
        # 0.0 + x, the 0.0 a 0-d array operand, maps -0.0 to +0.0 as the
        # point form's float addition does
        omega = parse_timefn("1 + 0.1*sin(t)")
        field = direct_product([pinney_system(omega, 2.0), oscillator_system(omega), oscillator_system(omega)])
        columns = [[1.0, -0.0, 0.0, -0.0, -0.0, 0.0], [0.7, -0.0, -0.0, 0.0, 0.0, -0.0]]
        state, out = np.array(columns).T.copy(), np.empty((6, 2))
        kernel = field.bind(state, out)
        for t in (0.4, np.array([0.4, 1.3])):
            kernel(t)
            for column, row_t, got in zip(columns, np.broadcast_to(t, 2).tolist(), out.T):
                assert bits(got) == bits(field.evaluate(row_t, column))
            assert not np.signbit(out[[0, 2, 3, 4, 5]]).any()

    def test_a_sum_of_negated_zeros_comes_out_positive(self):
        # component 0 is -x0 - t*x1 in two parts, component 1 adds a third,
        # -x2: at +0.0 states every part is -0.0 and so is their sum, which
        # only the kernel's closing 0.0 + out makes +0.0, as the point
        # form's leading 0.0 + does
        field = td([("1", VF("-x0", "-x0", "x1 * x2")), ("t", VF("-x1", "-x1", "0")), ("0 - 1", VF("0", "x2", "0"))])
        state, out = np.zeros((3, 4)), np.empty((3, 4))
        kernel = field.bind(state, out)
        for t in (0.5, np.array([0.5, 1.0, 1.5, 2.0])):
            kernel(t)
            for r, row_t in enumerate(np.broadcast_to(t, 4).tolist()):
                assert bits(out[:, r]) == bits(field.evaluate(row_t, [0.0, 0.0, 0.0]))
            assert not np.signbit(out).any()

    @pytest.mark.parametrize("omega, want", [("1", 6), ("1 + 0.1*sin(t)", 7)])
    def test_the_pinney_rule_joint_kernel_ufunc_calls(self, omega, want, monkeypatch):
        # two powers, a division, p' less x0 (a subtraction at omega = 1, a
        # -omega^2 product and a sum otherwise), one negation or -omega^2
        # product for both copies' p', and one closing 0.0 + out; x' of the
        # target and of both copies are two row copies
        assert_ufunc_calls(build_rule_setup("pinney", {"omega": omega, "c": 2.0}).layout.system, monkeypatch, want)

    @pytest.mark.parametrize("order, want", [(3, 8), (5, 22)])
    def test_the_hierarchy_rule_joint_kernel_ufunc_calls(self, order, want, monkeypatch):
        # the member and its order companion copies at b = 1, 0, ..., 0:
        # one negation for the last coordinate of every copy and one row
        # copy for all their others; the member subtracts its negated
        # monomial
        setup = build_rule_setup("hierarchy", {"order": order, "b": ["1"] + ["0"] * (order - 1)})
        assert_ufunc_calls(setup.layout.system, monkeypatch, want)

    def test_per_row_times_need_one_time_per_row(self):
        # the slot block is written from one flat list, which numpy would
        # repeat or cut short to fit
        field = td([("sin(t)", VF("x0"))])
        kernel = field.bind(np.ones((1, 3)), np.empty((1, 3)))
        for t in (np.array([]), np.array([0.5]), np.zeros(4)):
            with pytest.raises(ValueError, match="times for a block of 3 rows"):
                kernel(t)

    def test_an_exponent_too_large_for_a_float_raises_on_each_call(self):
        # numpy converts the exponent to a float on each call, as Python
        # does: binding works, and every evaluation raises OverflowError,
        # which the integrators record as an rhs-error
        field = TDVectorField([(parse_timefn("1"), PolyVectorField([Poly.monomial(1, (10**400,), 1)]))])
        kernel = field.bind(np.full((1, 3), 0.5), np.empty((1, 3)))
        for call in (lambda: kernel(0.0), lambda: field.evaluate(0.0, [0.5])):
            with pytest.raises(OverflowError):
                call()
        cfg = IntegratorConfig(method="rk4", step=0.5)
        for traj in integrate_batch(field, [[0.5], [0.7], [0.9]], (0.0, 1.0), cfg):
            assert traj.event == SingularityEvent(0.0, "rhs-error")

    def test_an_empty_block(self):
        field = td([("sin(t)", VF("x1", "1")), ("t", VF("x0", "0"))])
        for t in (0.5, np.array([])):
            assert kernel_values(field, t, np.empty((2, 0))).shape == (2, 0)

    def test_a_term_folded_to_zero_is_dropped(self):
        # 1/x0 under the coefficient 2 - 2 is never computed: a zero or
        # non-finite state leaves the component at the other term's value
        field = TDVectorField(
            [(parse_timefn("2 - 2"), PolyVectorField([Poly.monomial(1, (-1,), 1)])), (parse_timefn("2 - 1"), VF("1"))]
        )
        assert field.evaluate(0.0, [0.0]) == [1.0]
        assert kernel_values(field, 0.0, np.array([[0.0, np.inf, np.nan]])).tolist() == [[1.0, 1.0, 1.0]]

    def test_a_coefficient_whose_evaluation_raises_stays_unfolded(self):
        too_large = TDVectorField([(TimeConstant(Fraction(10**400)), VF("x0"))])
        cases = [(td([("1/0", VF("x0"))]), ZeroDivisionError), (td([("exp(1000)", VF("x0"))]), OverflowError)]
        for field, error in cases + [(too_large, OverflowError)]:
            with pytest.raises(error):
                field.evaluate(0.0, [1.0])
            with pytest.raises(error):
                kernel_values(field, 0.0, np.ones((1, 3)))


def quotient_text(v: Fraction) -> str:
    """v as the text ``n/d``, or ``0 - n/d`` for a negative v: a constant
    tree computed as a float quotient, as ``TimeFunction.constant`` once
    built for every non-decimal value."""
    text = f"{abs(v.numerator)}/{v.denominator}"
    return f"0 - {text}" if v < 0 else text


# numerators and denominators up to 2^53 are exact floats, so n/d is
# rounded once, as float(v) is; past that n and d are rounded first, and
# the quotient can differ from float(v) in its last bit
EXACT_INTEGERS = 2**53


class TestConstantCoefficients:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(-EXACT_INTEGERS, EXACT_INTEGERS),
        d=st.integers(1, EXACT_INTEGERS),
        t=st.floats(0.0, 2.0),
    )
    @example(n=-1, d=3, t=0.5)
    @example(n=1, d=3, t=0.5)
    @example(n=EXACT_INTEGERS - 1, d=3, t=1.5)
    @example(n=-EXACT_INTEGERS, d=7, t=1.0)
    @example(n=10**15 + 1, d=1, t=0.25)
    def test_an_exact_constant_gives_the_bits_of_its_quotient_text(self, n, d, t):
        # a folded coefficient, and one multiplying a function of t
        value = Fraction(n, d)
        fields = (VF("x0", "x0*x1"), VF("1 - x1", "x1^2"))
        exact = TDVectorField(
            [
                (TimeFunction.constant(value), fields[0]),
                (TimeBinary("*", TimeFunction.constant(value), parse_timefn("sin(t)")), fields[1]),
            ]
        )
        text = quotient_text(value)
        quotient = td([(text, fields[0]), (f"({text})*sin(t)", fields[1])])
        state = np.random.default_rng(n % 1000).uniform(-2.0, 2.0, size=(2, 4))
        for times in (t, np.linspace(0.0, t, 4)):
            assert kernel_values(exact, times, state).tobytes() == kernel_values(quotient, times, state).tobytes()
        for column in state.T.tolist():
            assert bits(exact.evaluate(t, column)) == bits(quotient.evaluate(t, column))


class TestEvalRhs:
    def test_constant_field(self):
        x = td([("1", VF("1"))])
        assert x.evaluate(0.0, [7.0]) == [1.0]

    def test_cosine_coefficient(self):
        x = td([("cos(t)", VF("x0"))])
        assert x.evaluate(0.0, [2.0]) == [2.0]

    def test_harmonic_oscillator(self):
        from liesuper.systems import oscillator_system

        osc = oscillator_system(parse_timefn("1"))
        assert osc.evaluate(0.0, [0.0, 1.0]) == pytest.approx([1.0, 0.0])

    def test_dimension_mismatch(self):
        x = td([("1", VF("1"))])
        with pytest.raises(ValueError):
            x.evaluate(0.0, [1.0, 2.0])

    def test_time_function_failure_propagates(self):
        x = td([("1/t", VF("1"))])
        with pytest.raises(ZeroDivisionError):
            x.evaluate(0.0, [1.0])

    def test_product_of_blocks(self):
        a = td([("1", VF("x0"))])
        b = td([("1", VF("x1", "-x0"))])
        joint = direct_product([a, b])
        assert joint.dimension == 3
        assert joint.evaluate(0.0, [2.0, 0.5, 1.5]) == pytest.approx([2.0, 1.5, -0.5])
