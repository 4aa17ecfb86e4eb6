"""The P sequence, hierarchy members, companion systems, and gl(s) bases."""

import json
import math
import pathlib
import random
from fractions import Fraction

import pytest
import sympy

from liesuper.algebra import Poly
from liesuper.hierarchy import (
    companion_linear_system,
    gl_basis,
    gl_field,
    linear_generators,
    member_lie_generators,
    member_td_system,
    member_text,
    p_sequence,
    shift_generator,
)
from liesuper.integrate import IntegratorConfig, integrate
from liesuper.liealg import center_dimension, closure, structure_constants
from liesuper.parsing import TimeFunction, parse_poly, parse_timefn
from liesuper.vectorfield import lie_bracket
from reference_systems import member_first_order_system

GOLDEN = pathlib.Path(__file__).parent / "golden"


def jet_poly(src: str, s: int) -> Poly:
    """A polynomial on y0 .. y_{s-1}."""
    return parse_poly(src, s, [f"y{i}" for i in range(s)])


def member_names(s: int) -> list[str]:
    return [f"b{l}" for l in range(s)] + [f"y{i}" for i in range(s - 1)]


def parsed_member(s: int) -> Poly:
    """The right-hand side of ``member_text(s)``, read back on b0 .. b_{s-1},
    y0 .. y_{s-2}."""
    lhs, rhs = member_text(s).split(" = ")
    assert lhs == f"y{s - 1}"
    return parse_poly(rhs, 2 * s - 1, member_names(s))


def assembled_member(s: int) -> Poly:
    """drift + sum_l b_l * field_l over the last components of
    ``member_lie_generators(s)``, on b0 .. b_{s-1}, y0 .. y_{s-2}."""
    arity = 2 * s - 1
    jets = [s + i for i in range(s - 1)]
    drift, *fields = member_lie_generators(s)
    rhs = drift.components[-1].remap(arity, jets)
    for l, field in enumerate(fields):
        rhs = rhs + Poly.variable(arity, l) * field.components[-1].remap(arity, jets)
    return rhs


def member_rhs(s: int, yjet, bvals):
    """``assembled_member(s)`` at a jet and b values; exact on Fractions."""
    return assembled_member(s).evaluate([*bvals, *yjet])


class TestPSequence:
    def test_first_members(self):
        ps = p_sequence(3)
        assert ps[0] == Poly.constant(3, 1)
        assert ps[1] == jet_poly("y0", 3)
        assert ps[2] == jet_poly("y1 + y0^2", 3)
        assert ps[3] == jet_poly("y2 + 3*y0*y1 + y0^3", 3)

    def test_p3_at_unit_jet(self):
        # y2 + 3 y0 y1 + y0^3 at (1, 1, 1) is 5, exactly
        assert p_sequence(3)[3].evaluate((Fraction(1),) * 3) == 5

    def test_unit_leading_coefficient(self):
        ps = p_sequence(5)
        for l in range(1, 6):
            top = (0,) * (l - 1) + (1,) + (0,) * (5 - l)
            assert ps[l].terms[top] == 1

    def test_built_once_per_order(self):
        assert p_sequence(4) is p_sequence(4)
        assert p_sequence(3) is not p_sequence(4)

    def test_term_order_golden(self):
        # the compiled P sums add monomials in this order, so it pins bits
        golden = json.loads((GOLDEN / "p_sequence_order8_terms.json").read_text())
        for s in range(1, 9):
            for l, p in enumerate(p_sequence(s)):
                assert [list(e) + [0] * (8 - s) for e in p.terms] == golden[l]

    def test_defining_property_sympy_oracle(self):
        # d^l x/dt^l = x * P_l(y, y', ...) for y = x'/x, independent of the
        # recursion: exercised on a concrete x(t)
        t = sympy.Symbol("t")
        x = 1 + t + sympy.sin(t)
        yfun = sympy.diff(x, t) / x
        jets = [sympy.diff(yfun, t, i) for i in range(4)]
        ps = p_sequence(4)
        for l in range(5):
            terms = 0
            for je, c in ps[l].terms.items():
                term = sympy.Rational(c.numerator, c.denominator)
                for i, e in enumerate(je):
                    term *= jets[i] ** e
                terms += term
            lhs = sympy.diff(x, t, l)
            assert sympy.simplify(lhs - x * terms) == 0


class TestMember:
    def test_riccati(self):
        assert member_text(2) == "y1 = -b0 - b1*y0 - y0^2"
        expected = parse_poly("-b0 - b1*y0 - y0^2", 3, member_names(2))
        assert parsed_member(2) == assembled_member(2) == expected

    def test_second_order(self):
        expected = parse_poly("-3*y0*y1 - y0^3 - b0 - b1*y0 - b2*(y0^2 + y1)", 5, member_names(3))
        assert parsed_member(3) == assembled_member(3) == expected

    def test_third_order(self):
        expected = parse_poly(
            "-4*y0*y2 - 3*y1^2 - 6*y0^2*y1 - y0^4 - b0 - b1*y0 - b2*(y1 + y0^2)"
            " - b3*(y2 + 3*y0*y1 + y0^3)",
            7,
            member_names(4),
        )
        assert parsed_member(4) == assembled_member(4) == expected

    def test_affine_in_each_b(self):
        for s in (2, 3, 4, 5):
            member = parsed_member(s)
            assert member == assembled_member(s)
            for exps in member.terms:
                assert sum(exps[:s]) <= 1

    def test_order_bound(self):
        with pytest.raises(ValueError):
            member_text(1)
        with pytest.raises(ValueError):
            member_lie_generators(1)


def series_divide(numerator, denominator, n):
    """Exact power-series quotient to n coefficients (denominator[0] != 0)."""
    q = []
    for k in range(n):
        acc = numerator[k] if k < len(numerator) else Fraction(0)
        for i in range(k):
            acc -= q[i] * denominator[k - i]
        q.append(acc / denominator[0])
    return q


def factorial(n: int) -> int:
    return math.factorial(n)


class TestMemberSeriesOracle:
    """Exact check of y^(s-1) = rhs(y-jet, b) against power series.

    An independent route to the same number: solve the linear equation as a
    Taylor series with exact rational coefficients, divide series to get
    y = x'/x, and read the jet of y at 0 straight off the quotient.
    """

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_member_matches_series(self, s):
        rng = random.Random(100 + s)
        for _ in range(5):
            bvals = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(s)]
            x_jet = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(s)]
            x_jet[0] = Fraction(rng.randint(1, 3))  # keep x(0) away from 0
            n = s + 3
            d = list(x_jet)
            while len(d) < n + 1:
                j = len(d) - s
                d.append(-sum(bvals[l] * d[l + j] for l in range(s)))
            a = [d[k] / factorial(k) for k in range(n + 1)]
            aprime = [(k + 1) * a[k + 1] for k in range(n)]
            q = series_divide(aprime, a, n)
            yjet = [factorial(j) * q[j] for j in range(s - 1)]
            lhs = factorial(s - 1) * q[s - 1]
            rhs = member_rhs(s, yjet, bvals)
            assert lhs == rhs


class TestCompanionSystem:
    def test_constant_frequency_oscillator(self):
        system = companion_linear_system(2, [parse_timefn("1"), parse_timefn("0")])
        assert system.evaluate(0.3, [2.0, 5.0]) == pytest.approx([5.0, -2.0])

    def test_free_particle(self):
        system = companion_linear_system(2, [parse_timefn("0"), parse_timefn("0")])
        assert system.evaluate(0.0, [7.0, 3.0]) == pytest.approx([3.0, 0.0])

    def test_integrator_chain(self):
        system = companion_linear_system(3, [parse_timefn("0") for _ in range(3)])
        assert system.evaluate(0.0, [1.0, 2.0, 3.0]) == pytest.approx([2.0, 3.0, 0.0])

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_terms_are_the_shift_and_one_field_per_coefficient(self, s):
        bvals = [parse_timefn(src) for src in ["sin(t)", "1", "t", "0.5"][:s]]
        system = companion_linear_system(s, bvals)
        shift = gl_field(s, 0, 1)
        for i in range(1, s - 1):
            shift = shift + gl_field(s, i, i + 1)
        assert [tf for tf, _ in system.terms] == [TimeFunction.constant(1), *bvals]
        assert system.constituent_fields() == [shift] + [-gl_field(s, s - 1, l) for l in range(s)]

    def test_coefficient_count_enforced(self):
        # the same check, and message, as the member system's
        for count in (1, 2, 4):
            bvals = [parse_timefn("1")] * count
            for build in (companion_linear_system, member_td_system):
                with pytest.raises(ValueError, match=f"need 3 coefficient functions, got {count}"):
                    build(3, bvals)


class TestMemberFirstOrderSystem:
    def test_riccati_constant(self):
        rhs = member_first_order_system(2, [parse_timefn("1"), parse_timefn("0")])
        assert rhs.evaluate(0.0, [0.0]) == pytest.approx([-1.0])
        assert rhs.evaluate(0.0, [2.0]) == pytest.approx([-5.0])

    def test_second_order_free(self):
        zero = parse_timefn("0")
        rhs = member_first_order_system(3, [zero, zero, zero])
        v0, v1 = 0.7, -1.2
        assert rhs.evaluate(0.0, [v0, v1]) == pytest.approx([v1, -3 * v0 * v1 - v0**3])

    def test_pure_quadratic(self):
        zero = parse_timefn("0")
        rhs = member_first_order_system(2, [zero, zero])
        assert rhs.evaluate(0.0, [3.0]) == pytest.approx([-9.0])

    def test_wrong_coefficient_count(self):
        with pytest.raises(ValueError):
            member_first_order_system(2, [parse_timefn("0")])

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_agrees_with_decomposed_form(self, s):
        rng = random.Random(50 + s)
        bfns = [parse_timefn(src) for src in ["1 + 0.5*sin(t)", "cos(t)", "0.3", "t"][:s]]
        generic = member_first_order_system(s, bfns)
        decomposed = member_td_system(s, bfns)
        for _ in range(10):
            t = rng.uniform(0.0, 2.0)
            state = [rng.uniform(-2.0, 2.0) for _ in range(s - 1)]
            assert generic.evaluate(t, state) == pytest.approx(decomposed.evaluate(t, state))


class TestGlBasis:
    def test_dimension_counts(self):
        assert gl_basis(1).size == 1
        assert gl_basis(2).size == 4

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_basis_closes_on_itself(self, s):
        assert closure(list(gl_basis(s).fields)).size == s * s

    def test_center_of_gl3(self):
        assert center_dimension(structure_constants(gl_basis(3))) == 1

    def test_linear_generator_closures(self):
        assert closure(linear_generators(2)).size == 4
        assert closure(linear_generators(3)).size == 9

    def test_shift_bracket_relations(self):
        # [X[i,j], Delta] = X[i-1,j] - X[i,j+1] away from the wrap column,
        # and [X[i,s-1], Delta] = X[i-1,s-1] - X[i,0] on it
        for s in (2, 3, 4):
            delta = shift_generator(s)
            for i in range(1, s):
                for j in range(s - 1):
                    assert lie_bracket(gl_field(s, i, j), delta) == gl_field(s, i - 1, j) - gl_field(s, i, j + 1)
                assert lie_bracket(gl_field(s, i, s - 1), delta) == gl_field(s, i - 1, s - 1) - gl_field(s, i, 0)


class TestMemberLieGenerators:
    @pytest.mark.parametrize("s,expected", [(2, 3), (3, 8), (4, 15)])
    def test_member_algebra_dimensions(self, s, expected):
        assert closure(member_lie_generators(s)).size == expected


class TestLogDerivativeRoundTrip:
    """Numeric consistency of the member equation with the companion system.

    Integrate the linear system, form y = u1/u0 on a fine grid, estimate the
    derivatives of y by Richardson-extrapolated central differences, and
    compare the top one against the member's right-hand side at the
    estimated jet.
    """

    @pytest.mark.parametrize("s", [2, 3])
    def test_member_equals_log_derivative(self, s):
        rng = random.Random(900 + s)
        for _ in range(3):
            bvals = [Fraction(rng.randint(-1, 1), rng.randint(1, 2)) for _ in range(s)]
            x_jet = [1.0] + [rng.uniform(-0.5, 0.5) for _ in range(s - 1)]
            system = companion_linear_system(s, [TimeFunction.constant(v) for v in bvals])
            g = 2.5e-3
            traj = integrate(system, x_jet, (0.0, 1.0), IntegratorConfig(method="rk4", step=g))
            u = traj.states
            yvals = u[:, 1] / u[:, 0]
            mid = len(yvals) // 2
            step = 8  # FD offsets at 8g and 16g
            h = step * g

            def d1(values, i, hh, k):
                return (values[i + k] - values[i - k]) / (2 * hh)

            def d2(values, i, hh, k):
                return (values[i + k] - 2 * values[i] + values[i - k]) / hh**2

            y0 = yvals[mid]
            yp = (4 * d1(yvals, mid, h, step) - d1(yvals, mid, 2 * h, 2 * step)) / 3
            if s == 2:
                jet, top = [y0], yp
            else:
                ypp = (4 * d2(yvals, mid, h, step) - d2(yvals, mid, 2 * h, 2 * step)) / 3
                jet, top = [y0, yp], ypp
            rhs = float(member_rhs(s, jet, [float(v) for v in bvals]))
            assert top == pytest.approx(rhs, abs=1e-6)
