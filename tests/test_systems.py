"""System spec validation, construction, and round-tripping."""

import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesuper.algebra import Poly
from liesuper.liealg import closure, lie_dimension
from liesuper.parsing import parse_timefn
from liesuper.systems import SpecError, build_rhs, oscillator_system, parse_system_spec, pinney_system, spec_to_doc
from liesuper.vectorfield import PolyVectorField, direct_product, lie_bracket


class TestParseSystemSpec:
    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="kind"):
            parse_system_spec({"kind": "pendulum"})

    def test_missing_key_names_path(self):
        with pytest.raises(SpecError, match="system.b"):
            parse_system_spec({"kind": "linear_affine", "a": "0"})

    def test_bad_time_function_names_path(self):
        with pytest.raises(SpecError, match=r"system\.b\[1\]"):
            parse_system_spec({"kind": "linear_homogeneous", "order": 2, "b": ["1", "sin(q)"]})

    def test_bernoulli_exponent_check(self):
        with pytest.raises(SpecError, match="system.n"):
            parse_system_spec({"kind": "bernoulli", "a": "0", "b": "1", "n": 1})

    def test_custom_td_field_check(self):
        with pytest.raises(SpecError, match=r"terms\[0\].field"):
            parse_system_spec(
                {"kind": "custom_td", "dim": 2, "terms": [{"coeff": "1", "field": ["x0"]}]}
            )

    def test_dimensions(self):
        assert parse_system_spec({"kind": "linear_affine", "a": "0", "b": "1"}).dimension == 1
        assert parse_system_spec({"kind": "oscillator", "omega": "1"}).dimension == 2
        assert (
            parse_system_spec({"kind": "linear_homogeneous", "order": 3, "b": ["0", "0", "0"]}).dimension
            == 3
        )
        assert (
            parse_system_spec({"kind": "hierarchy_member", "order": 3, "b": ["0", "0", "0"]}).dimension
            == 2
        )


class TestBuildRhs:
    def test_riccati_kinds_agree(self):
        spec_td = parse_system_spec({"kind": "riccati", "b0": "1", "b1": "0"})
        spec_member = parse_system_spec({"kind": "hierarchy_member", "order": 2, "b": ["1", "0"]})
        a = build_rhs(spec_td)
        b = build_rhs(spec_member)
        for t, y in ((0.0, 0.5), (1.2, -2.0)):
            assert a.evaluate(t, [y]) == pytest.approx(b.evaluate(t, [y]))

    def test_pinney_rhs(self):
        spec = parse_system_spec({"kind": "pinney", "omega": "1", "c": 2.0})
        rhs = build_rhs(spec)
        assert rhs.evaluate(0.0, [1.0, 0.5]) == pytest.approx([0.5, -1.0 + 2.0])

    def test_bernoulli_rhs(self):
        spec = parse_system_spec({"kind": "bernoulli", "a": "0", "b": "1", "n": 2})
        rhs = build_rhs(spec)
        assert rhs.evaluate(0.0, [3.0]) == pytest.approx([9.0])

    def test_custom_td(self):
        spec = parse_system_spec(
            {
                "kind": "custom_td",
                "dim": 2,
                "terms": [
                    {"coeff": "1", "field": ["x1", "0"]},
                    {"coeff": "cos(t)", "field": ["0", "0 - x0"]},
                ],
            }
        )
        rhs = build_rhs(spec)
        assert rhs.evaluate(0.0, [2.0, 3.0]) == pytest.approx([3.0, -2.0])


def hand_written_pinney(omega: str, c: float):
    """The hand-written Pinney right-hand side that the decomposed field
    replaced (without its OverflowError for an infinite x^3): floats, or
    coordinate-major arrays of rows with ``t`` a float or per-row times."""
    w = parse_timefn(omega).compile()

    def fn(t, state):
        x, p = state
        cube = x * x * x
        if isinstance(t, np.ndarray):
            return [p, np.array([-w(ti) ** 2 for ti in t.tolist()]) * x + c / cube]
        return [p, -w(t) ** 2 * x + c / cube]

    return fn


def bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in np.ravel(values)]


PINNEY_OMEGAS = st.sampled_from(["1", "1 + 0.1*sin(t)", "0", "t - 1", "2*cos(3*t)"])
PINNEY_CS = st.sampled_from([0.5, 1.0, 2.0, 3.7, -1.0, 1e-3])
NONZERO_X = st.one_of(st.floats(0.05, 1e50), st.floats(-1e50, -0.05), st.sampled_from([1.0, -1.0, 1e-30]))
ANY_P = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))


class TestPinneyField:
    @settings(max_examples=150, deadline=None)
    @given(omega=PINNEY_OMEGAS, c=PINNEY_CS, t=st.floats(0.0, 2.0), x=NONZERO_X, p=ANY_P)
    def test_points_equal_the_hand_written_formula_bit_for_bit(self, omega, c, t, x, p):
        got = pinney_system(parse_timefn(omega), c).evaluate(t, [x, p])
        want = hand_written_pinney(omega, c)(t, [x, p])
        assert bits(got[1]) == bits(want[1])
        # x' is summed from 0.0 like every compiled component, so a p of
        # -0.0 comes back as +0.0; any other p comes back as it is
        assert bits(got[0]) == bits(0.0 + want[0]) and got[0] == want[0]

    @settings(max_examples=60, deadline=None)
    @given(omega=PINNEY_OMEGAS, c=PINNEY_CS, t=st.floats(0.0, 2.0), rows=st.integers(1, 6), data=st.data())
    def test_blocks_equal_the_hand_written_formula_bit_for_bit(self, omega, c, t, rows, data):
        block = np.array([data.draw(st.lists(strategy, min_size=rows, max_size=rows)) for strategy in (NONZERO_X, ANY_P)])
        per_row = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=rows, max_size=rows)))
        field, fn = pinney_system(parse_timefn(omega), c), hand_written_pinney(omega, c)
        for times in (t, per_row):
            got = np.empty((2, rows))
            field.bind(block, got)(times)
            want = fn(times, block)
            assert bits(got[1]) == bits(want[1])
            assert bits(got[0]) == bits(0.0 + want[0])

    def test_a_zero_x_raises_where_the_formula_did(self):
        field, fn = pinney_system(parse_timefn("1"), 2.0), hand_written_pinney("1", 2.0)
        for x in (0.0, -0.0):
            for rhs in (field.evaluate, fn):
                with pytest.raises(ZeroDivisionError):
                    rhs(0.3, [x, 1.0])

    def test_decomposed_form(self):
        # (1, p d/dx + c x^-3 d/dp) and (omega^2, -x d/dp), c the float's
        # exact Fraction; the second term is the oscillator's
        omega = parse_timefn("1 + 0.1*sin(t)")
        (_, drift), pull = pinney_system(omega, 0.1).terms
        assert drift.components == (Poly.variable(2, 1), Poly.monomial(2, (-3, 0), Fraction(0.1)))
        assert pull == oscillator_system(omega).terms[1]

    def test_laurent_fields_close_to_sl2(self):
        # X0 = p d/dx + 2 x^-3 d/dp, X1 = -x d/dp and X2 = [X0, X1] = x d/dx - p d/dp
        x0, x1 = pinney_system(parse_timefn("1"), 2.0).constituent_fields()
        x2 = PolyVectorField([Poly.variable(2, 0), -Poly.variable(2, 1)])
        assert lie_bracket(x0, x1) == x2
        assert lie_bracket(x0, x2) == x0 * 2
        assert lie_bracket(x1, x2) == x1 * -2
        assert closure([x0, x1]).fields == (x0, x1, x2)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_target_lie_dimension(self, c):
        assert lie_dimension(pinney_system(parse_timefn("1 + 0.1*sin(t)"), c).constituent_fields()) == 3

    def test_joint_terms_keep_the_oscillator_fields(self):
        omega = parse_timefn("1 + 0.1*sin(t)")
        pinney, osc = pinney_system(omega, 2.0), oscillator_system(omega)
        joint = direct_product([pinney, osc, osc])
        # the target's and both components' terms share two coefficients:
        # each factor's two terms, in order, on its own coordinates
        assert [tf for tf, _ in joint.terms] == [tf for tf, _ in pinney.terms] * 3
        for tf_index in range(2):
            field = sum((joint.terms[2 * block + tf_index][1] for block in range(3)), PolyVectorField([Poly.zero(6)] * 6))
            for block, system in enumerate((pinney, osc, osc)):
                part = system.terms[tf_index][1]
                for i in range(2):
                    want = part.components[i].remap(6, [2 * block, 2 * block + 1])
                    assert field.components[2 * block + i] == want


class TestRoundTrip:
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "linear_affine", "a": "0.2*cos(t)", "b": "1"},
            {"kind": "bernoulli", "a": "cos(t)", "b": "0.3", "n": 3},
            {"kind": "riccati", "b0": "1 + 0.5*sin(t)", "b1": "cos(t)"},
            {"kind": "oscillator", "omega": "1 + 0.1*t"},
            {"kind": "pinney", "omega": "1", "c": 0.5},
            {"kind": "linear_homogeneous", "order": 2, "b": ["1", "0"]},
            {"kind": "hierarchy_member", "order": 3, "b": ["1", "0", "0.3"]},
            {
                "kind": "custom_td",
                "dim": 1,
                "terms": [{"coeff": "exp(t)", "field": ["x0^2"]}],
            },
        ],
    )
    def test_dump_reparses_identically(self, doc):
        spec = parse_system_spec(doc)
        dumped = spec_to_doc(spec)
        assert parse_system_spec(dumped) == spec
