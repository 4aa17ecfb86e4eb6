"""Integrators and singularity handling."""

import io
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liesuper.algebra import Poly
from liesuper.hierarchy import member_td_system
from liesuper.integrate import (
    IntegratorConfig,
    SingularityEvent,
    integrate,
    integrate_batch,
    write_csv,
)
from liesuper.parsing import parse_timefn
from liesuper.systems import oscillator_system, pinney_system
from liesuper.verify import build_rule_setup
from liesuper.vectorfield import PolyVectorField, TDVectorField, direct_product
from reference_systems import FunctionRHS

# the module, whose step floor and step budget the tests patch (the
# package's name ``integrate`` is the function)
INTEGRATE = sys.modules["liesuper.integrate"]


def decay_free(t, y):
    return [0.0]


def growth(t, y):
    """x' = x, so x(t) = x0 * e^t."""
    return [y[0]]


def riccati_blowup(t, y):
    """y' = -1 - y^2, so y(t) = -tan(t) from y(0) = 0: blow-up at pi/2."""
    return [-1.0 - y[0] * y[0]]


class TestIntegrate:
    def test_constant_solution(self):
        traj = integrate(FunctionRHS(1, decay_free), [5.0], (0.0, 1.0), IntegratorConfig())
        assert traj.completed
        assert np.all(traj.states == 5.0)

    def test_exponential_growth(self):
        cfg = IntegratorConfig(rtol=1e-10)
        traj = integrate(FunctionRHS(1, growth), [1.0], (0.0, 1.0), cfg)
        assert abs(traj.states[-1][0] - math.e) <= 1e-8

    def test_blow_up_detection(self):
        cfg = IntegratorConfig(rtol=1e-10)
        traj = integrate(FunctionRHS(1, riccati_blowup), [0.0], (0.0, 1.6), cfg)
        assert not traj.completed
        assert traj.event.trigger == "state-overflow"
        assert 1.45 < traj.event.time < 1.58
        # the stored states are the last valid ones
        assert np.all(np.abs(traj.states) <= 1e8)

    def test_times_strictly_increasing(self):
        traj = integrate(FunctionRHS(1, growth), [1.0], (0.0, 1.0), IntegratorConfig())
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0 and traj.times[-1] == 1.0

    def test_tspan_ordering_required(self):
        with pytest.raises(ValueError):
            integrate(FunctionRHS(1, growth), [1.0], (1.0, 0.0), IntegratorConfig())

    @pytest.mark.parametrize("tspan", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (-1e308, 1e308)])
    @pytest.mark.parametrize("method", ["rkf45", "rk4"])
    def test_non_finite_span_rejected(self, tspan, method):
        # an infinite end or length would make every step inf or nan
        cfg = IntegratorConfig(method=method, step=0.1 if method == "rk4" else None)
        rhs = FunctionRHS(1, growth)
        with pytest.raises(ValueError, match="^tspan "):
            integrate(rhs, [1.0], tspan, cfg)
        with pytest.raises(ValueError, match="^tspan "):
            integrate_batch(rhs, [[1.0], [2.0]], tspan, cfg)

    def test_rhs_error_status(self):
        def bad(t, y):
            if t > 0.5:
                raise ZeroDivisionError("boom")
            return [1.0]

        traj = integrate(FunctionRHS(1, bad), [0.0], (0.0, 1.0), IntegratorConfig(method="rk4", step=0.01))
        assert not traj.completed
        assert traj.event.trigger == "rhs-error"
        assert traj.event.time <= 0.51

    def test_max_steps_status(self, monkeypatch):
        monkeypatch.setattr(INTEGRATE, "STEP_LIMIT", 5)
        traj = integrate(FunctionRHS(1, growth), [1.0], (0.0, 1.0), IntegratorConfig())
        assert not traj.completed
        assert traj.event.trigger == "max-steps"


class TestRk4:
    def test_fourth_order_convergence(self):
        errors = []
        for h in (0.02, 0.01):
            traj = integrate(FunctionRHS(1, growth), [1.0], (0.0, 1.0), IntegratorConfig(method="rk4", step=h))
            errors.append(abs(traj.states[-1][0] - math.e))
        ratio = errors[0] / errors[1]
        assert 12.0 <= ratio <= 20.0

    def test_uniform_grid(self):
        traj = integrate(FunctionRHS(1, growth), [1.0], (0.0, 1.0), IntegratorConfig(method="rk4", step=1e-2))
        steps = np.diff(traj.times)
        assert steps == pytest.approx(np.full(100, 1e-2))

    def test_max_steps_ends_the_trajectory(self, monkeypatch):
        # ten of the hundred steps the span needs, alone and in lockstep,
        # end with the event rkf45 meets under the same budget
        monkeypatch.setattr(INTEGRATE, "STEP_LIMIT", 10)
        cfg = IntegratorConfig(method="rk4", step=0.01)
        rhs = FunctionRHS(1, growth)
        batch = assert_rows_match(rhs, [[1.0], [2.0], [3.0]], (0.0, 1.0), cfg)
        for traj in [integrate(rhs, [1.0], (0.0, 1.0), cfg)] + batch:
            assert (traj.event.trigger, traj.meta["steps"]) == ("max-steps", 10)
            assert traj.event.time == traj.times[-1] == pytest.approx(0.1)
            assert len(traj.states) == 11
        rkf45 = integrate(rhs, [1.0], (0.0, 1.0), IntegratorConfig())
        assert rkf45.event.trigger == "max-steps"

    def test_max_steps_bounds_the_grid(self, monkeypatch):
        # the span holds a billion steps; only the first ten are built
        monkeypatch.setattr(INTEGRATE, "STEP_LIMIT", 10)
        cfg = IntegratorConfig(method="rk4", step=1e-9)
        rhs = FunctionRHS(1, growth)
        for traj in [integrate(rhs, [1.0], (0.0, 1.0), cfg)] + integrate_batch(rhs, [[1.0], [2.0]], (0.0, 1.0), cfg):
            assert traj.times == pytest.approx(np.arange(11) * 1e-9, rel=1e-12, abs=0.0)
            assert traj.event.trigger == "max-steps"

    def test_step_required(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="rk4")

    def test_settings_must_be_finite(self):
        # a NaN or infinite tolerance would switch step control off
        for name in ("step", "rtol", "atol"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^{name} must be a finite positive number"):
                    IntegratorConfig(method="rk4", **{"step": 0.1, name: value})


PINNEY = pinney_system(parse_timefn("1 + 0.1*sin(t)"), 1.0)
RK4 = IntegratorConfig(method="rk4", step=1e-2)


def pinney_start_is_finite(x: float) -> bool:
    """Whether PINNEY's right-hand side at (x, 0) and t = 0 is finite."""
    try:
        return all(map(math.isfinite, PINNEY.evaluate(0.0, [x, 0.0])))
    except ZeroDivisionError:
        return False


def assert_rows_match(rhs, x0s, tspan, cfg):
    """Each row of the batch ends as ``integrate`` ends it alone: the same
    event and step counts, and the bytes of its times and states."""
    batch = integrate_batch(rhs, x0s, tspan, cfg)
    assert len(batch) == len(x0s)
    for got, x0 in zip(batch, x0s):
        want = integrate(rhs, x0, tspan, cfg)
        assert (got.event, got.meta) == (want.event, want.meta)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()
    return batch


class TestIntegrateBatch:
    @settings(max_examples=25, deadline=None)
    @given(
        healthy=st.lists(st.tuples(st.floats(0.5, 1.5), st.floats(-1.0, 1.0)), min_size=1, max_size=5),
        tiny=st.floats(1e-120, 1e-90),
        at=st.integers(0, 5),
    )
    # the healthy row's p passes near zero at node 49, where an ulp of x^3
    # once became a 3e-12 relative difference
    @example(healthy=[(1.2703954195547686, 0.5)], tiny=9.937859395208302e-91, at=0)
    def test_pinney_rows_with_one_reaching_x_zero(self, healthy, tiny, at):
        # when c/x^3 divides by zero or overflows at the start (Python
        # raises or gives inf, numpy signals), the tiny row ends there;
        # otherwise x^3 overflows a later stage of its first step to inf,
        # c/x^3 becomes 0, and the row leaves with its state past the bound
        # (the exact solution reaches x ~ sqrt(c) t / tiny)
        x0s = [list(row) for row in healthy]
        x0s.insert(at % (len(x0s) + 1), [tiny, 0.0])
        batch = assert_rows_match(PINNEY, x0s, (0.0, 1.0), RK4)
        event = batch[at % len(x0s)].event
        expected = ("state-overflow", 0.01) if pinney_start_is_finite(tiny) else ("rhs-error", 0.0)
        assert (event.trigger, event.time) == expected
        assert [traj.event for traj in batch].count(None) == len(healthy)

    @settings(max_examples=25, deadline=None)
    @given(
        healthy=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
        steep=st.floats(-20.0, -2.0),
        at=st.integers(0, 5),
    )
    def test_riccati_rows_with_one_blowing_up(self, healthy, steep, at):
        # y = tan(atan(y0) - t) reaches -infinity at t = atan(y0) + pi/2
        x0s = [[y0] for y0 in healthy]
        x0s.insert(at % (len(x0s) + 1), [steep])
        batch = assert_rows_match(FunctionRHS(1, riccati_blowup), x0s, (0.0, 1.0), RK4)
        triggers = [traj.event.trigger if traj.event else None for traj in batch]
        assert triggers.count("state-overflow") == 1 and triggers.count(None) == len(healthy)

    def test_time_function_pole_stops_every_row(self):
        pole = pinney_system(parse_timefn("1/(t - 0.5)"), 1.0)
        batch = assert_rows_match(pole, [[1.0, 0.0], [0.8, 0.3], [1.2, -0.5]], (0.0, 1.0), RK4)
        assert {traj.event.trigger for traj in batch} == {"rhs-error"}

    def test_time_function_gone_nan_stops_every_row(self):
        # inf - inf: nan without any floating-point signal in the block
        nan_omega = pinney_system(parse_timefn("exp(355)*exp(355) - exp(355)*exp(355)"), 1.0)
        batch = assert_rows_match(nan_omega, [[1.0, 0.0], [0.8, 0.3]], (0.0, 1.0), RK4)
        assert {(traj.event.trigger, traj.event.time) for traj in batch} == {("rhs-error", 0.0)}

    def test_joint_system_rows(self):
        osc = oscillator_system(parse_timefn("1 + 0.1*sin(t)"))
        joint = direct_product([PINNEY, osc, osc])
        x0s = [[1.0, 0.1, 1.0, 0.0, 0.0, 1.0], [1.3, -0.2, 0.5, 0.5, -1.0, 0.2], [0.0, 0.0, 1.0, 0.0, 0.0, 1.0]]
        batch = assert_rows_match(joint, x0s, (0.0, 1.0), RK4)
        assert [traj.completed for traj in batch] == [True, True, False]

    def test_rows_leaving_at_different_steps_end_bit_identical(self):
        # Row 4's first stage lands on x = 0.005 - 0.005 * 1.0 = 0 exactly,
        # where c/x^3 raises in the scalar step and signals in the block;
        # row 11 oscillates with an amplitude just past the bound and leaves
        # some steps later.  The kernels are bound again after each, and
        # the other rows' nodes go into the history by rows from then on.
        x0s = np.random.default_rng(3).uniform(0.5, 1.5, size=(20, 2)).tolist()
        x0s[4], x0s[11] = [0.005, -1.0], [9e7, 5e7]
        batch = assert_rows_match(PINNEY, x0s, (0.0, 1.0), RK4)
        assert batch[4].event == SingularityEvent(0.0, "rhs-error")
        assert batch[11].event.trigger == "state-overflow" and len(batch[11].times) > 5
        assert [traj.event for traj in batch].count(None) == 18

    def test_a_row_out_of_bounds_leaves_before_a_later_signal(self, monkeypatch):
        # u' = u, v' = -1, w' = 1/v on a grid of sixteenths, where v steps
        # down by 1/16 exactly.  Row 0 passes 1e8 at node 1 with no
        # floating-point flag and stays in the block; row 1's v reaches 0.0
        # at the last stage of step 3, where 1/v signals.  The scan before
        # that step's replay ends row 0 at node 1, so no replay starts from
        # it; row 2 passes 1e8 at node 15 and leaves at the closing scan.
        u, v = Poly.variable(3, 0), Poly.variable(3, 1)
        field = PolyVectorField([u, Poly.constant(3, -1), Poly.monomial(3, (0, -1, 0), 1)])
        rhs = TDVectorField([(parse_timefn("1"), field)])
        x0s = [[9.9e7, 100.0, 0.0], [1.0, 0.25, 0.0], [4e7, 100.0, 0.0], [1.0, 100.0, 0.0]]
        module = sys.modules["liesuper.integrate"]
        replays = []  # the u of each state a scalar step starts from
        scalar_step = module._rk4_step
        with monkeypatch.context() as patch:
            patch.setattr(module, "_rk4_step", lambda *args: replays.append(args[3][0]) or scalar_step(*args))
            batch = integrate_batch(rhs, x0s, (0.0, 1.0), IntegratorConfig(method="rk4", step=1 / 16))
        assert [traj.event for traj in batch] == [
            SingularityEvent(1 / 16, "state-overflow"),
            SingularityEvent(3 / 16, "rhs-error"),
            SingularityEvent(15 / 16, "state-overflow"),
            None,
        ]
        assert len(replays) == 3 and max(replays) < 1e8
        assert_rows_match(rhs, x0s, (0.0, 1.0), IntegratorConfig(method="rk4", step=1 / 16))

    @pytest.mark.parametrize("span", [(0.0, 3.0), (0.0, 1.0)])
    def test_a_replayed_nan_node_that_passes_the_scalar_bounds_test(self, span):
        # a' = C + eps*w, b' = a, w' = M*b: from this start the first step's
        # 2*k2 and 2*k3 of w overflow to +inf and -inf, so that w ends nan
        # from finite stages; the scalar step and the replay drop that node
        # and end the row with rhs-error at the step's start, on the last
        # step of the span too
        a, b, w = (Poly.variable(3, i) for i in range(3))
        field = PolyVectorField([Poly.constant(3, -76000) + w * Fraction(1e-320), a, b * Fraction(1e304)])
        rhs = TDVectorField([(parse_timefn("1"), field)])
        x0s = [[2.9e4, -5e3, 0.0], [2.9e4, -5e3, 0.0]]
        batch = assert_rows_match(rhs, x0s, span, IntegratorConfig(method="rk4", step=1.0))
        assert [(traj.event, len(traj.times)) for traj in batch] == [(SingularityEvent(0.0, "rhs-error"), 1)] * 2

    def test_an_infinite_node_from_finite_stages_is_a_state_overflow(self):
        # k1 + 2*k2 overflows to inf, so the first node is inf but not nan:
        # the row leaves with state-overflow at that node's time
        rhs = FunctionRHS(1, lambda t, y: [1e308])
        batch = assert_rows_match(rhs, [[0.0], [1.0]], (0.0, 2.0), IntegratorConfig(method="rk4", step=1.0))
        assert [(traj.event, len(traj.times)) for traj in batch] == [(SingularityEvent(1.0, "state-overflow"), 1)] * 2

    def test_batch_of_one_is_bit_identical(self):
        for rhs, x0 in ((PINNEY, [1.1, 0.2]), (FunctionRHS(1, riccati_blowup), [-3.0])):
            assert_rows_match(rhs, [x0], (0.0, 1.0), RK4)

    def test_empty_batch(self):
        assert integrate_batch(PINNEY, [], (0.0, 1.0), RK4) == []


class TestLockstepBlocks:
    def test_rk4_blocks_make_no_scalar_replay(self, monkeypatch):
        # x' = 1 has a component constant in the state, which the kernel
        # writes into every row.  A block of the wrong shape would
        # raise a ValueError inside the step, which the lockstep loop takes
        # for a signal and answers by replaying every row with the scalar
        # step: correct results, at the scalar cost.
        x = Poly.variable(2, 0)
        ramp = TDVectorField([(parse_timefn("1"), PolyVectorField([Poly.constant(2, 1), x]))])
        omega = parse_timefn("1 + 0.1*sin(t)")
        osc = oscillator_system(omega)
        joint = direct_product([pinney_system(omega, 2.0), osc, osc])
        module = sys.modules["liesuper.integrate"]
        replays = []
        scalar_step = module._rk4_step
        monkeypatch.setattr(module, "_rk4_step", lambda *args: replays.append(args[1]) or scalar_step(*args))
        rng = np.random.default_rng(7)
        for rhs in (ramp, joint):
            x0s = rng.uniform(0.5, 1.5, size=(20, rhs.dimension))
            state, out = x0s.T.copy(), np.empty((rhs.dimension, 20))
            kernel = rhs.bind(state, out)
            for t in (0.3, np.full(20, 0.3)):
                kernel(t)
                for column, got in zip(x0s.tolist(), out.T.tolist()):
                    assert got == rhs.evaluate(0.3, column)
            batch = integrate_batch(rhs, x0s.tolist(), (0.0, 1.0), RK4)
            assert all(traj.completed for traj in batch)
        assert replays == []


# y' = -sin(t) - t e^t y - y^2, a Riccati equation with time-dependent
# coefficients; from a steep negative start y runs to -infinity
RICCATI_TD = member_td_system(2, [parse_timefn("sin(t)"), parse_timefn("t*exp(t)")])


def _time_dependent_powers() -> TDVectorField:
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    return TDVectorField(
        [
            (parse_timefn("t"), PolyVectorField([x1, -(x0**3) * x1])),
            (parse_timefn("sin(t)"), PolyVectorField([x0**2, Poly.constant(2, 1)])),
            (parse_timefn("exp(t)"), PolyVectorField([Poly.zero(2), x0 - x1**5])),
        ]
    )


# coefficients that read t, so that each lockstep attempt evaluates them
# at per-row times, and powers up to x^5
TIME_DEPENDENT_POWERS = _time_dependent_powers()


def triggers(batch):
    return [traj.event.trigger if traj.event else None for traj in batch]


# the steep row's end under each step floor and step budget; healthy rows
# need at most about 60 attempts on [0, 1]
RICCATI_ENDINGS = [
    ({}, "state-overflow"),
    ({"MIN_STEP": 1e-5}, "step-underflow"),
    ({"STEP_LIMIT": 100}, "max-steps"),
]


class TestRkf45Lockstep:
    @settings(max_examples=20, deadline=None)
    @given(
        x0s=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=3, max_size=6),
        rtol=st.sampled_from([1e-6, 1e-10]),
    )
    def test_rows_with_powers_are_bit_identical(self, x0s, rtol):
        # the block runs the scalar attempt's float operations in its order
        assert_rows_match(TIME_DEPENDENT_POWERS, [list(x0) for x0 in x0s], (0.0, 1.0), IntegratorConfig(rtol=rtol))

    @settings(max_examples=20, deadline=None)
    @given(
        healthy=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5),
        steep=st.floats(-20.0, -3.0),
        at=st.integers(0, 5),
        ending=st.sampled_from(RICCATI_ENDINGS),
    )
    def test_riccati_rows_with_one_leaving_early(self, healthy, steep, at, ending):
        constants, trigger = ending
        x0s = [[y0] for y0 in healthy]
        x0s.insert(at % (len(x0s) + 1), [steep])
        with pytest.MonkeyPatch.context() as patch:
            for name, value in constants.items():
                patch.setattr(INTEGRATE, name, value)
            batch = assert_rows_match(RICCATI_TD, x0s, (0.0, 1.0), IntegratorConfig())
        assert triggers(batch).count(trigger) == 1 and triggers(batch).count(None) == len(healthy)

    @settings(max_examples=20, deadline=None)
    @given(
        healthy=st.lists(st.tuples(st.floats(0.5, 1.5), st.floats(-1.0, 1.0)), min_size=2, max_size=5),
        tiny=st.floats(1e-120, 1e-90),
        at=st.integers(0, 5),
    )
    def test_pinney_rows_with_one_reaching_x_zero(self, healthy, tiny, at):
        # the tiny row never takes a step: an attempt whose c/x^3 divides
        # by zero or overflows (Python raises or gives inf, numpy signals,
        # and the block's attempt is replayed row by row) halves the step,
        # and one that passes x^3 through inf is rejected, until the step
        # is below the minimum
        x0s = [list(row) for row in healthy]
        x0s.insert(at % (len(x0s) + 1), [tiny, 0.0])
        batch = assert_rows_match(PINNEY, x0s, (0.0, 1.0), IntegratorConfig())
        tiny_row = batch[at % len(x0s)]
        assert tiny_row.event.trigger in ("rhs-error", "step-underflow")
        assert (tiny_row.event.time, tiny_row.meta["steps"]) == (0.0, 0)
        assert triggers(batch).count(None) == len(healthy)

    def test_time_function_gone_nan_stops_every_row(self):
        # a nan coefficient without any floating-point signal: each row's
        # non-finite step is replayed alone
        nan_omega = pinney_system(parse_timefn("exp(355)*exp(355) - exp(355)*exp(355)"), 1.0)
        x0s = [[1.0, 0.0], [0.8, 0.3], [1.2, -0.5]]
        batch = assert_rows_match(nan_omega, x0s, (0.0, 1.0), IntegratorConfig())
        assert {(traj.event.trigger, traj.event.time) for traj in batch} == {("rhs-error", 0.0)}

    def test_rows_running_into_a_coefficient_pole_end_alike(self):
        # over a thousand steps into the pole at t = 0.5
        pole = pinney_system(parse_timefn("1/(t - 0.5)"), 1.0)
        x0s = [[1.0, 0.0], [0.8, 0.3], [1.2, -0.5]]
        batch = assert_rows_match(pole, x0s, (0.0, 1.0), IntegratorConfig())
        assert triggers(batch) == ["step-underflow"] * 3

    def test_batch_of_one_is_bit_identical(self):
        for rhs, x0 in ((PINNEY, [1.1, 0.2]), (RICCATI_TD, [-8.0]), (TIME_DEPENDENT_POWERS, [0.3, -0.4])):
            assert_rows_match(rhs, [x0], (0.0, 1.0), IntegratorConfig())


# joint systems of rules whose target has powers: x^3 for Bernoulli n = 3,
# up to x^5 for the hierarchy members of orders 3 to 5
POWER_JOINTS = [
    ("hierarchy", {"order": 3, "b": ["1", "0.5*t", "0"]}),
    ("hierarchy", {"order": 4, "b": ["1", "0", "sin(t)", "0"]}),
    ("hierarchy", {"order": 5, "b": ["1", "0", "0", "sin(t)", "0"]}),
    ("bernoulli", {"a": "cos(t)", "b": "0.5", "n": 3}),
]


class TestPowerBearingJoints:
    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    @pytest.mark.parametrize("rule_id, params", POWER_JOINTS)
    def test_rows_are_the_bytes_of_integrate(self, monkeypatch, rule_id, params, method):
        # row 2's target starts at 1e200, so its powers overflow at the
        # first stage: that block step (RK4) or that row's attempt (RKF45)
        # replays with the scalar step, and every other row keeps its bits
        joint = build_rule_setup(rule_id, params).layout.system
        x0s = np.random.default_rng(17).uniform(-1.2, 1.2, size=(20, joint.dimension))
        x0s[2, 0] = 1e200
        module = sys.modules["liesuper.integrate"]
        cfg = IntegratorConfig(method=method, step=1e-2 if method == "rk4" else None)
        replays = []  # the first coordinate of each state a scalar step starts from
        with monkeypatch.context() as patch:
            for name in ("_rk4_step", "_rkf45_attempt"):
                scalar = getattr(module, name)
                patch.setattr(module, name, lambda *args, scalar=scalar: replays.append(args[3][0]) or scalar(*args))
            integrate_batch(joint, x0s.tolist(), (0.0, 0.5), cfg)
        assert 1e200 in replays and (method == "rkf45" or len(replays) >= 6)
        batch = assert_rows_match(joint, x0s.tolist(), (0.0, 0.5), cfg)
        assert batch[2].event is not None and [traj.completed for traj in batch].count(True) >= 12


class TestStageSums:
    def test_scalar_stage_sums_are_the_block_sums(self):
        # component 0 sums 1e16 + 1 - 1e16 + 1: a left fold gives 1.0, a
        # compensated sum (Python's float sum from 3.12 on) gives 2.0
        from liesuper.integrate import _block_sum, _constants, _fold

        weights = (1.0, 1.0, 1.0, 1.0)
        k = [[1e16, 2.0], [1.0, 3.0], [-1e16, 5.0], [1.0, 7.0]]
        assert math.fsum(row[0] for row in k) == 2.0
        block = _block_sum(_constants(weights), np.array(k), np.empty(2), np.empty(2))
        assert _fold(weights, k) == block.tolist() == [1.0, 17.0]


class TestRkf45Accuracy:
    @pytest.mark.parametrize("rtol", [1e-6, 1e-8, 1e-10])
    def test_endpoint_error_scales_with_rtol(self, rtol):
        cfg = IntegratorConfig(rtol=rtol)
        traj = integrate(FunctionRHS(1, growth), [1.0], (0.0, 1.0), cfg)
        assert abs(traj.states[-1][0] - math.e) <= 10 * rtol * math.e


class TestCsv:
    def test_format_and_determinism(self):
        cfg = IntegratorConfig(rtol=1e-8)
        osc = oscillator_system(parse_timefn("1"))
        traj = integrate(osc, [1.0, 0.0], (0.0, 1.0), cfg)
        buffers = []
        for _ in range(2):
            buf = io.StringIO()
            write_csv(traj, buf)
            buffers.append(buf.getvalue())
        assert buffers[0] == buffers[1]
        lines = buffers[0].splitlines()
        assert lines[0] == "t,x0,x1"
        assert len(lines) == len(traj.times) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0
