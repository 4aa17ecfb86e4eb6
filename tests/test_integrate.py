"""Integrators, singularity handling, and first-integral drift."""

import io
import math

import numpy as np
import pytest

from liesuper.integrate import (
    IntegratorConfig,
    Trajectory,
    first_integral_drift,
    integrate,
    write_csv,
    wronskian,
)
from liesuper.parsing import parse_timefn
from liesuper.systems import oscillator_system
from liesuper.vectorfield import GenericRHS, direct_product


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
        traj = integrate(GenericRHS(1, decay_free), [5.0], (0.0, 1.0), IntegratorConfig())
        assert traj.completed
        assert np.all(traj.states == 5.0)

    def test_exponential_growth(self):
        cfg = IntegratorConfig(rtol=1e-10)
        traj = integrate(GenericRHS(1, growth), [1.0], (0.0, 1.0), cfg)
        assert abs(traj.final_state()[0] - math.e) <= 1e-8

    def test_blow_up_detection(self):
        cfg = IntegratorConfig(rtol=1e-10)
        traj = integrate(GenericRHS(1, riccati_blowup), [0.0], (0.0, 1.6), cfg)
        assert traj.status == "singular"
        assert traj.event.trigger == "state-overflow"
        assert 1.45 < traj.event.time < 1.58
        # the stored states are the last valid ones
        assert np.all(np.abs(traj.states) <= 1e8)

    def test_times_strictly_increasing(self):
        traj = integrate(GenericRHS(1, growth), [1.0], (0.0, 1.0), IntegratorConfig())
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0 and traj.times[-1] == 1.0

    def test_tspan_ordering_required(self):
        with pytest.raises(ValueError):
            integrate(GenericRHS(1, growth), [1.0], (1.0, 0.0), IntegratorConfig())

    def test_rhs_error_status(self):
        def bad(t, y):
            if t > 0.5:
                raise ZeroDivisionError("boom")
            return [1.0]

        traj = integrate(GenericRHS(1, bad), [0.0], (0.0, 1.0), IntegratorConfig(method="rk4", step=0.01))
        assert traj.status == "singular"
        assert traj.event.trigger == "rhs-error"
        assert traj.event.time <= 0.51

    def test_max_steps_status(self):
        cfg = IntegratorConfig(max_steps=5)
        traj = integrate(GenericRHS(1, growth), [1.0], (0.0, 1.0), cfg)
        assert traj.status == "singular"
        assert traj.event.trigger == "max-steps"


class TestRk4:
    def test_fourth_order_convergence(self):
        errors = []
        for h in (0.02, 0.01):
            traj = integrate(GenericRHS(1, growth), [1.0], (0.0, 1.0), IntegratorConfig(method="rk4", step=h))
            errors.append(abs(traj.final_state()[0] - math.e))
        ratio = errors[0] / errors[1]
        assert 12.0 <= ratio <= 20.0

    def test_uniform_grid(self):
        traj = integrate(GenericRHS(1, growth), [1.0], (0.0, 1.0), IntegratorConfig(method="rk4", step=1e-2))
        steps = np.diff(traj.times)
        assert steps == pytest.approx(np.full(100, 1e-2))

    def test_step_required(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="rk4")

    def test_settings_must_be_finite(self):
        # a NaN or infinite tolerance would switch step control off
        for name in ("step", "rtol", "atol", "min_step", "max_step"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^{name} must be a finite positive number"):
                    IntegratorConfig(method="rk4", **{"step": 0.1, name: value})


class TestRkf45Accuracy:
    @pytest.mark.parametrize("rtol", [1e-6, 1e-8, 1e-10])
    def test_endpoint_error_scales_with_rtol(self, rtol):
        cfg = IntegratorConfig(rtol=rtol)
        traj = integrate(GenericRHS(1, growth), [1.0], (0.0, 1.0), cfg)
        assert abs(traj.final_state()[0] - math.e) <= 10 * rtol * math.e


def oscillator_pair_trajectory(omega_src: str, rtol=1e-10):
    osc = oscillator_system(parse_timefn(omega_src))
    joint = direct_product([osc, osc])
    cfg = IntegratorConfig(rtol=rtol)
    return integrate(joint, [1.0, 0.0, 0.0, 1.0], (0.0, 1.0), cfg)


class TestFirstIntegralDrift:
    def test_constant_function(self):
        traj = integrate(GenericRHS(1, growth), [1.0], (0.0, 1.0), IntegratorConfig())
        assert first_integral_drift([traj], lambda row: 42.0) == 0.0

    def test_wronskian_of_basis_solutions(self):
        traj = oscillator_pair_trajectory("1")
        parts = [traj.block(0, 2), traj.block(2, 4)]
        psi = lambda row: row[0] * row[3] - row[1] * row[2]
        assert first_integral_drift(parts, psi) <= 1e-9

    def test_cross_ratio_of_riccati_solutions(self):
        from liesuper.hierarchy import member_td_system

        riccati = member_td_system(2, [parse_timefn("1"), parse_timefn("0")])
        joint = direct_product([riccati] * 4)
        traj = integrate(joint, [0.0, 1.0, -0.5, 2.0], (0.0, 1.0), IntegratorConfig(rtol=1e-10))
        parts = [traj.block(i, i + 1) for i in range(4)]

        def psi(row):
            y0, y1, y2, y3 = row
            return ((y0 - y1) * (y3 - y2)) / ((y3 - y1) * (y0 - y2))

        assert first_integral_drift(parts, psi) <= 1e-7

    def test_grid_mismatch_rejected(self):
        t1 = integrate(GenericRHS(1, growth), [1.0], (0.0, 1.0), IntegratorConfig(method="rk4", step=0.1))
        t2 = integrate(GenericRHS(1, growth), [1.0], (0.0, 1.0), IntegratorConfig(method="rk4", step=0.05))
        with pytest.raises(ValueError):
            first_integral_drift([t1, t2], lambda row: 0.0)


class TestWronskian:
    def test_identical_trajectories_vanish(self):
        traj = oscillator_pair_trajectory("1")
        part = traj.block(0, 2)
        assert np.all(wronskian(part, part) == 0.0)

    def test_basis_solutions_give_one(self):
        traj = oscillator_pair_trajectory("1")
        w = wronskian(traj.block(0, 2), traj.block(2, 4))
        assert np.max(np.abs(w - 1.0)) <= 1e-9

    def test_conserved_for_time_dependent_frequency(self):
        # the system is trace-free, so the Wronskian is constant even for
        # omega(t) = 1 + 0.1 t
        traj = oscillator_pair_trajectory("1 + 0.1*t")
        w = wronskian(traj.block(0, 2), traj.block(2, 4))
        assert np.max(np.abs(w - w[0])) <= 1e-8

    def test_dimension_check(self):
        traj = integrate(GenericRHS(1, growth), [1.0], (0.0, 1.0), IntegratorConfig())
        with pytest.raises(ValueError):
            wronskian(traj, traj)


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
