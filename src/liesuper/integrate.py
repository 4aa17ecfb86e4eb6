"""Numerical ODE integration with explicit singularity accounting.

Two schemes: a fixed-step classical Runge-Kutta of order 4, and the
adaptive Fehlberg 4(5) embedded pair (the fifth-order solution is
propagated; the difference between the two orders drives step control).

Solutions of the systems treated here genuinely escape to infinity in
finite time (Riccati-type equations do), so failure is a first-class
outcome rather than an exception: a trajectory ends either 'completed'
or 'singular' with an event recording the estimated time and trigger

    state-overflow   |state|_inf crossed the blow-up threshold
    step-underflow   the adaptive step fell below the minimum
    rhs-error        the right-hand side failed to evaluate (e.g. 1/0)
    max-steps        the step budget ran out

The returned grid is the accepted steps; there is no dense interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .vectorfield import AnyRHS

STATE_OVERFLOW = "state-overflow"
STEP_UNDERFLOW = "step-underflow"
RHS_ERROR = "rhs-error"
MAX_STEPS = "max-steps"


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rkf45"  # 'rkf45' or 'rk4'
    step: float | None = None  # required for rk4
    rtol: float = 1e-10
    atol: float = 1e-12
    min_step: float = 1e-12
    max_step: float | None = None
    max_steps: int = 500_000
    overflow: float = 1e8

    def __post_init__(self):
        # every message starts with the name of the offending setting
        if self.method not in ("rkf45", "rk4"):
            raise ValueError(f"method must be 'rkf45' or 'rk4', got {self.method!r}")
        if self.method == "rk4" and self.step is None:
            raise ValueError("step is required by rk4")
        # NaN and inf pass a plain `<= 0` test and would switch step control off
        for name in ("step", "rtol", "atol", "min_step", "max_step"):
            value = getattr(self, name)
            if value is None and name in ("step", "max_step"):
                continue
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class SingularityEvent:
    time: float
    trigger: str


@dataclass
class Trajectory:
    """Times (strictly increasing), one state row per time, and the outcome."""

    times: np.ndarray
    states: np.ndarray
    status: str  # 'completed' or 'singular'
    event: SingularityEvent | None = None
    meta: dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    def block(self, lo: int, hi: int) -> "Trajectory":
        """Column slice sharing the grid (for factors of a joint system)."""
        return Trajectory(self.times, self.states[:, lo:hi], self.status, self.event, self.meta)

    def final_state(self) -> np.ndarray:
        return self.states[-1]


# Fehlberg 4(5) tableau
_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_ERR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)


class _RhsFailure(Exception):
    pass


def _guarded_eval(rhs: AnyRHS, t: float, y: list[float]) -> list[float]:
    try:
        out = rhs.evaluate(t, y)
    except (ZeroDivisionError, OverflowError, ValueError, FloatingPointError) as exc:
        raise _RhsFailure(str(exc)) from exc
    if any(not math.isfinite(v) for v in out):
        raise _RhsFailure("non-finite right-hand side value")
    return out


def _finish(times, states, status, event, meta) -> Trajectory:
    return Trajectory(
        np.array(times, dtype=float),
        np.array(states, dtype=float),
        status,
        event,
        meta,
    )


def integrate(rhs: AnyRHS, x0: Sequence[float], tspan: tuple[float, float], cfg: IntegratorConfig) -> Trajectory:
    """Integrate from tspan[0] to tspan[1]; failures land in the status."""
    t0, t1 = float(tspan[0]), float(tspan[1])
    if not t0 < t1:
        raise ValueError("tspan must satisfy t0 < t1")
    y0 = [float(v) for v in x0]
    if len(y0) != rhs.dimension:
        raise ValueError(f"initial state of length {len(y0)} for dimension {rhs.dimension}")
    if cfg.method == "rk4":
        return _integrate_rk4(rhs, y0, t0, t1, cfg)
    return _integrate_rkf45(rhs, y0, t0, t1, cfg)


def _integrate_rk4(rhs, y0, t0, t1, cfg) -> Trajectory:
    h = cfg.step
    n_steps = max(1, math.ceil((t1 - t0) / h - 1e-12))
    times = [t0]
    states = [list(y0)]
    meta = {"method": "rk4", "step": h, "steps": 0, "rejected": 0}
    t, y = t0, list(y0)
    for i in range(n_steps):
        t_next = t1 if i == n_steps - 1 else t0 + (i + 1) * (t1 - t0) / n_steps
        dt = t_next - t
        try:
            k1 = _guarded_eval(rhs, t, y)
            k2 = _guarded_eval(rhs, t + dt / 2, [yi + dt / 2 * ki for yi, ki in zip(y, k1)])
            k3 = _guarded_eval(rhs, t + dt / 2, [yi + dt / 2 * ki for yi, ki in zip(y, k2)])
            k4 = _guarded_eval(rhs, t + dt, [yi + dt * ki for yi, ki in zip(y, k3)])
        except _RhsFailure:
            return _finish(times, states, "singular", SingularityEvent(t, RHS_ERROR), meta)
        y = [
            yi + dt / 6 * (a + 2 * b + 2 * c + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
        ]
        t = t_next
        if max(abs(v) for v in y) > cfg.overflow:
            return _finish(times, states, "singular", SingularityEvent(t, STATE_OVERFLOW), meta)
        meta["steps"] += 1
        times.append(t)
        states.append(list(y))
    return _finish(times, states, "completed", None, meta)


def _integrate_rkf45(rhs, y0, t0, t1, cfg) -> Trajectory:
    span = t1 - t0
    max_step = cfg.max_step if cfg.max_step is not None else span
    h = min(max_step, span / 100.0)
    h = max(h, cfg.min_step)
    times = [t0]
    states = [list(y0)]
    meta = {"method": "rkf45", "rtol": cfg.rtol, "atol": cfg.atol, "steps": 0, "rejected": 0}
    t, y = t0, list(y0)
    dim = len(y0)
    n_attempts = 0
    while t < t1:
        if n_attempts >= cfg.max_steps:
            return _finish(times, states, "singular", SingularityEvent(t, MAX_STEPS), meta)
        n_attempts += 1
        h = min(h, t1 - t, max_step)
        reaches_end = h == t1 - t
        try:
            k = [_guarded_eval(rhs, t, y)]
            for stage in range(1, 6):
                a = _A[stage]
                ys = [
                    y[i] + h * sum(a[m] * k[m][i] for m in range(stage))
                    for i in range(dim)
                ]
                k.append(_guarded_eval(rhs, t + _C[stage] * h, ys))
        except _RhsFailure:
            # a failing stage may just mean the step reached too far
            h *= 0.5
            if h < cfg.min_step:
                return _finish(times, states, "singular", SingularityEvent(t, RHS_ERROR), meta)
            continue
        y5 = [y[i] + h * sum(_B5[m] * k[m][i] for m in range(6)) for i in range(dim)]
        err = 0.0
        for i in range(dim):
            e = h * sum(_ERR[m] * k[m][i] for m in range(6))
            scale = cfg.atol + cfg.rtol * max(abs(y[i]), abs(y5[i]))
            err = max(err, abs(e) / scale)
        if err <= 1.0:
            # land on t1 exactly when the step was clamped to reach it
            t = t1 if reaches_end else t + h
            y = y5
            meta["steps"] += 1
            if max(abs(v) for v in y) > cfg.overflow:
                return _finish(times, states, "singular", SingularityEvent(t, STATE_OVERFLOW), meta)
            times.append(t)
            states.append(list(y))
        else:
            meta["rejected"] += 1
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        h = h * factor
        if h < cfg.min_step and t < t1:
            return _finish(times, states, "singular", SingularityEvent(t, STEP_UNDERFLOW), meta)
    return _finish(times, states, "completed", None, meta)


def first_integral_drift(trajectories: Sequence[Trajectory], psi: Callable[[np.ndarray], float]) -> float:
    """max_t |Psi(joint state at t) - Psi(joint state at t0)| over a shared grid."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    t_ref = trajectories[0].times
    for traj in trajectories[1:]:
        if len(traj.times) != len(t_ref) or not np.array_equal(traj.times, t_ref):
            raise ValueError("trajectories do not share a time grid")
    joint = np.hstack([traj.states for traj in trajectories])
    values = np.array([psi(row) for row in joint])
    return float(np.max(np.abs(values - values[0])))


def wronskian(traj1: Trajectory, traj2: Trajectory) -> np.ndarray:
    """W(t) = x1*p2 - p1*x2 per node for two (x, p) trajectories."""
    if traj1.dimension != 2 or traj2.dimension != 2:
        raise ValueError("wronskian needs two 2-dimensional trajectories")
    if len(traj1.times) != len(traj2.times) or not np.array_equal(traj1.times, traj2.times):
        raise ValueError("trajectories do not share a time grid")
    return traj1.states[:, 0] * traj2.states[:, 1] - traj1.states[:, 1] * traj2.states[:, 0]


def write_csv(trajectory: Trajectory, stream) -> None:
    """Dump 't,x0,...,x{n-1}' rows with 17 significant digits."""
    n = trajectory.dimension
    header = "t," + ",".join(f"x{i}" for i in range(n))
    stream.write(header + "\n")
    for t, row in zip(trajectory.times, trajectory.states):
        stream.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
