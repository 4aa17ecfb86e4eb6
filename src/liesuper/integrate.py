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

``integrate_batch`` integrates many initial states of one system.  RK4
advances them in lockstep as one (dim, rows) block on the shared uniform
grid (every operation acts on all rows at once, see Hairer, Norsett and
Wanner, *Solving ODEs I*), so the right-hand side must accept a
coordinate-major state whose coordinates are 1-D arrays of rows.  A row
leaves the block with the same event that ``integrate`` gives it alone:
a step in which the block's arithmetic raises or signals a floating-point
error is replayed row by row with ``integrate``'s scalar step, and a row
whose step overflows leaves at its end.  Rows agree with ``integrate`` to
rounding (numpy's ``x**3`` can differ from Python's by one ulp).  RKF45
chooses its steps per row, so its rows still run one by one.
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


def _checked_span(tspan: tuple[float, float]) -> tuple[float, float]:
    t0, t1 = float(tspan[0]), float(tspan[1])
    if not t0 < t1:
        raise ValueError("tspan must satisfy t0 < t1")
    return t0, t1


def _initial_state(rhs: AnyRHS, x0: Sequence[float]) -> list[float]:
    y0 = [float(v) for v in x0]
    if len(y0) != rhs.dimension:
        raise ValueError(f"initial state of length {len(y0)} for dimension {rhs.dimension}")
    return y0


def integrate(rhs: AnyRHS, x0: Sequence[float], tspan: tuple[float, float], cfg: IntegratorConfig) -> Trajectory:
    """Integrate from tspan[0] to tspan[1]; failures land in the status."""
    t0, t1 = _checked_span(tspan)
    y0 = _initial_state(rhs, x0)
    if cfg.method == "rk4":
        return _integrate_rk4(rhs, y0, t0, t1, cfg)
    return _integrate_rkf45(rhs, y0, t0, t1, cfg)


def integrate_batch(
    rhs: AnyRHS, x0s: Sequence[Sequence[float]], tspan: tuple[float, float], cfg: IntegratorConfig
) -> list[Trajectory]:
    """One trajectory per initial state, each with the status and event
    ``integrate`` gives it; RK4 runs two or more states in lockstep."""
    t0, t1 = _checked_span(tspan)
    y0s = [_initial_state(rhs, x0) for x0 in x0s]
    if cfg.method == "rk4" and len(y0s) > 1:
        return _integrate_rk4_lockstep(rhs, y0s, t0, t1, cfg)
    run = _integrate_rk4 if cfg.method == "rk4" else _integrate_rkf45
    return [run(rhs, y0, t0, t1, cfg) for y0 in y0s]


def _rk4_grid(t0: float, t1: float, h: float) -> list[float]:
    n_steps = max(1, math.ceil((t1 - t0) / h - 1e-12))
    return [t0] + [t1 if i == n_steps - 1 else t0 + (i + 1) * (t1 - t0) / n_steps for i in range(n_steps)]


def _rk4_step(rhs, t: float, dt: float, y: list[float]) -> list[float]:
    """One classical step; raises _RhsFailure when a stage fails."""
    k1 = _guarded_eval(rhs, t, y)
    k2 = _guarded_eval(rhs, t + dt / 2, [yi + dt / 2 * ki for yi, ki in zip(y, k1)])
    k3 = _guarded_eval(rhs, t + dt / 2, [yi + dt / 2 * ki for yi, ki in zip(y, k2)])
    k4 = _guarded_eval(rhs, t + dt, [yi + dt * ki for yi, ki in zip(y, k3)])
    return [yi + dt / 6 * (a + 2 * b + 2 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]


def _integrate_rk4(rhs, y0, t0, t1, cfg) -> Trajectory:
    grid = _rk4_grid(t0, t1, cfg.step)
    states = [list(y0)]
    meta = {"method": "rk4", "step": cfg.step, "steps": 0, "rejected": 0}
    y = list(y0)
    for t, t_next in zip(grid, grid[1:]):
        try:
            y = _rk4_step(rhs, t, t_next - t, y)
        except _RhsFailure:
            return _finish(grid[: len(states)], states, "singular", SingularityEvent(t, RHS_ERROR), meta)
        if max(abs(v) for v in y) > cfg.overflow:
            return _finish(grid[: len(states)], states, "singular", SingularityEvent(t_next, STATE_OVERFLOW), meta)
        meta["steps"] += 1
        states.append(list(y))
    return _finish(grid, states, "completed", None, meta)


def _eval_block(rhs, t: float, y: np.ndarray) -> np.ndarray:
    """The right-hand side on a (dim, rows) block, as a (dim, rows) block
    (a component may come back as one float for all rows)."""
    k = np.empty_like(y)
    for row, value in zip(k, rhs.evaluate(t, y), strict=True):
        row[...] = value
    return k


def _integrate_rk4_lockstep(rhs, y0s, t0, t1, cfg) -> list[Trajectory]:
    grid = _rk4_grid(t0, t1, cfg.step)
    times = np.array(grid, dtype=float)
    rows = len(y0s)
    history = np.empty((rows, len(grid), rhs.dimension))
    history[:, 0] = y0s
    out: list[Trajectory | None] = [None] * rows

    def leave(row: int, nodes: int, status: str, event: SingularityEvent | None) -> None:
        meta = {"method": "rk4", "step": cfg.step, "steps": nodes - 1, "rejected": 0}
        out[row] = Trajectory(times[:nodes], history[row, :nodes], status, event, meta)

    live = np.arange(rows)
    y = history[:, 0].T.copy()
    signals: list[str] = []

    def signal(kind: str, flag: int) -> None:
        signals.append(kind)

    # a floating-point error anywhere in a step is recorded, never warned
    with np.errstate(divide="call", over="call", invalid="call", under="ignore", call=signal):
        for i, (t, t_next) in enumerate(zip(grid, grid[1:])):
            dt = t_next - t
            signals.clear()
            try:
                k1 = _eval_block(rhs, t, y)
                k2 = _eval_block(rhs, t + dt / 2, y + dt / 2 * k1)
                k3 = _eval_block(rhs, t + dt / 2, y + dt / 2 * k2)
                k4 = _eval_block(rhs, t + dt, y + dt * k3)
                y_next = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            except (ZeroDivisionError, OverflowError, ValueError, FloatingPointError):
                signals.append("raised")
            if signals:
                # replay the step row by row: the scalar step knows which
                # rows raise and which merely pass through inf or nan
                y_next = np.empty_like(y)
                ok = np.ones(len(live), dtype=bool)
                over = np.zeros(len(live), dtype=bool)
                for r in range(len(live)):
                    try:
                        row = _rk4_step(rhs, t, dt, y[:, r].tolist())
                    except _RhsFailure:
                        ok[r] = False
                        continue
                    y_next[:, r] = row
                    over[r] = max(abs(v) for v in row) > cfg.overflow
            else:
                # without a signal, a row is non-finite only if a stage was
                ok = np.isfinite(y_next).all(axis=0)
                over = ok & (np.abs(y_next).max(axis=0) > cfg.overflow)
            for r in np.flatnonzero(~ok):
                leave(live[r], i + 1, "singular", SingularityEvent(t, RHS_ERROR))
            for r in np.flatnonzero(over):
                leave(live[r], i + 1, "singular", SingularityEvent(t_next, STATE_OVERFLOW))
            stay = ok & ~over
            if not stay.all():
                live, y_next = live[stay], y_next[:, stay]
                if not len(live):
                    break
            history[live, i + 1] = y_next.T
            y = y_next
    for row in live:
        leave(row, len(grid), "completed", None)
    return out


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
