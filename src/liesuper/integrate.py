"""Numerical ODE integration with explicit singularity accounting.

Two schemes: a fixed-step classical Runge-Kutta of order 4, and the
adaptive Fehlberg 4(5) embedded pair (the fifth-order solution is
propagated; the difference between the two orders drives step control).

Solutions of the systems treated here genuinely escape to infinity in
finite time (Riccati-type equations do), so failure is a first-class
outcome rather than an exception: a trajectory ends either 'completed'
or 'singular' with an event recording the estimated time and trigger

    state-overflow   |state|_inf crossed the blow-up threshold OVERFLOW
    step-underflow   the adaptive step fell below MIN_STEP
    rhs-error        the right-hand side failed to evaluate (e.g. 1/0),
                     or an RK4 step made a nan state
    max-steps        the budget of STEP_LIMIT steps (RK4) or step attempts
                     (RKF45) ran out

A trajectory completed iff it has no event.  The returned grid is the
accepted steps; there is no dense interpolation.  A span must have
t0 < t1 and a finite length.  An ``IntegratorConfig`` holds the settings
a caller chooses, the method, RK4's step and RKF45's rtol and atol;
``integration_settings`` checks a span and those settings together, RK4's
step count included, with one ValueError that names the setting; suites
and ``liesuper integrate`` both use it.

The right-hand side has a ``dimension``, ``evaluate(t, point)`` giving a
sequence of floats for a point (a list of floats), and ``bind(state,
out)``, as ``TDVectorField`` has: a kernel whose every call ``kernel(t)``
writes the values of the states in ``state``, a (dim, rows) float ndarray
block with one state per column, into the block ``out``.

``integrate_batch`` integrates many initial states of one system in
lockstep, as one such block (every operation acts on all rows at once,
see Hairer, Norsett and Wanner, *Solving ODEs I*), bound to its blocks
again only when rows leave, with the scalar step's float operations in
its order.  RK4 rows share the uniform grid and write each step into the
(nodes, dim, rows) history.
RKF45 rows keep their own time, step size, attempt count and grid: an
attempt runs the Fehlberg stages on the block at the 1-D array of per-row
times, and each row's own step control then accepts or rejects its step;
the last row left finishes alone with the scalar step.

A row leaves the block with the event that ``integrate`` gives it alone:
an RK4 step that raised no floating-point signal is kept at once, and
its nodes are tested against the overflow bound in one scan per batch
(and before any step that signals), a row leaving at its first node out
of bounds; any step in which the block's arithmetic raises or signals a
floating-point error is replayed row by row with the scalar step, as is
an RKF45 row whose attempt comes out non-finite, and an RKF45 row whose
step overflows leaves at its end.  The kernel has the point form's float
operations, powers included, so each row's times, states and step
counts are the bytes ``integrate`` gives it alone, whatever rows share
its block.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Protocol, Sequence

import numpy as np

_add, _mul, _max, _min = np.add, np.multiply, np.maximum.reduce, np.minimum.reduce

STATE_OVERFLOW = "state-overflow"
STEP_UNDERFLOW = "step-underflow"
RHS_ERROR = "rhs-error"
MAX_STEPS = "max-steps"

METHODS = ("rkf45", "rk4")  # the default first
OVERFLOW = 1e8  # the blow-up threshold of |state|_inf
MIN_STEP = 1e-12  # the smallest RKF45 step, and its first step's floor
STEP_LIMIT = 500_000  # the most RK4 steps, or RKF45 step attempts, of a trajectory


class RHS(Protocol):
    """What the integrators read of a right-hand side (see the module
    docstring)."""

    dimension: int

    def evaluate(self, t, state): ...

    def bind(self, state, out): ...


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = METHODS[0]
    step: float | None = None  # required for rk4
    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        # every message starts with the name of the offending setting
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {', '.join(METHODS)}, got {self.method!r}")
        if self.method == "rk4" and self.step is None:
            raise ValueError("step is required by rk4")
        # NaN and inf pass a plain `<= 0` test and would switch step control off
        for name in ("step", "rtol", "atol"):
            value = getattr(self, name)
            if value is None and name == "step":
                continue
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")


@dataclass(frozen=True)
class SingularityEvent:
    time: float
    trigger: str


@dataclass
class Trajectory:
    """Times (strictly increasing), one state row per time, and the event
    that ended the trajectory short, or None when it completed."""

    times: np.ndarray
    states: np.ndarray
    event: SingularityEvent | None = None
    meta: dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.event is None

    @property
    def dimension(self) -> int:
        return self.states.shape[1]


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


def _constants(values: Sequence[float]) -> tuple[np.ndarray, ...]:
    """Read-only 0-d float64 arrays of ``values``: ufunc operands that numpy
    does not convert on each call, as it converts a Python float (a call on
    20-row blocks costs 0.35-0.37 us with array operands, 0.54-0.59 us with
    a Python float; numpy 2.4, a 2-core Xeon VM).  The values, and so the
    bits of every result, are the floats'."""
    arrays = tuple(np.array(float(v)) for v in values)
    for a in arrays:
        a.flags.writeable = False
    return arrays


# the lockstep steps' operands: the tableau, and the literals of the sums
_ZERO, _TWO = _constants((0.0, 2.0))
_BLOCK_C, _BLOCK_B5, _BLOCK_ERR = _constants(_C), _constants(_B5), _constants(_ERR)
_BLOCK_A = tuple(map(_constants, _A))


class _RhsFailure(Exception):
    pass


def _guarded_eval(rhs: RHS, t: float, y: list[float]) -> list[float]:
    try:
        out = rhs.evaluate(t, y)
    except (ZeroDivisionError, OverflowError, ValueError, FloatingPointError) as exc:
        raise _RhsFailure(str(exc)) from exc
    if any(not math.isfinite(v) for v in out):
        raise _RhsFailure("non-finite right-hand side value")
    return out


def _finish(times, states, event, meta) -> Trajectory:
    return Trajectory(np.array(times, dtype=float), np.array(states, dtype=float), event, meta)


def _checked_span(tspan: tuple[float, float]) -> tuple[float, float]:
    t0, t1 = float(tspan[0]), float(tspan[1])
    # an infinite end or length would make every step inf or nan
    if not (t0 < t1 and math.isfinite(t1 - t0)):
        raise ValueError(f"tspan must satisfy t0 < t1 with a finite length, got [{t0!r}, {t1!r}]")
    return t0, t1


def integration_settings(tspan: tuple[float, float], **settings) -> tuple[tuple[float, float], IntegratorConfig]:
    """The span as floats and the IntegratorConfig of ``settings``, with
    the RK4 grid's step count checked too.  The one check of a suite
    item's and of ``liesuper integrate``'s settings: its ValueError
    message starts with the name of the offending setting."""
    span = _checked_span(tspan)
    cfg = IntegratorConfig(**settings)
    if cfg.method == "rk4":
        rk4_step_count(*span, cfg.step)
    return span, cfg


def _initial_state(rhs: RHS, x0: Sequence[float]) -> list[float]:
    y0 = [float(v) for v in x0]
    if len(y0) != rhs.dimension:
        raise ValueError(f"initial state of length {len(y0)} for dimension {rhs.dimension}")
    return y0


def integrate(rhs: RHS, x0: Sequence[float], tspan: tuple[float, float], cfg: IntegratorConfig) -> Trajectory:
    """Integrate from tspan[0] to tspan[1]; a failure ends the trajectory
    with its event."""
    t0, t1 = _checked_span(tspan)
    y0 = _initial_state(rhs, x0)
    if cfg.method == "rk4":
        return _integrate_rk4(rhs, y0, t0, t1, cfg)
    return _Rkf45Row(y0, t0, t1, cfg).run(rhs)


def integrate_batch(
    rhs: RHS, x0s: Sequence[Sequence[float]], tspan: tuple[float, float], cfg: IntegratorConfig
) -> list[Trajectory]:
    """One trajectory per initial state, each with the event ``integrate``
    gives it; two or more states run in lockstep."""
    t0, t1 = _checked_span(tspan)
    y0s = [_initial_state(rhs, x0) for x0 in x0s]
    if len(y0s) < 2:
        return [integrate(rhs, y0, (t0, t1), cfg) for y0 in y0s]
    lockstep = _integrate_rk4_lockstep if cfg.method == "rk4" else _integrate_rkf45_lockstep
    return lockstep(rhs, y0s, t0, t1, cfg)


def rk4_step_count(t0: float, t1: float, step: float) -> int:
    """Steps of the uniform grid from t0 to t1 none of which exceeds
    ``step``.  Raises ValueError, naming the step, when that count is too
    large for a float."""
    count = (t1 - t0) / step
    if not math.isfinite(count):
        raise ValueError(f"step {step!r} is too small for the span [{t0!r}, {t1!r}]")
    return max(1, math.ceil(count - 1e-12))


def _rk4_grid(t0: float, t1: float, cfg: IntegratorConfig) -> tuple[list[float], SingularityEvent | None]:
    """The nodes of the uniform grid that at most ``STEP_LIMIT`` steps
    reach, and the max-steps event when they end short of t1."""
    n_steps = rk4_step_count(t0, t1, cfg.step)
    steps = min(n_steps, STEP_LIMIT)
    grid = [t0] + [t1 if i == n_steps - 1 else t0 + (i + 1) * (t1 - t0) / n_steps for i in range(steps)]
    return grid, SingularityEvent(grid[-1], MAX_STEPS) if steps < n_steps else None


def _rk4_step(rhs, t: float, dt: float, y: list[float]) -> list[float]:
    """One classical step; raises _RhsFailure when a stage fails."""
    k1 = _guarded_eval(rhs, t, y)
    k2 = _guarded_eval(rhs, t + dt / 2, [yi + dt / 2 * ki for yi, ki in zip(y, k1)])
    k3 = _guarded_eval(rhs, t + dt / 2, [yi + dt / 2 * ki for yi, ki in zip(y, k2)])
    k4 = _guarded_eval(rhs, t + dt, [yi + dt * ki for yi, ki in zip(y, k3)])
    return [yi + dt / 6 * (a + 2 * b + 2 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]


def _node_event(t: float, t_next: float, y: list[float]) -> SingularityEvent | None:
    """The event that ends a row at the node ``y`` that the step from t
    makes, the node dropped, or None (after one pass) for a node in bounds:
    state-overflow at t_next for a node beyond OVERFLOW, inf included, and
    rhs-error at t for a nan node, as the lockstep ``scan`` has it."""
    if all(abs(v) <= OVERFLOW for v in y):
        return None
    if any(map(math.isnan, y)):
        return SingularityEvent(t, RHS_ERROR)
    return SingularityEvent(t_next, STATE_OVERFLOW)


def _rk4_row(rhs, t: float, t_next: float, y: list[float]) -> tuple[list[float] | None, SingularityEvent | None]:
    """One row's step from t to t_next: the node it makes, and the event
    that ends the row there (rhs-error at t when a stage fails, the node
    then None), or None."""
    try:
        y_next = _rk4_step(rhs, t, t_next - t, y)
    except _RhsFailure:
        return None, SingularityEvent(t, RHS_ERROR)
    return y_next, _node_event(t, t_next, y_next)


def _integrate_rk4(rhs, y0, t0, t1, cfg) -> Trajectory:
    grid, end = _rk4_grid(t0, t1, cfg)
    states = [y0]
    meta = {"method": "rk4", "step": cfg.step, "steps": 0, "rejected": 0}
    for t, t_next in zip(grid, grid[1:]):
        y, event = _rk4_row(rhs, t, t_next, states[-1])
        if event is not None:
            return _finish(grid[: len(states)], states, event, meta)
        meta["steps"] += 1
        states.append(y)
    return _finish(grid, states, end, meta)


@contextmanager
def _float_signals() -> Iterator[list[str]]:
    """A list that records the kind of every floating-point error (divide,
    over, invalid) numpy meets in the block, never warned; underflow is
    ignored.  A lockstep step clears it first and reads it after."""
    signals: list[str] = []

    def signal(kind: str, flag: int) -> None:
        signals.append(kind)

    with np.errstate(divide="call", over="call", invalid="call", under="ignore", call=signal):
        yield signals


def _integrate_rk4_lockstep(rhs, y0s, t0, t1, cfg) -> list[Trajectory]:
    """RK4 rows in lockstep on the shared grid.  Every ufunc operand of a
    step is a float64 array (see ``_constants``): the literal 2.0 is bound
    once, and dt / 2, dt and dt / 6 are written once per step into 0-d
    slots, which costs 0.13 us each and saves about 0.2 us on each of the
    six ufunc calls that took them as Python floats.

    A step is kept at once when it raises no floating-point signal; its
    rows are tested against the overflow bound afterwards, by one scan of
    the nodes stored since the last scan (``scan``): at the end of the
    batch, and before any step that signals, so that a row that left the
    bounds earlier is never replayed into a later rhs-error.  A row leaves
    at its first node out of bounds: with ``state-overflow`` at that node's
    time when the node is finite, and else with ``rhs-error`` at the start
    of the step that made it (without a signal, a step makes a non-finite
    node only from a non-finite stage).  After that scan, each row that
    stays replays a signalling step with the scalar step (``_rk4_row``),
    which gives it the bytes the block gives it and knows which rows raise
    and which merely pass through inf or nan."""
    grid, end = _rk4_grid(t0, t1, cfg)
    times = np.array(grid, dtype=float)
    rows = len(y0s)
    history = np.empty((len(grid), rhs.dimension, rows))
    history[0] = np.transpose(y0s)
    out: list[Trajectory | None] = [None] * rows

    def leave(row: int, nodes: int, event: SingularityEvent | None) -> None:
        meta = {"method": "rk4", "step": cfg.step, "steps": nodes - 1, "rejected": 0}
        out[row] = Trajectory(times[:nodes], history[:nodes, :, row], event, meta)

    live = np.arange(rows)
    scanned = 1  # the first node not yet scanned (the initial state is not tested)

    def scan(nodes: int) -> np.ndarray:
        """Test the live rows' nodes from ``scanned`` up to ``nodes``, take
        out each row with one out of bounds, and return which rows stay."""
        nonlocal scanned
        block, first = history[scanned:nodes], scanned
        scanned = nodes
        top, bottom = _max(block, axis=(0, 1), initial=-math.inf), _min(block, axis=(0, 1), initial=math.inf)
        stay = (top[live] <= OVERFLOW) & (bottom[live] >= -OVERFLOW)
        for r in np.flatnonzero(~stay):
            states = block[:, :, live[r]]
            j = first + int(np.argmin(((states <= OVERFLOW) & (states >= -OVERFLOW)).all(axis=1)))
            if np.isfinite(history[j, :, live[r]]).all():
                leave(live[r], j, SingularityEvent(grid[j], STATE_OVERFLOW))
            else:
                leave(live[r], j, SingularityEvent(grid[j - 1], RHS_ERROR))
        return stay

    y, bound_to = history[0].copy(), None
    half, full, sixth = np.empty(()), np.empty(()), np.empty(())
    with _float_signals() as signals:
        for i, (t, t_next) in enumerate(zip(grid, grid[1:])):
            dt = t_next - t
            half[()], full[()], sixth[()] = dt / 2, dt, dt / 6
            mid = t + dt / 2
            if bound_to is not y:
                k, (stage, y_end), (f1, f2, f3, f4) = _bind_stages(rhs, y, 4, 2)
                (k1, k2, k3, k4), doubled, bound_to = k, k[1:3], y
            y_next = history[i + 1] if len(live) == rows else y_end
            signals.clear()
            try:
                # the scalar step's operations, into the bound blocks
                f1(t)
                _add(y, _mul(half, k1, stage), stage)
                f2(mid)
                _add(y, _mul(half, k2, stage), stage)
                f3(mid)
                _add(y, _mul(full, k3, stage), stage)
                f4(t + dt)
                # y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4), summed into k1
                _mul(_TWO, doubled, doubled)
                _add(_add(_add(k1, k2, k1), k3, k1), k4, k1)
                _add(y, _mul(sixth, k1, k1), y_next)
            except (ZeroDivisionError, OverflowError, ValueError, FloatingPointError):
                signals.append("raised")
            if signals:
                # the rows out of bounds leave, and the others replay the step
                stay = scan(i + 1)
                for r in np.flatnonzero(stay):
                    row, event = _rk4_row(rhs, t, t_next, y[:, r].tolist())
                    if event is None:
                        y_next[:, r] = row
                    else:
                        stay[r] = False
                        leave(live[r], i + 1, event)
                if not stay.all():
                    live, y, y_next = live[stay], y[:, stay], y_next[:, stay]
                    if not len(live):
                        return out
            np.copyto(y, y_next)
            if len(live) < rows:
                history[i + 1][:, live] = y
    stay = scan(len(grid))
    for row in live[stay]:
        leave(row, len(grid), end)
    return out


class _Rkf45Row:
    """The step control of one RKF45 trajectory (Hairer, Norsett and
    Wanner, *Solving ODEs I*, section II.4): ``start`` opens the next step
    attempt, ``finish`` applies its outcome, and ``run`` takes the
    remaining steps with scalar attempts from the state ``y`` (which a
    lockstep batch, holding its rows' states in its block, sets first)."""

    __slots__ = ("t", "h", "y", "t1", "cfg", "attempts", "reaches_end", "times", "states", "meta", "event")

    def __init__(self, y0: list[float], t0: float, t1: float, cfg: IntegratorConfig):
        self.h = max((t1 - t0) / 100.0, MIN_STEP)
        self.t, self.y, self.t1, self.cfg = t0, y0, t1, cfg
        self.attempts = 0
        self.reaches_end = False
        self.times = [t0]
        self.states = [list(y0)]
        self.meta = {"method": "rkf45", "rtol": cfg.rtol, "atol": cfg.atol, "steps": 0, "rejected": 0}
        self.event: SingularityEvent | None = None

    def start(self) -> bool:
        """Open the next attempt, clamping ``h``; False once the
        trajectory has ended."""
        if self.event is not None or not self.t < self.t1:
            return False
        if self.attempts >= STEP_LIMIT:
            self.event = SingularityEvent(self.t, MAX_STEPS)
            return False
        self.attempts += 1
        self.h = min(self.h, self.t1 - self.t)
        self.reaches_end = self.h == self.t1 - self.t
        return True

    def finish(self, attempt: tuple | None) -> bool:
        """Apply an attempt's ``(y5, err, max |y5|)``, or None when a stage
        failed; True when the step was accepted."""
        if attempt is None:
            # a failing stage may just mean the step reached too far
            self.h *= 0.5
            if self.h < MIN_STEP:
                self.event = SingularityEvent(self.t, RHS_ERROR)
            return False
        y5, err, peak = attempt
        accepted = err <= 1.0
        if accepted:
            # land on t1 exactly when the step was clamped to reach it
            self.t = self.t1 if self.reaches_end else self.t + self.h
            self.y = y5
            self.meta["steps"] += 1
            if peak > OVERFLOW:
                self.event = SingularityEvent(self.t, STATE_OVERFLOW)
                return True
            self.times.append(self.t)
            self.states.append(y5)
        else:
            self.meta["rejected"] += 1
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        self.h = self.h * factor
        if self.h < MIN_STEP and self.t < self.t1:
            self.event = SingularityEvent(self.t, STEP_UNDERFLOW)
        return accepted

    def run(self, rhs) -> Trajectory:
        while self.start():
            self.finish(_rkf45_attempt(rhs, self.t, self.h, self.y, self.cfg))
        return _finish(self.times, self.states, self.event, self.meta)


def _rkf45_attempt(rhs, t: float, h: float, y: list[float], cfg: IntegratorConfig) -> tuple | None:
    """One Fehlberg step from (t, y): ``(y5, err, max |y5|)``, with err the
    error estimate's norm, or None when a stage fails."""
    try:
        k = [_guarded_eval(rhs, t, y)]
        for stage in range(1, 6):
            ys = [yi + h * s for yi, s in zip(y, _fold(_A[stage], k))]
            k.append(_guarded_eval(rhs, t + _C[stage] * h, ys))
    except _RhsFailure:
        return None
    y5 = [yi + h * s for yi, s in zip(y, _fold(_B5, k))]
    err = 0.0
    for yi, y5i, s in zip(y, y5, _fold(_ERR, k)):
        scale = cfg.atol + cfg.rtol * max(abs(yi), abs(y5i))
        err = max(err, abs(h * s) / scale)
    return y5, err, max(abs(v) for v in y5)


def _fold(weights: Sequence[float], k: list) -> list[float]:
    """0.0 + w0*k0[i] + w1*k1[i] + ... for each component i: the left fold
    that ``_block_sum`` takes.  Python's ``sum`` of floats is compensated
    from 3.12 on, so it would not give these bits there."""
    total = [0.0] * len(k[0])
    for w, km in zip(weights, k):
        total = [s + w * v for s, v in zip(total, km)]
    return total


def _bind_stages(rhs, y: np.ndarray, stages: int, scratch: int) -> tuple:
    """Stage slopes, scratch blocks (the first the stage state), stage kernels."""
    k, work = np.empty((stages, *y.shape)), np.empty((scratch, *y.shape))
    return k, work, [rhs.bind(y, k[0])] + [rhs.bind(work[0], km) for km in k[1:]]


def _block_sum(weights: Sequence[np.ndarray], k: np.ndarray, total: np.ndarray, term: np.ndarray) -> np.ndarray:
    """0.0 + w0*k0 + w1*k1 + ...: the scalar step's ``sum``, into ``total``,
    the weights being 0-d arrays."""
    _add(_ZERO, _mul(weights[0], k[0], total), total)
    for w, km in zip(weights[1:], k[1:]):
        _add(total, _mul(w, km, term), total)
    return total


def _integrate_rkf45_lockstep(rhs, y0s, t0, t1, cfg) -> list[Trajectory]:
    """RKF45 rows in lockstep, each under its own step control.  Every
    ufunc operand of an attempt is a float64 array (see ``_constants``): the
    Fehlberg weights, atol and rtol are 0-d arrays bound once, and each
    stage's ``_C[m] * h`` goes into a preallocated row."""
    rows = [_Rkf45Row(y0, t0, t1, cfg) for y0 in y0s]
    live = rows
    y = np.ascontiguousarray(np.transpose(y0s), dtype=float)
    k, (stage, total, term), kernels = _bind_stages(rhs, y, 6, 3)
    t_stage = np.empty(len(live))
    atol, rtol = _constants((cfg.atol, cfg.rtol))
    with _float_signals() as signals:
        while len(live) >= 2:
            going = [row.start() for row in live]
            if not all(going):
                live = [row for row, go in zip(live, going) if go]
                y = y[:, np.array(going)]
                if not live:
                    break
                k, (stage, total, term), kernels = _bind_stages(rhs, y, 6, 3)
                t_stage = np.empty(len(live))
            t = np.array([row.t for row in live])
            h = np.array([row.h for row in live])
            signals.clear()
            try:
                kernels[0](t)
                for m in range(1, 6):
                    _add(y, _mul(h, _block_sum(_BLOCK_A[m], k, stage, term), stage), stage)
                    kernels[m](_add(t, _mul(_BLOCK_C[m], h, t_stage), t_stage))
                y5 = y + _mul(h, _block_sum(_BLOCK_B5, k, total, term), total)
                e = _mul(h, _block_sum(_BLOCK_ERR, k, total, term), total)
                scale = _add(atol, _mul(rtol, np.fmax(np.abs(y), np.abs(y5))))
                err = np.fmax.reduce(np.abs(e) / scale, axis=0, initial=0.0)
                peak = np.abs(y5).max(axis=0)
            except (ZeroDivisionError, OverflowError, ValueError, FloatingPointError):
                signals.append("raised")
            # without a signal, a row whose y5 is finite had only finite
            # stages, and so the scalar attempt's outcome; any other row,
            # and every row of a signalling attempt, replays the scalar
            # attempt, which knows which rows raise
            if signals:
                y5 = np.empty_like(y)
                finite = np.zeros(len(live), dtype=bool)
            else:
                finite = np.isfinite(y5).all(axis=0)
            accepted = np.zeros(len(live), dtype=bool)
            for r, row in enumerate(live):
                if finite[r]:
                    attempt = (y5[:, r], float(err[r]), float(peak[r]))
                else:
                    attempt = _rkf45_attempt(rhs, row.t, row.h, y[:, r].tolist(), cfg)
                    if attempt is not None:
                        y5[:, r] = attempt[0]
                accepted[r] = row.finish(attempt)
            np.copyto(y, y5, where=accepted)
    for r, row in enumerate(live):
        row.y = y[:, r].tolist()
    return [row.run(rhs) for row in rows]


def write_csv(trajectory: Trajectory, stream) -> None:
    """Dump 't,x0,...,x{n-1}' rows with 17 significant digits."""
    n = trajectory.dimension
    header = "t," + ",".join(f"x{i}" for i in range(n))
    stream.write(header + "\n")
    for t, row in zip(trajectory.times, trajectory.states):
        stream.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
