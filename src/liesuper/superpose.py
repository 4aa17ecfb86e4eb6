"""Catalog of superposition and mixed superposition rule evaluators.

Each rule is a time-independent map Phi taking particular solutions of
fixed component systems plus constants to a solution of the target
system:

* linear           x = x1 + k*x2                     (affine + homogeneous)
* bernoulli        x = (x1^(1-n) + k*x2^(1-n))^(1/(1-n))
* pinney           (x, p) from two oscillator solutions, constants k1, k2
                   and the equation parameter c, via the Wronskian W
* hierarchy        the order-s member's solution jet from s solutions of
                   the order-s linear companion system and s-1 constants
* riccati-cross-ratio   the classical three-solution Riccati rule

Every formula takes each solution coordinate as a float, or as a 1-D
array with one entry per node, and then returns each output coordinate
as an array over the same nodes.  Each node gets the float operations of
the formula at one point, and an input that fails at some node raises the
error, class and message, that its first failing node raises alone.  A
Python float input fails the same way: a zero raised to a negative power
is a DomainError, never a ZeroDivisionError.

The hierarchy rule evaluates x = sum_a k_a x_(a) (with k_s = 1) through
the jets c_j = sum_a k_a u^j_(a), normalizes z_j = c_j / c_0 = P_j(y-jet),
and recovers the y-jet by triangular inversion of the P sequence: each
P_l is y_{l-1} plus terms in strictly lower derivatives, so
y^(l-1) = z_l - P_l evaluated on the already-recovered jet with
y_{l-1} = 0.  The rule and ``solve_hierarchy_constants`` evaluate each
P_l through the point form of a ``TDVectorField`` on y0 .. y_{l-1}, the
one statement list the field compiler builds for every system, with the
float operations of ``Poly.evaluate`` at a point.
Scaling every constant (including k_s) by a nonzero factor leaves the
output unchanged, which is why the normalization k_s = 1 loses nothing.

Note on the pinney rule: the inner radical of the p component is
sqrt(k1*k2 - c*(W/2)^2), i.e. exactly half the radical of the x
component; with that choice p is the exact time derivative of x along
oscillator solutions, which the numerical verification confirms.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Sequence

import numpy as np

from .algebra import Poly
from .hierarchy import p_sequence
from .parsing import TimeFunction
from .vectorfield import PolyVectorField, TDVectorField

JetPoint = Sequence[float]


class SuperpositionError(ValueError):
    """Base class for rule-evaluation failures."""


class DomainError(SuperpositionError):
    pass


class DegenerateWronskian(SuperpositionError):
    pass


class RadicandNegative(SuperpositionError):
    pass


class SingularDenominator(SuperpositionError):
    pass


class SingularJetMatrix(SuperpositionError):
    pass


class NonGenericNormalization(SuperpositionError):
    pass


class CoincidentSolutions(SuperpositionError):
    pass


def _first_failing_node(failing, *values) -> list[float] | None:
    """The float ``values`` at the first node where ``failing`` holds, or
    None when no node fails."""
    if not np.any(failing):
        return None
    node = int(np.argmax(failing))
    return [float(np.ravel(v)[node]) for v in np.broadcast_arrays(failing, *values)[1:]]


def eval_linear_rule(x1, x2, k: float):
    return x1 + k * x2


def eval_bernoulli_rule(x1, x2, k: float, n: int):
    """(x1^(1-n) + k*x2^(1-n))^(1/(1-n)) with the real-branch conventions:
    even roots demand a positive base, odd roots take the signed root."""
    if n == 1:
        raise ValueError("the exponent n = 1 is not a Bernoulli case")
    e = 1 - n
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    # a zero value is found before any power is taken
    zero = ((x1 == 0.0) | (x2 == 0.0)) & (e < 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        base = x1**e + k * x2**e
        # 1/(1-n) is one over an even integer: a real even root
        even = e % 2 == 0
        bad_base = base <= 0.0 if even else (base == 0.0) & (e < 0)
        failure = _first_failing_node(zero | bad_base, zero, base)
        if failure is not None:
            at_zero, base = failure
            if at_zero:
                raise DomainError("zero solution value with a negative power")
            if even:
                raise DomainError(f"base {base} is not positive; no real even root")
            raise DomainError("zero base with a negative root exponent")
        if even:
            return base ** (1.0 / e)
        return np.copysign(np.abs(base) ** (1.0 / e), base)


def eval_pinney_rule(xi1, xi2, k1: float, k2: float, c: float) -> tuple:
    """The two-oscillator-solution rule for x'' = -omega^2(t) x + c/x^3,
    phrased on the first-order system (x, p); ``xi1 = (x1, p1)`` and
    ``xi2`` give the two solutions."""
    x1, p1 = xi1
    x2, p2 = xi2
    with np.errstate(invalid="ignore", divide="ignore"):
        w = x1 * p2 - p1 * x2
        disc = 4.0 * k1 * k2 - c * w * w
        root = np.sqrt(disc)
        inner = k1 * x1 * x1 + k2 * x2 * x2 + root * x1 * x2
        failure = _first_failing_node((w == 0.0) | (disc < 0.0) | (inner <= 0.0), w, disc, inner)
        if failure is not None:
            w, disc, inner = failure
            if w == 0.0:
                raise DegenerateWronskian("the two oscillator solutions are dependent (W = 0)")
            if disc < 0.0:
                raise RadicandNegative(f"4*k1*k2 - c*W^2 = {disc} < 0")
            raise RadicandNegative(f"inner radicand {inner} <= 0")
        aw = np.abs(w)
        x = math.sqrt(2.0) * np.sqrt(inner) / aw
        numerator = k1 * x1 * p1 + k2 * x2 * p2 + 0.5 * root * (p1 * x2 + x1 * p2)
        p = math.sqrt(2.0) * numerator / (aw * np.sqrt(inner))
    return x, p


@cache
def _p_fields(order: int) -> tuple[TDVectorField, ...]:
    """P_1 .. P_order of the P sequence, compiled: P_l is the first
    component of a field on y0 .. y_{l-1} whose other components are zero,
    its terms in ``Poly.evaluate``'s order."""
    fields = []
    for l, p in enumerate(p_sequence(order)[1:], 1):
        components = [p.leading(l)] + [Poly.zero(l)] * (l - 1)
        fields.append(TDVectorField([(TimeFunction.constant(1), PolyVectorField(components))]))
    return tuple(fields)


def combined_solution(k: Sequence[float], values: Sequence):
    """0.0 + k_1 v_1 + ... + k_{s-1} v_{s-1} + v_s, the normalized combination
    of s component values (floats or arrays), summed as a left fold: Python's
    ``sum`` of floats is compensated from 3.12 on, and its bits would then
    depend on the Python version."""
    total = 0.0
    for ka, va in zip(k, values):
        total = total + ka * va
    return total + values[-1]


def eval_hierarchy_rule(s: int, jets: Sequence[JetPoint], k: Sequence[float]) -> list:
    """Solution jet (y, y', ..., y^(s-2)) of the order-s member from s
    solution jets of the companion linear system and constants k_1..k_{s-1}
    (the last constant is normalized to 1)."""
    if s < 2:
        raise ValueError("hierarchy rules start at order 2")
    if len(jets) != s:
        raise ValueError(f"need {s} component jets, got {len(jets)}")
    if len(k) != s - 1:
        raise ValueError(f"need {s - 1} constants, got {len(k)}")
    for jet in jets:
        if len(jet) != s:
            raise ValueError("each component jet must have length s")
    c = [combined_solution(k, [jet[j] for jet in jets]) for j in range(s)]
    if np.any(c[0] == 0.0):
        raise SingularDenominator("combined solution vanishes at this point (c0 = 0)")
    z = [cj / c[0] for cj in c]
    yjet: list = []
    for l, p in enumerate(_p_fields(s - 1), 1):
        # P_l - y_{l-1} only involves y0..y_{l-2}: P_l with y_{l-1} = 0
        yjet.append(z[l] - p.evaluate(0.0, yjet + [0.0])[0])
    return yjet


def solve_hierarchy_constants(s: int, jets_at_t0: Sequence[JetPoint], v0: Sequence[float]) -> list[float]:
    """Constants reproducing the target initial jet v0 at time t0.

    Builds the x-jet chi of the (normalized) combined solution from v0 via
    the P sequence (chi_0 = 1), solves the linear system M kappa = chi with
    the component jets as columns, and normalizes by the last coefficient.
    """
    if s < 2:
        raise ValueError("hierarchy rules start at order 2")
    if len(jets_at_t0) != s:
        raise ValueError(f"need {s} component jets, got {len(jets_at_t0)}")
    if len(v0) != s - 1:
        raise ValueError(f"target jet must have length {s - 1}")
    chi = [1.0] + [p.evaluate(0.0, v0[:l])[0] for l, p in enumerate(_p_fields(s - 1), 1)]
    m = np.array(jets_at_t0, dtype=float).T  # columns are the jets
    try:
        kappa = np.linalg.solve(m, np.array(chi, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularJetMatrix("component jets are linearly dependent") from exc
    if kappa[s - 1] == 0.0:
        raise NonGenericNormalization("last combination coefficient vanishes")
    return [float(kappa[a] / kappa[s - 1]) for a in range(s - 1)]


def eval_riccati_cross_ratio(y1, y2, y3, k: float):
    """Classical three-solution rule for the Riccati equation: the output
    y keeps the cross ratio (y-y1)(y3-y2) / ((y3-y1)(y-y2)) equal to k."""
    coincident = (y1 == y2) | (y1 == y3) | (y2 == y3)
    den = (y3 - y2) + k * (y1 - y3)
    failure = _first_failing_node(coincident | (den == 0.0), coincident)
    if failure is not None:
        if failure[0]:
            raise CoincidentSolutions("particular solutions must be pairwise distinct")
        raise SingularDenominator("cross-ratio denominator vanishes")
    return (y1 * (y3 - y2) + k * y2 * (y1 - y3)) / den
