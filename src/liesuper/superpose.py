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

The hierarchy rule evaluates x = sum_a k_a x_(a) (with k_s = 1) through
the jets c_j = sum_a k_a u^j_(a), normalizes z_j = c_j / c_0 = P_j(y-jet),
and recovers the y-jet by triangular inversion of the P sequence: each
P_l is y_{l-1} plus terms in strictly lower derivatives, so
y^(l-1) = z_l - (P_l - y_{l-1}) evaluated on the already-recovered jet.
Scaling every constant (including k_s) by a nonzero factor leaves the
output unchanged, which is why the normalization k_s = 1 loses nothing.

Note on the pinney rule: the inner radical of the p component is
sqrt(k1*k2 - c*(W/2)^2), i.e. exactly half the radical of the x
component; with that choice p is the exact time derivative of x along
oscillator solutions, which the numerical verification confirms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import DiffPoly
from .hierarchy import p_sequence

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


@dataclass(frozen=True)
class MixedRule:
    """Descriptor of a rule: which component systems it consumes, how many
    constants it takes, and the dimension of the target system."""

    rule_id: str
    component_dims: tuple[int, ...]
    constant_count: int
    target_dim: int
    parameters: dict = field(default_factory=dict)

    @staticmethod
    def linear() -> "MixedRule":
        return MixedRule("linear", (1, 1), 1, 1)

    @staticmethod
    def bernoulli(n: int) -> "MixedRule":
        if n == 1:
            raise ValueError("the exponent n = 1 is the plain linear case")
        return MixedRule("bernoulli", (1, 1), 1, 1, {"n": n})

    @staticmethod
    def pinney(c: float) -> "MixedRule":
        return MixedRule("pinney", (2, 2), 2, 2, {"c": float(c)})

    @staticmethod
    def hierarchy(s: int) -> "MixedRule":
        if s < 2:
            raise ValueError("hierarchy rules start at order 2")
        return MixedRule("hierarchy", (s,) * s, s - 1, s - 1, {"s": s})

    @staticmethod
    def riccati_cross_ratio() -> "MixedRule":
        return MixedRule("riccati-cross-ratio", (1, 1, 1), 1, 1)


def eval_linear_rule(x1: float, x2: float, k: float) -> float:
    return x1 + k * x2


def eval_bernoulli_rule(x1: float, x2: float, k: float, n: int) -> float:
    """(x1^(1-n) + k*x2^(1-n))^(1/(1-n)) with the real-branch conventions:
    even roots demand a positive base, odd roots take the signed root."""
    if n == 1:
        raise ValueError("the exponent n = 1 is not a Bernoulli case")
    e = 1 - n

    def ipow(x: float) -> float:
        if x == 0.0 and e < 0:
            raise DomainError("zero solution value with a negative power")
        return x**e

    base = ipow(x1) + k * ipow(x2)
    if e % 2 == 0:
        # 1/(1-n) is one over an even integer: a real even root
        if base <= 0.0:
            raise DomainError(f"base {base} is not positive; no real even root")
        return base ** (1.0 / e)
    if base == 0.0:
        if e < 0:
            raise DomainError("zero base with a negative root exponent")
        return 0.0
    return math.copysign(abs(base) ** (1.0 / e), base)


def eval_pinney_rule(
    xi1: Sequence[float], xi2: Sequence[float], k1: float, k2: float, c: float
) -> tuple[float, float]:
    """The two-oscillator-solution rule for x'' = -omega^2(t) x + c/x^3,
    phrased on the first-order system (x, p)."""
    x1, p1 = xi1
    x2, p2 = xi2
    w = x1 * p2 - p1 * x2
    if w == 0.0:
        raise DegenerateWronskian("the two oscillator solutions are dependent (W = 0)")
    disc = 4.0 * k1 * k2 - c * w * w
    if disc < 0.0:
        raise RadicandNegative(f"4*k1*k2 - c*W^2 = {disc} < 0")
    root = math.sqrt(disc)
    inner = k1 * x1 * x1 + k2 * x2 * x2 + root * x1 * x2
    if inner <= 0.0:
        raise RadicandNegative(f"inner radicand {inner} <= 0")
    aw = abs(w)
    x = math.sqrt(2.0) * math.sqrt(inner) / aw
    numerator = k1 * x1 * p1 + k2 * x2 * p2 + 0.5 * root * (p1 * x2 + x1 * p2)
    p = math.sqrt(2.0) * numerator / (aw * math.sqrt(inner))
    return x, p


def eval_hierarchy_rule(s: int, jets: Sequence[JetPoint], k: Sequence[float]) -> list[float]:
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
    c = [
        sum(k[a] * jets[a][j] for a in range(s - 1)) + jets[s - 1][j]
        for j in range(s)
    ]
    if c[0] == 0.0:
        raise SingularDenominator("combined solution vanishes at this point (c0 = 0)")
    z = [cj / c[0] for cj in c]
    ps = p_sequence(s - 1)
    yjet: list[float] = []
    for l in range(1, s):
        tail = ps[l] - DiffPoly.y(l - 1)  # only involves y0..y_{l-2}
        yjet.append(z[l] - float(tail.evaluate(yjet)))
    return yjet


def solve_hierarchy_constants(
    s: int, jets_at_t0: Sequence[JetPoint], v0: Sequence[float]
) -> list[float]:
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
    ps = p_sequence(s - 1)
    chi = [float(ps[l].evaluate(list(v0))) for l in range(s)]
    m = np.array(jets_at_t0, dtype=float).T  # columns are the jets
    try:
        kappa = np.linalg.solve(m, np.array(chi, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularJetMatrix("component jets are linearly dependent") from exc
    if kappa[s - 1] == 0.0:
        raise NonGenericNormalization("last combination coefficient vanishes")
    return [float(kappa[a] / kappa[s - 1]) for a in range(s - 1)]


def eval_riccati_cross_ratio(y1: float, y2: float, y3: float, k: float) -> float:
    """Classical three-solution rule for the Riccati equation: the output
    y keeps the cross ratio (y-y1)(y3-y2) / ((y3-y1)(y-y2)) equal to k."""
    if y1 == y2 or y1 == y3 or y2 == y3:
        raise CoincidentSolutions("particular solutions must be pairwise distinct")
    den = (y3 - y2) + k * (y1 - y3)
    if den == 0.0:
        raise SingularDenominator("cross-ratio denominator vanishes")
    return (y1 * (y3 - y2) + k * y2 * (y1 - y3)) / den
