"""The Riccati hierarchy: logarithmic-derivative reduction of linear ODEs.

An order-s linear homogeneous ODE

    x^(s) = -(b_{s-1}(t) x^(s-1) + ... + b_1(t) x' + b_0(t) x)

is invariant under dilations of x, so y = x'/x satisfies a nonlinear ODE
of order s-1.  Writing d^l x/dt^l = x * P_l(y, y', ..., y^(l-1)) gives the
sequence of differential polynomials

    P_0 = 1,   P_{l+1} = D(P_l) + y0 * P_l,

with unit leading coefficient on y_{l-1}.  Substituting into the linear
equation and dividing by x yields P_s + sum_l b_l P_l = 0, and isolating
the top derivative (no division needed, the leading coefficient is 1)
produces the order-(s-1) member

    y^(s-1) = -(P_s - y_{s-1}) - sum_{l=0}^{s-1} b_l * P_l.

s = 2 is the Riccati equation y' = -b0 - b1 y - y^2.

This module also provides the first-order companion systems of both
equations and the Lie-algebra side of the linear one: the basis
X[i,j] = x_j d/dx_i spanning gl(s, R), and the s+1 generators
(the X[s-1,j] plus the shift Delta) whose closure recovers all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import DiffPoly, Poly
from .liealg import LieBasis
from .parsing import TimeFunction
from .vectorfield import GenericRHS, PolyVectorField, TDVectorField


@dataclass(frozen=True)
class PSequence:
    """P_0 .. P_s with d^l x/dt^l = x * P_l under y = x'/x."""

    order: int
    polys: tuple[DiffPoly, ...]

    def __getitem__(self, l: int) -> DiffPoly:
        return self.polys[l]


def p_sequence(s: int) -> PSequence:
    if s < 1:
        raise ValueError("order must be at least 1")
    polys = [DiffPoly.one()]
    y0 = DiffPoly.y(0)
    for _ in range(s):
        polys.append(polys[-1].total_derivative() + y0 * polys[-1])
    return PSequence(s, tuple(polys))


@dataclass(frozen=True)
class HierarchyMember:
    """y^(s-1) = rhs, with rhs a differential polynomial in y0..y_{s-2}
    that is affine in each coefficient symbol b0..b_{s-1}."""

    order: int
    rhs: DiffPoly


def generate_member(s: int) -> HierarchyMember:
    if s < 2:
        raise ValueError("hierarchy members start at order 2")
    ps = p_sequence(s)
    top = DiffPoly.y(s - 1)
    rhs = -(ps[s] - top)
    for l in range(s):
        rhs = rhs - DiffPoly.b(l) * ps[l]
    if rhs.order > s - 2:
        raise AssertionError("top derivative failed to cancel")
    return HierarchyMember(s, rhs)


def member_text(member: HierarchyMember) -> str:
    """Canonical one-line rendering, e.g. 'y1 = -b0 - b1*y0 - y0^2'."""
    return f"y{member.order - 1} = {member.rhs.to_text()}"


@dataclass(frozen=True)
class LinearODESpec:
    """Order-s linear homogeneous ODE with time-dependent coefficients
    b_0(t) .. b_{s-1}(t) multiplying x, x', ..., x^(s-1)."""

    order: int
    coefficients: tuple[TimeFunction, ...]

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("linear specs start at order 2")
        if len(self.coefficients) != self.order:
            raise ValueError("need exactly one coefficient per derivative order")


def _unit_coefficient() -> TimeFunction:
    return TimeFunction.constant(1)


def companion_linear_system(spec: LinearODESpec) -> TDVectorField:
    """First-order form on R^s: u_i' = u_{i+1}, u_{s-1}' = -sum b_l(t) u_l.

    The decomposition keeps the shift part as a single constant-coefficient
    term and adds one term per b_l, so the constituent fields expose the
    system's Lie algebra directly.
    """
    s = spec.order
    shift_comps = [Poly.variable(s, i + 1) for i in range(s - 1)] + [Poly.zero(s)]
    terms: list[tuple[TimeFunction, PolyVectorField]] = [
        (_unit_coefficient(), PolyVectorField(shift_comps))
    ]
    for l, b in enumerate(spec.coefficients):
        comps = [Poly.zero(s) for _ in range(s)]
        comps[s - 1] = -Poly.variable(s, l)
        terms.append((b, PolyVectorField(comps)))
    return TDVectorField(terms)


def member_first_order_system(member: HierarchyMember, bvals: Sequence[TimeFunction]) -> GenericRHS:
    """First-order form of a hierarchy member on R^{s-1}:
    v_i' = v_{i+1} and v_{s-2}' = rhs(t, v), with the b symbols bound to
    the given time functions.  Built straight from the member equation, it
    is the tests' independent reference for ``member_td_system``."""
    s = member.order
    if len(bvals) != s:
        raise ValueError(f"need {s} coefficient functions, got {len(bvals)}")
    rhs = member.rhs
    dim = s - 1
    bfuncs = tuple(bvals)

    def fn(t: float, state: Sequence[float]) -> list[float]:
        bs = [b.eval(t) for b in bfuncs]
        out = [state[i + 1] for i in range(dim - 1)]
        out.append(float(rhs.evaluate(state, bs)))
        return out

    return GenericRHS(dim, fn, label=f"hierarchy-member-{s}")


def member_lie_generators(s: int) -> list[PolyVectorField]:
    """Autonomous fields whose time-dependent combination is the member
    system: the drift (shift plus the b-free part of the equation)
    followed by one field per coefficient symbol, -P_l(v) d/dv_{s-2}."""
    if s < 2:
        raise ValueError("hierarchy members start at order 2")
    ps = p_sequence(s)
    dim = s - 1
    top = DiffPoly.y(s - 1)
    drift_tail = -(ps[s] - top)
    drift_comps = [Poly.variable(dim, i + 1) for i in range(dim - 1)]
    drift_comps.append(drift_tail.to_poly(dim))
    fields = [PolyVectorField(drift_comps)]
    for l in range(s):
        comps = [Poly.zero(dim) for _ in range(dim)]
        comps[dim - 1] = -(ps[l].to_poly(dim))
        fields.append(PolyVectorField(comps))
    return fields


def member_td_system(s: int, bvals: Sequence[TimeFunction]) -> TDVectorField:
    """The member system in decomposed form, as the ``hierarchy_member``
    spec kind and the hierarchy rule integrate it."""
    if len(bvals) != s:
        raise ValueError(f"need {s} coefficient functions, got {len(bvals)}")
    gens = member_lie_generators(s)
    terms = [(_unit_coefficient(), gens[0])]
    terms += [(b, field) for b, field in zip(bvals, gens[1:])]
    return TDVectorField(terms)


def gl_field(s: int, i: int, j: int) -> PolyVectorField:
    """X[i,j] = x_j d/dx_i on R^s."""
    if not (0 <= i < s and 0 <= j < s):
        raise ValueError("indices out of range")
    comps = [Poly.zero(s) for _ in range(s)]
    comps[i] = Poly.variable(s, j)
    return PolyVectorField(comps)


def gl_basis(s: int) -> LieBasis:
    """The s^2 linear fields X[i,j] = x_j d/dx_i, a basis of gl(s, R)."""
    if s < 1:
        raise ValueError("order must be at least 1")
    return LieBasis([gl_field(s, i, j) for i in range(s) for j in range(s)])


def shift_generator(s: int) -> PolyVectorField:
    """Delta = X[0,1] + X[1,2] + ... + X[s-2,s-1] + X[s-1,0]."""
    field = gl_field(s, s - 1, 0)
    for i in range(s - 1):
        field = field + gl_field(s, i, i + 1)
    return field


def linear_generators(s: int) -> list[PolyVectorField]:
    """The s+1 fields X[s-1,j] (j = 0..s-1) plus Delta.

    Their span equals the span of the companion system's constituent
    fields over all times, and their iterated brackets generate the whole
    of gl(s, R): [X[i,j], Delta] = X[i-1,j] - X[i,j+1] walks the row index
    down and the column index up.
    """
    if s < 2:
        raise ValueError("order must be at least 2")
    return [gl_field(s, s - 1, j) for j in range(s)] + [shift_generator(s)]
