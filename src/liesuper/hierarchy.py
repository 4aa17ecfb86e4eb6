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

from functools import cache
from typing import Sequence

from .algebra import Poly, _terms_text
from .liealg import LieBasis
from .parsing import TimeFunction
from .vectorfield import PolyVectorField, TDVectorField


@cache
def p_sequence(s: int) -> tuple[Poly, ...]:
    """P_0 .. P_s as polynomials on y0 .. y_{s-1}, built once per order and
    shared (they are immutable): P_{l+1} = D(P_l) + y0 * P_l with D the
    total derivative, the field sum_{i<s-1} y_{i+1} d/dy_i."""
    if s < 1:
        raise ValueError("order must be at least 1")
    total_derivative = _jet_field(s)
    y0 = Poly.variable(s, 0)
    polys = [Poly.constant(s, 1)]
    for _ in range(s):
        polys.append(total_derivative.derivative(polys[-1]) + y0 * polys[-1])
    return tuple(polys)


def _jet_field(s: int) -> PolyVectorField:
    """D = sum_{i<s-1} y_{i+1} d/dy_i on R^s: the total derivative on a jet,
    and the shift u_i' = u_{i+1} of a companion system."""
    return PolyVectorField([Poly.variable(s, i + 1) for i in range(s - 1)] + [Poly.zero(s)])


def _td_system(bvals: Sequence[TimeFunction], fields: Sequence[PolyVectorField]) -> TDVectorField:
    """fields[0] + sum_l b_l(t) * fields[l + 1], one coefficient function
    per field after the first."""
    if len(bvals) != len(fields) - 1:
        raise ValueError(f"need {len(fields) - 1} coefficient functions, got {len(bvals)}")
    return TDVectorField([(TimeFunction.constant(1), fields[0]), *zip(bvals, fields[1:])])


def _member_tail(ps: tuple[Poly, ...]) -> Poly:
    """-(P_s - y_{s-1}) of the sequence P_0 .. P_s, on y0 .. y_{s-2}: the
    member's right-hand side at b = 0."""
    s = len(ps) - 1
    return (-(ps[s] - Poly.variable(s, s - 1))).leading(s - 1)


def member_text(s: int) -> str:
    """The order-s member y^(s-1) = -(P_s - y_{s-1}) - sum_l b_l * P_l on one
    line, e.g. 'y1 = -b0 - b1*y0 - y0^2'.  Terms go by ascending total
    degree; within a degree the exponent vector over b0 .. b_{s-1},
    y0 .. y_{s-2} decides, higher first, so pure coefficient terms come
    before mixed ones and mixed ones before pure jet terms."""
    if s < 2:
        raise ValueError("hierarchy members start at order 2")
    ps = p_sequence(s)
    arity = 2 * s - 1
    jets = [s + i for i in range(s - 1)]
    rhs = _member_tail(ps).remap(arity, jets)
    for l in range(s):
        rhs = rhs - Poly.variable(arity, l) * ps[l].leading(s - 1).remap(arity, jets)
    items = sorted(rhs.terms.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))
    names = [f"b{l}" for l in range(s)] + [f"y{i}" for i in range(s - 1)]
    return f"y{s - 1} = {_terms_text(items, names)}"


def companion_linear_system(s: int, bvals: Sequence[TimeFunction]) -> TDVectorField:
    """First-order form on R^s of x^(s) = -sum_l b_l(t) x^(l):
    u_i' = u_{i+1}, u_{s-1}' = -sum b_l(t) u_l.

    The decomposition keeps the shift D (``_jet_field``) as a single
    constant-coefficient term and adds one term -X[s-1,l] per b_l, so the
    constituent fields expose the system's Lie algebra directly.
    """
    return _td_system(bvals, [_jet_field(s)] + [-gl_field(s, s - 1, l) for l in range(s)])


def member_lie_generators(s: int) -> list[PolyVectorField]:
    """Autonomous fields whose time-dependent combination is the member
    system: the drift (shift plus the b-free part of the equation)
    followed by one field per coefficient symbol, -P_l(v) d/dv_{s-2}."""
    if s < 2:
        raise ValueError("hierarchy members start at order 2")
    ps = p_sequence(s)
    dim = s - 1
    drift_comps = [Poly.variable(dim, i + 1) for i in range(dim - 1)]
    drift_comps.append(_member_tail(ps))
    fields = [PolyVectorField(drift_comps)]
    for l in range(s):
        comps = [Poly.zero(dim) for _ in range(dim)]
        comps[dim - 1] = -ps[l].leading(dim)
        fields.append(PolyVectorField(comps))
    return fields


def member_td_system(s: int, bvals: Sequence[TimeFunction]) -> TDVectorField:
    """The member system in decomposed form, as the ``hierarchy_member``
    spec kind and the hierarchy rule integrate it."""
    return _td_system(bvals, member_lie_generators(s))


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
