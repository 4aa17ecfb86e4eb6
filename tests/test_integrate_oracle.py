"""RKF45 and RK4 against scipy's DOP853, on one fixed system of every
system kind and on random polynomial systems.

Each random example is a time-dependent field sum_k b_k(t) Y_k on R^1..R^3
with polynomial Y_k of degree <= 2 and coefficients in [-1/2, 1/2],
integrated from a point of [-1/2, 1/2]^n over a short span.  Examples where
either side reports a singularity are discarded: the oracle speaks only
about completed trajectories.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from liesuper.algebra import Poly
from liesuper.integrate import IntegratorConfig, integrate, integrate_batch
from liesuper.parsing import parse_timefn
from liesuper.systems import SYSTEM_KINDS, build_rhs, parse_system_spec
from liesuper.vectorfield import PolyVectorField, TDVectorField

SPAN = (0.0, 0.5)
COEFFS = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2), max_denominator=8)


@st.composite
def polynomial_systems(draw, points=1):
    """(field, initial point) with up to two time coefficients, or (field,
    list of initial points) when ``points`` is above one."""
    n = draw(st.integers(1, 3))
    monomials = st.tuples(*[st.integers(0, 2)] * n).filter(lambda m: sum(m) <= 2)
    sources = draw(st.lists(st.sampled_from(["1", "t", "sin(t)", "cos(t)", "exp(t)"]), min_size=1, max_size=2, unique=True))
    terms = [
        (parse_timefn(src), PolyVectorField([Poly(n, draw(st.dictionaries(monomials, COEFFS, max_size=3))) for _ in range(n)]))
        for src in sources
    ]
    coordinates = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2), max_denominator=16)
    x0s = [[float(v) for v in draw(st.lists(coordinates, min_size=n, max_size=n))] for _ in range(points)]
    return TDVectorField(terms), x0s[0] if points == 1 else x0s


def reference(field, x0, t_eval, tol=1e-12):
    """DOP853 at rtol = atol = ``tol``, sampled at ``t_eval``; None if it failed."""
    sol = solve_ivp(field.evaluate, SPAN, x0, method="DOP853", rtol=tol, atol=tol, t_eval=t_eval)
    return sol.y.T if sol.status == 0 else None


# one spec and initial state per system kind, with time-dependent coefficients
KIND_CASES = {
    "linear_homogeneous": ({"order": 3, "b": ["1", "0.5*t", "cos(t)"]}, [0.3, -0.2, 0.5]),
    "linear_affine": ({"a": "cos(t)", "b": "1 + t"}, [0.4]),
    "bernoulli": ({"a": "cos(t)", "b": "0.5", "n": 3}, [0.6]),
    "riccati": ({"b0": "1 + 0.5*cos(t)", "b1": "sin(t)"}, [0.2]),
    "oscillator": ({"omega": "1 + 0.1*sin(t)"}, [1.0, 0.5]),
    "pinney": ({"omega": "1 + 0.1*sin(t)", "c": 2.0}, [1.0, 0.5]),
    "hierarchy_member": ({"order": 3, "b": ["1", "sin(t)", "0"]}, [0.3, -0.4]),
    "custom_td": ({"dim": 2, "terms": [{"coeff": "exp(t)", "field": ["x1", "0 - x0*x1"]}]}, [0.5, -0.5]),
}



@pytest.mark.parametrize("kind", sorted(SYSTEM_KINDS))
def test_rkf45_agrees_with_dop853_on_every_system_kind(kind):
    params, x0 = KIND_CASES[kind]
    field = build_rhs(parse_system_spec({"kind": kind, **params}))
    traj = integrate(field, x0, SPAN, IntegratorConfig(rtol=1e-10))
    assert traj.completed
    expected = reference(field, x0, [SPAN[1]])
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(traj.states[-1] - expected[-1])) <= 1e-8 * scale


@settings(max_examples=30, deadline=None)
@given(polynomial_systems())
def test_rkf45_agrees_with_dop853(system):
    field, x0 = system
    traj = integrate(field, x0, SPAN, IntegratorConfig(rtol=1e-10))
    assume(traj.completed)
    expected = reference(field, x0, [SPAN[1]])
    assume(expected is not None)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(traj.states[-1] - expected[-1])) <= 1e-8 * scale


@settings(max_examples=20, deadline=None)
@given(polynomial_systems(points=4))
def test_rkf45_batch_agrees_with_dop853(system):
    # four rows step in lockstep, each under its own step control
    field, x0s = system
    batch = integrate_batch(field, x0s, SPAN, IntegratorConfig(rtol=1e-10))
    completed = [(traj, x0) for traj, x0 in zip(batch, x0s) if traj.completed]
    assume(completed)
    for traj, x0 in completed:
        expected = reference(field, x0, [SPAN[1]])
        if expected is None:
            continue
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(traj.states[-1] - expected[-1])) <= 1e-8 * scale


@settings(max_examples=30, deadline=None)
@given(polynomial_systems())
def test_rk4_error_drops_sixteenfold_when_the_step_halves(system):
    field, x0 = system
    coarse = integrate(field, x0, SPAN, IntegratorConfig(method="rk4", step=0.05))
    fine = integrate(field, x0, SPAN, IntegratorConfig(method="rk4", step=0.025))
    assume(coarse.completed and fine.completed)
    # near scipy's tightest tolerance, so that the reference's own error
    # stays far below the fine grid's
    expected = reference(field, x0, coarse.times, tol=3e-14)
    assume(expected is not None)
    # compare on the coarse nodes, which the fine grid shares
    err_coarse = float(np.max(np.abs(coarse.states - expected)))
    err_fine = float(np.max(np.abs(fine.states[::2] - expected)))
    # below this the error is rounding (RK4 is exact on some fields), not h^4
    assume(err_coarse > 1e-10)
    # the observed order log2(err_coarse / err_fine) is 4 up to the h^5
    # terms, which at these steps can still move it by most of a unit
    assert 3.0 < math.log2(err_coarse / err_fine) < 5.0
