"""Independent reference systems the tests compare the library against."""

from functools import cache
from typing import Callable, Sequence

import sympy

from liesuper.parsing import TimeFunction


class FunctionRHS:
    """A right-hand side f(t, state) of fixed dimension, with the
    ``dimension``, ``evaluate`` and ``bind`` the integrators read.  Bound to
    a (dim, rows) block of states, ``fn`` gets the block's coordinate rows
    and may return one float for all rows; its values fill the rows of
    ``out``."""

    def __init__(self, dimension: int, fn: Callable[[float, Sequence[float]], Sequence[float]]):
        self.dimension = dimension
        self._fn = fn

    def evaluate(self, t, state):
        if len(state) != self.dimension:
            raise ValueError(f"state of length {len(state)} for dimension {self.dimension}")
        return list(self._fn(t, state))

    def bind(self, state, out):
        def kernel(t):
            for row, value in zip(out, self._fn(t, state), strict=True):
                row[...] = value

        return kernel


@cache
def member_rhs_sympy(s: int) -> tuple:
    """The order-s member y^(s-1) = rhs(y0 .. y_{s-2}, b0 .. b_{s-1}) as a
    sympy expression, with its jet and b symbols, derived from its
    definition rather than from the P recursion: x = exp(Y) with Y' = y0,
    so x^(l)/x is a polynomial in the jet y_i = Y^(i+1), and the linear
    equation x^(s) + sum_l b_l x^(l) = 0 divided by x is solved for
    y_{s-1}."""
    t = sympy.Symbol("t")
    big_y = sympy.Function("Y")(t)
    ys = sympy.symbols(f"y0:{s}")
    bs = sympy.symbols(f"b0:{s}")

    def ratio(l):
        expr = sympy.expand(sympy.diff(sympy.exp(big_y), t, l) * sympy.exp(-big_y))
        for k in range(l, 0, -1):
            expr = expr.subs(sympy.Derivative(big_y, (t, k)), ys[k - 1])
        return expr

    (rhs,) = sympy.solve(ratio(s) + sum(bs[l] * ratio(l) for l in range(s)), ys[s - 1])
    return sympy.expand(rhs), ys[: s - 1], bs


def member_first_order_system(s: int, bvals: Sequence[TimeFunction]) -> FunctionRHS:
    """First-order form of the order-s hierarchy member on R^{s-1}:
    v_i' = v_{i+1} and v_{s-2}' = rhs(t, v), with the b symbols bound to
    the given time functions.  Built from ``member_rhs_sympy``, it is the
    independent reference for ``member_td_system``."""
    if len(bvals) != s:
        raise ValueError(f"need {s} coefficient functions, got {len(bvals)}")
    rhs, ys, bs = member_rhs_sympy(s)
    rhs = sympy.lambdify([ys, bs], rhs, "math")
    dim = s - 1
    bfuncs = tuple(bvals)

    def fn(t: float, state: Sequence[float]) -> list[float]:
        out = [state[i + 1] for i in range(dim - 1)]
        out.append(float(rhs(state, [b.eval(t) for b in bfuncs])))
        return out

    return FunctionRHS(dim, fn)
