"""Independent reference systems the tests compare the library against."""

from typing import Callable, Sequence

from liesuper.hierarchy import HierarchyMember
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


def member_first_order_system(member: HierarchyMember, bvals: Sequence[TimeFunction]) -> FunctionRHS:
    """First-order form of a hierarchy member on R^{s-1}:
    v_i' = v_{i+1} and v_{s-2}' = rhs(t, v), with the b symbols bound to
    the given time functions.  Built straight from the member equation, it
    is the independent reference for ``member_td_system``."""
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

    return FunctionRHS(dim, fn)
