"""Independent reference systems the tests compare the library against."""

from typing import Callable, Sequence

import numpy as np

from liesuper.hierarchy import HierarchyMember
from liesuper.parsing import TimeFunction


class FunctionRHS:
    """A right-hand side f(t, state) of fixed dimension, with the
    ``dimension`` and ``evaluate`` the integrators read.  On a (dim, rows)
    block of states ``fn`` gets the block's coordinate rows and may return
    one float for all rows; ``evaluate`` returns the (dim, rows) block."""

    def __init__(self, dimension: int, fn: Callable[[float, Sequence[float]], Sequence[float]]):
        self.dimension = dimension
        self._fn = fn

    def evaluate(self, t, state):
        if len(state) != self.dimension:
            raise ValueError(f"state of length {len(state)} for dimension {self.dimension}")
        out = self._fn(t, state)
        if isinstance(state, np.ndarray) and state.ndim == 2:
            block = np.empty_like(state)
            for row, value in zip(block, out, strict=True):
                row[...] = value
            return block
        return list(out)


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
