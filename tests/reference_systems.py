"""Independent reference systems the tests compare the library against."""

from typing import Sequence

from liesuper.hierarchy import HierarchyMember
from liesuper.parsing import TimeFunction
from liesuper.vectorfield import GenericRHS


def member_first_order_system(member: HierarchyMember, bvals: Sequence[TimeFunction]) -> GenericRHS:
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

    return GenericRHS(dim, fn, label=f"hierarchy-member-{s}")
