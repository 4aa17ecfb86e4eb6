"""Span tracing of liesuper from outside the library.

``Tracer.patch`` replaces a function at the attribute its callers look it
up through (a module global such as ``liesuper.liealg.lie_bracket``, or a
class attribute such as ``liesuper.algebra.Poly.__mul__``) with a wrapper
that records one span per call: layer key, start, end and parent span.
A call made while the innermost open span already belongs to the same
layer is a call inside that layer, not across its boundary, so it runs
unwrapped and records nothing.

Spans live in flat in-memory arrays until ``write`` saves them; the
per-layer metrics are derived from them by ``layer_metrics``.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._open_keys: list[int] = [-1]
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def key_id(self, key: str) -> int:
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return self._key_ids[key]

    def wrap(self, key: str, fn, hook=None):
        """``fn`` recording a span under ``key``; ``hook(args, result, exc)``
        runs after each recorded call to update ``counters``."""
        kid = self.key_id(key)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        open_spans, open_keys = self._open, self._open_keys

        def traced(*args, **kwargs):
            if open_keys[-1] == kid:
                return fn(*args, **kwargs)
            idx = len(name)
            name.append(kid)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(idx)
            open_keys.append(kid)
            start.append(perf_counter())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end[idx] = perf_counter()
                open_spans.pop()
                open_keys.pop()
                if hook is not None:
                    hook(args, result, exc)

        return traced

    def patch(self, owner, attr: str, key: str, hook=None, adapt=None) -> None:
        """Trace ``owner.attr``; ``adapt(original)``, when given, is the
        function traced in its place."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = adapt(original) if adapt is not None else original
        setattr(owner, attr, self.wrap(key, fn, hook))
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: str) -> None:
        """Save every span as arrays plus the key table (``keys[name]``)."""
        np.savez(path, keys=np.array(self.keys), **self.arrays())


class _TracedRHS:
    """The right-hand side handed to ``integrate``, with a span around each
    outermost ``evaluate``; ``integrate`` reads only these two attributes."""

    __slots__ = ("dimension", "evaluate")

    def __init__(self, rhs, evaluate):
        self.dimension = rhs.dimension
        self.evaluate = evaluate


def install(tracer: Tracer) -> None:
    """Wrap every public entry point the per-layer metrics are built from."""
    from liesuper import algebra, exactlinalg, hierarchy, liealg, parsing, superpose, verify

    counters = tracer.counters

    def closure_hook(args, result, exc):
        counters["closure.generators"] += len(args[0])
        if result is not None:
            counters["closure.admitted"] += result.size
        elif isinstance(exc, liealg.CapExceeded):
            counters["closure.admitted"] += exc.dimension
            counters["closure.cap_exceeded"] += 1

    def integrate_hook(args, result, exc):
        if result is not None:
            counters["integrate.steps_accepted"] += result.meta["steps"]
            counters["integrate.steps_rejected"] += result.meta["rejected"]

    def trial_hook(args, result, exc):
        if result is not None and result.ok:
            counters["verify.clean_trials"] += 1

    def with_traced_rhs(integrate):
        def run(rhs, *rest, **kwargs):
            proxy = _TracedRHS(rhs, tracer.wrap("vectorfield.rhs_eval", rhs.evaluate))
            return integrate(proxy, *rest, **kwargs)

        return run

    for module in (liealg, verify):
        tracer.patch(module, "closure", "liealg.closure", closure_hook)
        tracer.patch(module, "lie_bracket", "vectorfield.lie_bracket")
        tracer.patch(module, "structure_constants", "liealg.structure_constants")
        tracer.patch(module, "killing_determinant", "liealg.killing")
        tracer.patch(module, "center_dimension", "liealg.center")
    tracer.patch(liealg, "killing_form", "liealg.killing")
    for attr in ("sparse_rank", "solve_in_span", "dense_rank", "determinant"):
        tracer.patch(liealg, attr, "exactlinalg")
    for attr in ("sparse_rank", "solve_in_span", "dense_rank", "nullspace_dimension", "determinant"):
        tracer.patch(exactlinalg, attr, "exactlinalg")
    for attr in ("add", "reduce", "contains"):
        tracer.patch(exactlinalg.SparseEchelon, attr, "exactlinalg")
    tracer.patch(algebra.Poly, "__mul__", "algebra.poly_mul")
    tracer.patch(algebra.Poly, "__rmul__", "algebra.poly_mul")
    tracer.patch(algebra.DiffPoly, "evaluate", "algebra.diffpoly_eval")
    for cls in parsing.TimeFunction.__subclasses__():
        if "eval" in cls.__dict__:
            tracer.patch(cls, "eval", "parsing.timefn_eval")
    tracer.patch(hierarchy, "p_sequence", "hierarchy.p_sequence")
    tracer.patch(superpose, "p_sequence", "hierarchy.p_sequence")
    for attr in (
        "eval_linear_rule",
        "eval_bernoulli_rule",
        "eval_pinney_rule",
        "eval_hierarchy_rule",
        "eval_riccati_cross_ratio",
    ):
        tracer.patch(verify, attr, "superpose.rule_eval")
    tracer.patch(verify, "integrate", "integrate", integrate_hook, adapt=with_traced_rhs)
    tracer.patch(verify, "verify_rule", "verify.trial", trial_hook)


# layer key -> the metrics reported for it, <key>.calls and/or <key>.s
_SPAN_METRICS = {
    "liealg.closure": ("calls", "s"),
    "vectorfield.lie_bracket": ("calls", "s"),
    "algebra.poly_mul": ("calls", "s"),
    "exactlinalg": ("calls", "s"),
    "liealg.structure_constants": ("s",),
    "liealg.killing": ("s",),
    "liealg.center": ("s",),
    "integrate": ("calls", "s"),
    "vectorfield.rhs_eval": ("calls", "s"),
    "parsing.timefn_eval": ("calls", "s"),
    "hierarchy.p_sequence": ("calls", "s"),
    "algebra.diffpoly_eval": ("calls", "s"),
    "superpose.rule_eval": ("calls", "s"),
    "verify.trial": ("calls",),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    ``<key>.s`` is inclusive time summed over the spans of a layer that do
    not sit inside another span of the same layer; ``<key>.calls`` counts
    every span of the layer.
    """
    a = tracer.arrays()
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    nested = np.zeros(len(name), dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        has = anc >= 0
        nested |= has & (name[np.where(has, anc, 0)] == name)
        anc = np.where(has, parent[np.where(has, anc, 0)], -1)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))

    ids = {key: tracer.key_id(key) for key in _SPAN_METRICS}
    out: dict[str, float] = {}
    for key, kinds in _SPAN_METRICS.items():
        mine = name == ids[key]
        if "calls" in kinds:
            out[f"{key}.calls"] = int(np.count_nonzero(mine))
        if "s" in kinds:
            out[f"{key}.s"] = float(dur[mine & ~nested].sum())
    outer_integrate = (name == ids["integrate"]) & ~nested
    out["integrate.self_s"] = float((dur - child_time)[outer_integrate].sum())

    c = tracer.counters
    under_closure = has_parent & (name[np.where(has_parent, parent, 0)] == ids["liealg.closure"])
    candidates = c["closure.generators"] + int(
        np.count_nonzero(under_closure & (name == ids["vectorfield.lie_bracket"]))
    )
    out["liealg.closure.admit_ratio"] = c["closure.admitted"] / candidates if candidates else 0.0
    out["liealg.cap_exceeded"] = c["closure.cap_exceeded"]
    out["integrate.steps_accepted"] = c["integrate.steps_accepted"]
    out["integrate.steps_rejected"] = c["integrate.steps_rejected"]

    trial_ms = np.sort(dur[name == ids["verify.trial"]]) * 1e3
    out["verify.trial_p50_ms"] = _quantile(trial_ms, 0.50)
    out["verify.trial_p75_ms"] = _quantile(trial_ms, 0.75)
    trials = out["verify.trial.calls"]
    out["verify.clean_ratio"] = c["verify.clean_trials"] / trials if trials else 0.0
    return out


def _quantile(sorted_values: np.ndarray, q: float) -> float:
    if len(sorted_values) == 0:
        return 0.0
    return float(np.quantile(sorted_values, q))

