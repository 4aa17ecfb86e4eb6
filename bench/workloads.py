"""The benchmark's workloads: seeded inputs, the jobs run on them, and the
check every job's output must pass.

A workload is built in two steps so that set-up and work can be timed
apart: ``build(name, seed, size)`` makes the inputs (generator fields, or
suite documents that already passed ``validate_suite``) and returns its
jobs, each a name and a function that performs the job and returns its
``Outcome``s (one per family, or one per suite item); ``run_jobs`` runs
them all.  ``size`` is ``"full"`` for measurement and ``"tiny"`` for the
smoke tests.

The library is reached only through module attributes looked up at call
time (``liealg.closure``, ``verify.run_suite``), so the traced run sees
every call the untraced run makes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from liesuper import hierarchy, liealg, verify
from liesuper.algebra import Poly
from liesuper.parsing import parse_poly
from liesuper.vectorfield import PolyVectorField

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())
"""Exact outputs recorded for the unconjugated families (see README.md)."""


@dataclass
class Outcome:
    job: str
    exact: dict
    """Outputs and counts that the same seed must reproduce bit for bit."""
    problems: list[str] = field(default_factory=list)
    """Why the output fails its check; empty when it passes."""


Job = tuple[str, Callable[[], list[Outcome]]]


# ---------------------------------------------------------------------------
# exact layer
# ---------------------------------------------------------------------------

def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def unimodular(s: int, rng: random.Random, ops: int) -> tuple[list[list[int]], list[list[int]]]:
    """A and A^-1 for A the product of ``ops`` elementary operations
    x_i += +-x_j, with every i drawn from one half of the coordinates and
    every j from the other.  Such operations commute and A = I + N with
    N^2 = 0, so A has exactly s + ops nonzero entries whatever the seed:
    the conjugated fields' density, and so the work, does not vary with it.
    """
    coords = list(range(s))
    rng.shuffle(coords)
    rows, cols = coords[: s // 2], coords[s // 2 :]
    a = [[int(i == j) for j in range(s)] for i in range(s)]
    a_inv = [row[:] for row in a]
    for i, j in rng.sample([(i, j) for i in rows for j in cols], ops):
        sign = rng.choice((-1, 1))
        a[i][j] += sign
        a_inv[i][j] -= sign
    return a, a_inv


def conjugate_linear(fields: list[PolyVectorField], a, a_inv) -> list[PolyVectorField]:
    """Push linear fields x' = M x forward along y = A x: y' = A M A^-1 y."""
    s = len(a)
    unit = [tuple(int(k == j) for k in range(s)) for j in range(s)]
    out = []
    for f in fields:
        m = [[f.components[i].terms.get(unit[j], 0) for j in range(s)] for i in range(s)]
        am = [[sum(a[i][k] * m[k][j] for k in range(s)) for j in range(s)] for i in range(s)]
        n = [[sum(am[i][k] * a_inv[k][j] for k in range(s)) for j in range(s)] for i in range(s)]
        out.append(PolyVectorField([Poly(s, {unit[j]: n[i][j] for j in range(s)}) for i in range(s)]))
    return out


def cap_family() -> list[PolyVectorField]:
    """{d/dx, y^2 d/dx + x d/dy}: brackets raise the degree forever."""
    return [
        PolyVectorField([parse_poly("1", 2), parse_poly("0", 2)]),
        PolyVectorField([parse_poly("x1^2", 2), parse_poly("x0", 2)]),
    ]


def _basis_digest(basis) -> str:
    return _digest([[p.to_text() for p in f.components] for f in basis.fields])


def _closure_job(name: str, generators, cap: int, expect: dict) -> Job:
    def job() -> list[Outcome]:
        try:
            basis = liealg.closure(generators, cap)
            exact = {"dimension": basis.size, "basis": _basis_digest(basis)}
        except liealg.CapExceeded as exc:
            exact = {"cap_exceeded_at": exc.dimension}
        return [Outcome(name, exact, _mismatches(exact, expect))]

    return name, job


def _structure_job(name: str, generators, expect: dict) -> Job:
    """The ``liesuper closure`` job: closure, structure constants, Killing
    determinant and center dimension."""

    def job() -> list[Outcome]:
        basis = liealg.closure(generators, liealg.DEFAULT_CLOSURE_CAP)
        sc = liealg.structure_constants(basis)
        nonzero = [
            [a, b, g, str(sc.c[a][b][g])]
            for a in range(sc.r)
            for b in range(a + 1, sc.r)
            for g in range(sc.r)
            if sc.c[a][b][g] != 0
        ]
        exact = {
            "dimension": basis.size,
            "basis": _basis_digest(basis),
            "structure_constants": _digest(nonzero),
            "killing_determinant": str(liealg.killing_determinant(sc)),
            "center_dimension": liealg.center_dimension(sc),
        }
        return [Outcome(name, exact, _mismatches(exact, expect))]

    return name, job


def _mismatches(exact: dict, expect: dict) -> list[str]:
    return [
        f"{key}: got {exact.get(key)!r}, expected {value!r}"
        for key, value in expect.items()
        if exact.get(key) != value
    ]


def run_job(job: Job) -> list[Outcome]:
    job_name, fn = job
    try:
        return fn()
    except Exception as exc:  # a job that raises counts as failed
        return [Outcome(job_name, {"raised": type(exc).__name__}, [f"raised {exc!r}"])]


def run_jobs(jobs: list[Job]) -> list[Outcome]:
    return [o for job in jobs for o in run_job(job)]


# sizes: (gl order, conjugating operations, member order, cap)
_CLOSURE_SIZES = {"full": (7, 2, 6, 96), "tiny": (3, 1, 3, 12)}
_STRUCTURE_SIZES = {"full": (4, 2, 4), "tiny": (3, 1, 3)}
# Which coordinates a change mixes moves the work of the conjugated gl(4)
# job by about 20 % (quartile spread over seeds); two changes per input set
# halve that share of the seed-to-seed spread.
_STRUCTURE_CHANGES = 2


def _lie_closure(seed: int, size: str) -> list[Job]:
    s, ops, m, cap = _CLOSURE_SIZES[size]
    a, a_inv = unimodular(s, random.Random(seed), ops)
    gl = conjugate_linear(hierarchy.linear_generators(s), a, a_inv)
    default_cap = liealg.DEFAULT_CLOSURE_CAP
    return [
        _closure_job(f"gl({s})-conjugated", gl, default_cap, {"dimension": s * s}),
        _closure_job(
            f"member({m})", hierarchy.member_lie_generators(m), default_cap, EXPECTED[f"closure member({m})"]
        ),
        _closure_job(f"cap-family-cap{cap}", cap_family(), cap, {"cap_exceeded_at": cap + 1}),
    ]


def _lie_structure(seed: int, size: str) -> list[Job]:
    s, ops, m = _STRUCTURE_SIZES[size]
    rng = random.Random(seed)
    gl_expect = {"dimension": s * s, "center_dimension": 1, "killing_determinant": "0"}
    jobs = []
    for k in range(_STRUCTURE_CHANGES):
        gl = conjugate_linear(hierarchy.linear_generators(s), *unimodular(s, rng, ops))
        jobs.append(_structure_job(f"gl({s})-conjugated-{k}", gl, gl_expect))
    jobs.append(
        _structure_job(f"member({m})", hierarchy.member_lie_generators(m), EXPECTED[f"structure member({m})"])
    )
    return jobs


# ---------------------------------------------------------------------------
# numeric layer
# ---------------------------------------------------------------------------

def _pinney_suite(seed: int, size: str) -> dict:
    combos = [(omega, c) for omega in ("1", "1 + 0.1*sin(t)") for c in (0.5, 2.0)]
    trials = 10
    if size == "tiny":
        combos, trials = combos[-1:], 2
    return {
        "items": [
            {
                "kind": "rule",
                "name": f"pinney omega={omega} c={c}",
                "rule": "pinney",
                "omega": omega,
                "c": c,
                "method": "rk4",
                "step": 1e-3,
                "trials": trials,
                "seed": seed * 1000 + i,
                "tspan": [0.0, 1.0],
                "tolerance": 1e-6,
            }
            for i, (omega, c) in enumerate(combos)
        ]
    }


_HIERARCHY_B = ("1", "0", "0", "0", "0")
# The order-s rule's jets grow like (max |c_l| / |c_0|)^(s-1), up to about
# 1e6 at order 5, and the suite's errors are absolute, so the tolerances
# grow with the order.  Largest formula errors seen: 3e-9 (order 3, 49
# seeds), 3e-5 (order 4, 169 seeds) and 1.3e-2 (order 5, 169 seeds), with
# heavy tails.  Constants round trip over 400 seeds: at most 5e-13, 2e-11
# and 1.3e-9, while the suite's default round-trip tolerance is 1e-10.
_HIERARCHY_TOLERANCE = {3: 1e-6, 4: 1e-2, 5: 1.0}
_HIERARCHY_ROUND_TRIP_TOLERANCE = {3: 1e-10, 4: 1e-9, 5: 1e-7}


def _hierarchy_suite(seed: int, size: str) -> dict:
    # A short span keeps trials clear of the member's poles: a trial that
    # runs into one takes ~20x the steps of a clean one, and on [0, 0.5]
    # the integration work then varied by 30-40 % (quartile spread) from
    # seed to seed.
    orders, trials = ((3, 4, 5), 40) if size == "full" else ((3,), 2)
    return {
        "items": [
            {
                "kind": "rule",
                "name": f"hierarchy order {s}",
                "rule": "hierarchy",
                "order": s,
                "b": list(_HIERARCHY_B[:s]),
                "method": "rkf45",
                "trials": trials,
                "seed": seed * 1000 + i,
                "tspan": [0.0, 0.05],
                "tolerance": _HIERARCHY_TOLERANCE[s],
                "round_trip_tolerance": _HIERARCHY_ROUND_TRIP_TOLERANCE[s],
            }
            for i, s in enumerate(orders)
        ]
    }


def check_rule_report(report: dict) -> list[str]:
    """A rule item passes only if the library says so and every error it
    measured is a finite number."""
    problems = []
    measured = report.get("measured", {})
    if report.get("pass") is not True:
        detail = measured.get("error") or (
            f"max_formula_error {measured.get('max_formula_error')} (tolerance {report.get('tolerance')}),"
            f" extras_max {measured.get('extras_max')}, lie_condition {measured.get('lie_condition')}"
        )
        problems.append(f"item did not pass: {detail}")
    values = {"max_formula_error": measured.get("max_formula_error")}
    values.update({f"extras_max.{k}": v for k, v in measured.get("extras_max", {}).items()})
    for key, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{key} is {value!r}, not a finite number")
    return problems


def _rule_exact(report: dict) -> dict:
    measured = report.get("measured", {})
    return {
        "pass": report.get("pass"),
        "trial_count": measured.get("trial_count"),
        "rejected_trials": measured.get("rejected_trials"),
        "singular_trials": measured.get("singular_trials"),
        "statuses": _digest([t["status"] for t in measured.get("trials", [])]),
        "closure_dimension": measured.get("closure_dimension"),
        "component_closure_dimension": measured.get("component_closure_dimension"),
    }


def _suite_jobs(doc: dict) -> list[Job]:
    """One job per suite item, each ``run_suite`` on a suite of that item
    alone, so that every item is timed apart (``run_suite`` runs its
    items independently)."""
    errors = verify.validate_suite(doc)
    if errors:
        raise ValueError(f"invalid suite: {errors}")

    def item_job(item: dict) -> Job:
        def job() -> list[Outcome]:
            reports = verify.run_suite({"items": [item]})
            return [Outcome(r["name"], _rule_exact(r), check_rule_report(r)) for r in reports]

        return item["name"], job

    return [item_job(item) for item in doc["items"]]


BUILDERS = {
    "lie-closure": _lie_closure,
    "lie-structure": _lie_structure,
    "verify-pinney": lambda seed, size: _suite_jobs(_pinney_suite(seed, size)),
    "verify-hierarchy": lambda seed, size: _suite_jobs(_hierarchy_suite(seed, size)),
}


def build(name: str, seed: int, size: str = "full") -> list[Job]:
    return BUILDERS[name](seed, size)
