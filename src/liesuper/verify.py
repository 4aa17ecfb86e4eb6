"""End-to-end verification of superposition rules against integration.

The protocol for one trial of one rule:

1. sample initial conditions for the component systems and constants,
2. compute the target's initial state through the rule's formula,
3. integrate target and components together as one block-diagonal system
   (the direct product of the components, joined with the target), so all
   comparisons happen on a single shared grid with no interpolation,
4. apply the formula once to the component states at all accepted nodes
   together (one call on node arrays), and compare that pass against the
   independently integrated target block,
5. apply the rule's singularity guards and consistency checks to the
   same pass (Wronskian conservation and a finite-difference derivative
   check for the Pinney rule, the exact constants round trip for the
   hierarchy rule); none of them evaluates the formula again.

Trials whose sampled data wander into a rule's singular set (vanishing
denominators, sign changes of the normalizing combination, blown-up
component solutions) are rejected and resampled; rejections and singular
runs are counted in the report, never hidden.

The trial loop draws candidates in the sampler's stream order, a chunk at
a time, and integrates each chunk with one ``integrate_batch`` call, so
its trials advance together in lockstep (under RKF45 each with its own
step control).  Candidates are judged in order and the loop stops at the
requested number of clean trials, so every record (index, constants,
status) is the one a loop running one trial at a time would produce; a
candidate drawn past that point is never judged.

Each verified rule also gets its dimension check: the Lie closure of the
target system's constituent fields (for the Pinney rule, whose target is
not polynomial, the component oscillator's fields stand in) must not
exceed the sum of the component space dimensions.

``run_suite`` drives a declarative list of such checks -- rules, raw
closures, first-integral drifts, and the bracket/prolongation identity --
from a JSON-able document with explicit seeds and tolerances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .algebra import Poly
from .hierarchy import gl_basis, linear_generators, member_lie_generators, member_td_system
from .integrate import (
    IntegratorConfig,
    Trajectory,
    first_integral_drift,
    integrate,
    integrate_batch,
    rk4_step_count,
    wronskian,
)
from .liealg import (
    CapExceeded,
    center_dimension,
    check_lie_condition,
    closure,
    killing_determinant,
    structure_constants,
)
from .parsing import TimeFunction, parse_timefn
from .superpose import (
    MixedRule,
    SuperpositionError,
    eval_bernoulli_rule,
    eval_hierarchy_rule,
    eval_linear_rule,
    eval_pinney_rule,
    eval_riccati_cross_ratio,
    solve_hierarchy_constants,
)
from .systems import (
    GENERATOR_KEYS,
    SYSTEM_KINDS,
    SystemSpec,
    build_rhs,
    check_integer,
    check_keys,
    check_number,
    checker,
    generator_fields,
    is_number,
    lookup,
    oscillator_system,
    parse_system_spec,
)
from .vectorfield import (
    AnyRHS,
    ExponentLimitError,
    PolyVectorField,
    TDVectorField,
    diagonal_prolong,
    direct_product,
    join_rhs,
    lie_bracket,
)


# ---------------------------------------------------------------------------
# randomized fields and the bracket/prolongation identity
# ---------------------------------------------------------------------------

def random_field(rng: random.Random, dim: int, degree: int = 3, terms: int = 3) -> PolyVectorField:
    """A random polynomial field with small integer coefficients."""
    comps = []
    for _ in range(dim):
        p = Poly.zero(dim)
        for _ in range(rng.randint(1, terms)):
            while True:
                exps = tuple(rng.randint(0, degree) for _ in range(dim))
                if sum(exps) <= degree:
                    break
            coeff = rng.randint(-3, 3)
            p = p + Poly.monomial(dim, exps, coeff)
        comps.append(p)
    return PolyVectorField(comps)


def check_prolongation_identity(seed: int, trials: int) -> bool:
    """Whether prolonging commutes with the bracket on random field pairs:
    the prolongation of [X, Y] must equal the bracket of the prolongations,
    exactly, for every sampled pair."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    for _ in range(trials):
        dim = rng.randint(1, 3)
        copies = rng.choice((2, 3))
        x = random_field(rng, dim)
        y = random_field(rng, dim)
        lhs = diagonal_prolong(lie_bracket(x, y), copies)
        rhs = lie_bracket(diagonal_prolong(x, copies), diagonal_prolong(y, copies))
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# per-trial records and per-rule reports
# ---------------------------------------------------------------------------

@dataclass
class TrialRecord:
    index: int
    constants: list[float]
    status: str  # 'ok', 'rejected:<reason>', 'singular:<trigger>'
    max_error: float | None = None
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_doc(self) -> dict:
        doc = {"index": self.index, "constants": self.constants, "status": self.status}
        if self.max_error is not None:
            doc["max_error"] = self.max_error
        if self.extras:
            doc["extras"] = self.extras
        return doc


@dataclass
class VerificationReport:
    rule_id: str
    trial_count: int
    max_formula_error: float
    max_drift: float
    singular_trials: int
    rejected_trials: int
    closure_dimension: int | None
    dimension_bound: int | None
    lie_condition: bool | None
    records: list[TrialRecord]
    component_closure_dimension: int | None = None

    def to_doc(self) -> dict:
        doc = {
            "rule": self.rule_id,
            "trial_count": self.trial_count,
            "max_formula_error": self.max_formula_error,
            "max_drift": self.max_drift,
            "singular_trials": self.singular_trials,
            "rejected_trials": self.rejected_trials,
            "closure_dimension": self.closure_dimension,
            "dimension_bound": self.dimension_bound,
            "lie_condition": self.lie_condition,
            "trials": [r.to_doc() for r in self.records],
        }
        if self.component_closure_dimension is not None:
            doc["component_closure_dimension"] = self.component_closure_dimension
        return doc


# ---------------------------------------------------------------------------
# rule setups
# ---------------------------------------------------------------------------

def _no_guard(traj, blocks, predicted, constants):
    return None


def _no_extras(traj, blocks, predicted, constants):
    return {}


@dataclass
class RuleSetup:
    """Everything one rule needs for trials: its component systems, its
    target system and their joint system (built once), the formula, a
    seeded sampler, singularity guards, and extra per-trial checks; guards
    and checks also get the formula's output, one row per node.  The
    formula takes one coordinate-major state per component, each coordinate
    a float or an array of nodes, and returns one value or array per
    target coordinate."""

    rule: MixedRule
    components: list[TDVectorField]
    target: AnyRHS
    phi: Callable[[list[np.ndarray], Sequence[float]], list[float]]
    sample: Callable[[random.Random], tuple[list[list[float]], list[float]]]
    condition_generators: list[PolyVectorField]
    guard: Callable[[Trajectory, list[np.ndarray], np.ndarray, Sequence[float]], str | None] = _no_guard
    extras: Callable[[Trajectory, list[np.ndarray], np.ndarray, Sequence[float]], dict] = _no_extras
    component_generators: list[PolyVectorField] | None = None
    joint: AnyRHS = field(init=False, repr=False)

    def __post_init__(self):
        self.joint = join_rhs([self.target, direct_product(self.components)])

    def component_blocks(self, traj: Trajectory) -> list[np.ndarray]:
        components = traj.states[:, self.rule.target_dim :]
        return np.split(components, np.cumsum(self.rule.component_dims)[:-1], axis=1)

    def formula_pass(self, blocks: list[np.ndarray], constants: Sequence[float]) -> np.ndarray:
        """The formula at every node, one row per node."""
        return np.column_stack(self.phi([b.T for b in blocks], constants))


def _build_linear(spec: SystemSpec) -> RuleSetup:
    affine = build_rhs(spec)
    homogeneous = TDVectorField(affine.terms[:1])

    def sample(rng):
        x1 = rng.uniform(-2.0, 2.0)
        x2 = rng.choice((-1, 1)) * rng.uniform(0.5, 2.0)
        k = rng.uniform(-2.0, 2.0)
        return [[x1], [x2]], [k]

    return RuleSetup(
        rule=MixedRule.linear(),
        components=[affine, homogeneous],
        target=affine,
        phi=lambda blocks, k: [eval_linear_rule(blocks[0][0], blocks[1][0], k[0])],
        sample=sample,
        condition_generators=affine.constituent_fields(),
    )


def _build_bernoulli(spec: SystemSpec) -> RuleSetup:
    n = spec.params["n"]
    bern = build_rhs(spec)
    homogeneous = TDVectorField(bern.terms[:1])

    def sample(rng):
        x1 = rng.uniform(0.4, 0.8)
        x2 = rng.uniform(0.5, 1.5)
        k = rng.uniform(0.0, 1.0)
        return [[x1], [x2]], [k]

    def guard(traj, blocks, predicted, constants):
        if float(np.min(blocks[0])) < 1e-3 or float(np.min(blocks[1])) < 1e-3:
            return "component-left-positive-domain"
        return None

    return RuleSetup(
        rule=MixedRule.bernoulli(n),
        components=[bern, homogeneous],
        target=bern,
        phi=lambda blocks, k: [eval_bernoulli_rule(blocks[0][0], blocks[1][0], k[0], n)],
        sample=sample,
        guard=guard,
        condition_generators=bern.constituent_fields(),
    )


_PINNEY_DRAWS = 10_000


def _build_pinney(spec: SystemSpec) -> RuleSetup:
    c = spec.params["c"]
    osc = build_rhs(SystemSpec("oscillator", {"omega": spec.params["omega"]}))
    target = build_rhs(spec)

    def sample(rng):
        # with |W| >= 0.3 and k1, k2 <= 2 no draw qualifies once c is above
        # about 178, so the draws are bounded
        for _ in range(_PINNEY_DRAWS):
            xi1 = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
            xi2 = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
            w = xi1[0] * xi2[1] - xi1[1] * xi2[0]
            if abs(w) < 0.3:
                continue
            k1 = rng.uniform(0.4, 2.0)
            k2 = rng.uniform(0.4, 2.0)
            if 4.0 * k1 * k2 - c * w * w < 0.05:
                continue
            return [xi1, xi2], [k1, k2]
        raise RuntimeError(
            f"pinney rule with c = {c}: no admissible initial data in {_PINNEY_DRAWS} draws "
            "(4*k1*k2 - c*W^2 >= 0.05 is needed)"
        )

    def guard(traj, blocks, predicted, constants):
        # the c/x^3 term makes small-x trials stiff far beyond the stated
        # tolerances; the rule is local, so such trials are resampled
        if float(np.min(predicted[:, 0])) < 0.3:
            return "formula-output-margin"
        return None

    def extras(traj, blocks, predicted, constants):
        w = wronskian(traj.block(2, 4), traj.block(4, 6))
        drift = float(np.max(np.abs(w - w[0])))
        # five-point derivative of the formula's x against its p output,
        # on the uniform grid the fixed-step method produces (no interior
        # node, and so 0.0, below five nodes)
        x_f, p_f = predicted[:, 0], predicted[:, 1]
        h = traj.times[1] - traj.times[0]
        fd = (x_f[:-4] - 8 * x_f[1:-3] + 8 * x_f[3:-1] - x_f[4:]) / (12 * h)
        deriv_error = float(np.max(np.abs(fd - p_f[2:-2]), initial=0.0))
        return {"wronskian_drift": drift, "deriv_error": deriv_error}

    return RuleSetup(
        rule=MixedRule.pinney(),
        components=[osc, osc],
        target=target,
        phi=lambda blocks, k: list(eval_pinney_rule(blocks[0], blocks[1], k[0], k[1], c)),
        sample=sample,
        guard=guard,
        extras=extras,
        condition_generators=osc.constituent_fields(),
    )


def _build_hierarchy(spec: SystemSpec) -> RuleSetup:
    s = spec.params["order"]
    companion = build_rhs(SystemSpec("linear_homogeneous", spec.params))
    target = build_rhs(spec)

    def sample(rng):
        while True:
            jets = [[rng.uniform(-1.5, 1.5) for _ in range(s)] for _ in range(s)]
            if abs(np.linalg.det(np.array(jets).T)) < 0.2:
                continue
            k = [rng.uniform(-1.5, 1.5) for _ in range(s - 1)]
            c0 = sum(k[a] * jets[a][0] for a in range(s - 1)) + jets[s - 1][0]
            if abs(c0) < 0.3:
                continue
            return jets, k

    def guard(traj, blocks, predicted, constants):
        c0 = sum(constants[a] * blocks[a][:, 0] for a in range(s - 1)) + blocks[s - 1][:, 0]
        if float(np.min(np.abs(c0))) < 0.05 or np.any(np.sign(c0) != np.sign(c0[0])):
            return "normalizing-combination-margin"
        return None

    def extras(traj, blocks, predicted, constants):
        jets0 = [list(b[0]) for b in blocks]
        v0 = list(predicted[0])
        k_back = solve_hierarchy_constants(s, jets0, v0)
        v_back = eval_hierarchy_rule(s, jets0, k_back)
        return {"round_trip_error": float(np.max(np.abs(np.subtract(v_back, v0))))}

    return RuleSetup(
        rule=MixedRule.hierarchy(s),
        components=[companion] * s,
        target=target,
        phi=lambda blocks, k: eval_hierarchy_rule(s, blocks, k),
        sample=sample,
        guard=guard,
        extras=extras,
        condition_generators=target.constituent_fields(),
        component_generators=companion.constituent_fields(),
    )


def _build_cross_ratio(spec: SystemSpec) -> RuleSetup:
    riccati = build_rhs(spec)

    def sample(rng):
        while True:
            ys = sorted(rng.uniform(-0.3, 2.5) for _ in range(3))
            if ys[1] - ys[0] < 0.15 or ys[2] - ys[1] < 0.15:
                continue
            k = rng.uniform(-2.0, 2.0)
            den = (ys[2] - ys[1]) + k * (ys[0] - ys[2])
            if abs(den) < 0.1:
                continue
            return [[ys[0]], [ys[1]], [ys[2]]], [k]

    def guard(traj, blocks, predicted, constants):
        y1, y2, y3 = blocks[0][:, 0], blocks[1][:, 0], blocks[2][:, 0]
        gap = min(
            float(np.min(np.abs(y1 - y2))),
            float(np.min(np.abs(y1 - y3))),
            float(np.min(np.abs(y2 - y3))),
        )
        if gap < 1e-3:
            return "coincident-solutions-margin"
        den = (y3 - y2) + constants[0] * (y1 - y3)
        if float(np.min(np.abs(den))) < 0.02:
            return "denominator-margin"
        return None

    return RuleSetup(
        rule=MixedRule.riccati_cross_ratio(),
        components=[riccati] * 3,
        target=riccati,
        phi=lambda blocks, k: [eval_riccati_cross_ratio(blocks[0][0], blocks[1][0], blocks[2][0], k[0])],
        sample=sample,
        guard=guard,
        condition_generators=riccati.constituent_fields(),
    )


class _Rule(NamedTuple):
    target: str  # the kind of the target system, whose parameters the rule takes
    build: Callable[[SystemSpec], RuleSetup]
    methods: tuple[str, ...] = ("rkf45", "rk4")  # allowed integration methods, the default first


_RULES = {
    "linear": _Rule("linear_affine", _build_linear),
    "bernoulli": _Rule("bernoulli", _build_bernoulli),
    # the derivative check differences the formula on the uniform rk4 grid
    "pinney": _Rule("pinney", _build_pinney, ("rk4",)),
    "hierarchy": _Rule("hierarchy_member", _build_hierarchy),
    "riccati-cross-ratio": _Rule("riccati", _build_cross_ratio),
}


def build_rule_setup(rule_id: str, params: dict) -> RuleSetup:
    """Trial setup of a rule; ``params`` are its target kind's parameters,
    validated here (SpecError names the offending key)."""
    if rule_id not in _RULES:
        raise ValueError(f"unknown rule id {rule_id!r}")
    rule = _RULES[rule_id]
    return rule.build(parse_system_spec({**params, "kind": rule.target}, "params"))


# ---------------------------------------------------------------------------
# single trials and trial loops
# ---------------------------------------------------------------------------

def verify_rule(
    setup: RuleSetup,
    component_ics: Sequence[Sequence[float]],
    constants: Sequence[float],
    tspan: tuple[float, float],
    cfg: IntegratorConfig,
    index: int = 0,
) -> TrialRecord:
    """One forward trial: formula output versus direct integration.  The
    formula runs once for the initial state and once for the nodes."""
    return next(run_trials(setup, [(component_ics, constants)], tspan, cfg, index))


def run_trials(
    setup: RuleSetup,
    candidates: Sequence[tuple[Sequence[Sequence[float]], Sequence[float]]],
    tspan: tuple[float, float],
    cfg: IntegratorConfig,
    first_index: int = 0,
) -> Iterator[TrialRecord]:
    """The records of consecutive trials, numbered from ``first_index``.
    Every candidate's initial state goes through the formula, the states
    it admits are integrated with one ``integrate_batch`` call, and the
    records are then judged one at a time, in order, as they are taken."""
    rule = setup.rule
    # (constants, initial joint state or None, status when rejected)
    starts: list[tuple[list[float], list[float] | None, str | None]] = []
    for component_ics, constants in candidates:
        if len(component_ics) != len(rule.component_dims):
            raise ValueError("one initial condition per component system is required")
        for ic, d in zip(component_ics, rule.component_dims):
            if len(ic) != d:
                raise ValueError("component initial condition has the wrong dimension")
        if len(constants) != rule.constant_count:
            raise ValueError(f"rule takes {rule.constant_count} constants")
        constants = [float(v) for v in constants]
        try:
            x0 = setup.phi([np.array(ic, dtype=float) for ic in component_ics], constants)
        except SuperpositionError as exc:
            starts.append((constants, None, f"rejected:initial-{type(exc).__name__}"))
            continue
        starts.append((constants, list(x0) + [v for ic in component_ics for v in ic], None))

    trajectories = iter(integrate_batch(setup.joint, [y0 for _, y0, _ in starts if y0 is not None], tspan, cfg))
    for index, (constants, y0, status) in enumerate(starts, first_index):
        if y0 is None:
            yield TrialRecord(index, constants, status)
        else:
            yield judge_trial(setup, next(trajectories), constants, index)


def judge_trial(setup: RuleSetup, traj: Trajectory, constants: list[float], index: int) -> TrialRecord:
    """The record of one integrated trial: its status, and for a clean
    trial the largest formula error and the rule's extras."""
    if not traj.completed:
        return TrialRecord(index, constants, f"singular:{traj.event.trigger}")
    blocks = setup.component_blocks(traj)
    # values gone to inf or nan reach the record, never a warning
    with np.errstate(all="ignore"):
        try:
            predicted = setup.formula_pass(blocks, constants)
            reason = setup.guard(traj, blocks, predicted, constants)
            if reason is not None:
                return TrialRecord(index, constants, f"rejected:{reason}")
            extras = setup.extras(traj, blocks, predicted, constants)
        except SuperpositionError as exc:
            return TrialRecord(index, constants, f"rejected:formula-{type(exc).__name__}")
        # np.max keeps a NaN, so a NaN formula value reaches the report
        max_error = float(np.max(np.abs(predicted - traj.states[:, : setup.rule.target_dim])))
    return TrialRecord(index, constants, "ok", max_error, extras)


# a lockstep chunk keeps every row's states until it is judged
_CHUNK_HISTORY_BYTES = 64 * 2**20


def _candidate_records(
    setup: RuleSetup, rng: random.Random, trials: int, tspan: tuple[float, float], cfg: IntegratorConfig
) -> Iterator[TrialRecord]:
    """Records of the candidates the sampler draws from ``rng``, in stream
    order, at most ``60 * trials`` of them.  Each chunk asks for twice the
    clean trials still missing, scaled by the clean share so far, under
    RK4, whose rows share one grid (an extra row is cheap, up to a chunk
    history of ``_CHUNK_HISTORY_BYTES``), and exactly the missing number
    under RKF45, whose lockstep rows each take their own steps, so that a
    row not needed costs its whole integration."""
    budget = 60 * trials
    drawn = clean = 0
    while drawn < budget:
        missing = trials - clean
        size = missing
        if cfg.method == "rk4":
            size = math.ceil(2 * missing * drawn / clean) if clean else 2 * missing
            # span/step + 2 bounds the number of grid nodes, as does max_steps + 1
            nodes = min((tspan[1] - tspan[0]) / cfg.step + 2, cfg.max_steps + 1)
            row_bytes = 8 * setup.joint.dimension * nodes
            size = min(size, max(1, int(_CHUNK_HISTORY_BYTES // row_bytes)))
        candidates = []
        failure = None
        try:
            while len(candidates) < min(size, budget - drawn):
                candidates.append(setup.sample(rng))
        except RuntimeError as exc:
            # a sampler that finds no admissible data fails the loop only
            # when the loop reaches this draw
            failure = exc
        for record in run_trials(setup, candidates, tspan, cfg, drawn):
            clean += record.ok
            yield record
        drawn += len(candidates)
        if failure is not None:
            raise failure


def run_rule_verification(
    rule_id: str,
    params: dict,
    trials: int,
    seed: int,
    tspan: tuple[float, float],
    cfg: IntegratorConfig,
    closure_cap: int = 64,
) -> VerificationReport:
    """Seeded trial loop with rejection resampling, plus the dimension check."""
    setup = build_rule_setup(rule_id, params)
    stream = _candidate_records(setup, random.Random(seed), trials, tspan, cfg)
    records: list[TrialRecord] = []
    clean = singular = rejected = 0
    while clean < trials:
        record = next(stream, None)
        if record is None:
            raise RuntimeError(
                f"rule {rule_id!r}: too many rejected trials ({rejected} rejected, {singular} singular)"
            )
        records.append(record)
        if record.status.startswith("singular"):
            singular += 1
        elif record.status.startswith("rejected"):
            rejected += 1
        else:
            clean += 1

    try:
        dim = closure(setup.condition_generators, closure_cap).size
    except CapExceeded:
        dim = None
    bound = sum(setup.rule.component_dims)
    lie_ok = check_lie_condition(dim, setup.rule.component_dims) if dim is not None else False
    component_dim = None
    if setup.component_generators is not None:
        component_dim = closure(setup.component_generators, closure_cap).size

    clean_records = [r for r in records if r.ok]
    max_error = float(np.max([r.max_error for r in clean_records], initial=0.0))
    max_drift = float(np.max([r.extras.get("wronskian_drift", 0.0) for r in clean_records], initial=0.0))
    return VerificationReport(
        rule_id=rule_id,
        trial_count=clean + singular,
        max_formula_error=max_error,
        max_drift=max_drift,
        singular_trials=singular,
        rejected_trials=rejected,
        closure_dimension=dim,
        dimension_bound=bound,
        lie_condition=lie_ok,
        records=records,
        component_closure_dimension=component_dim,
    )


# ---------------------------------------------------------------------------
# first-integral drift checks
# ---------------------------------------------------------------------------

def riccati_cross_ratio_drift(
    b0: TimeFunction,
    b1: TimeFunction,
    initial: Sequence[float],
    tspan: tuple[float, float],
    cfg: IntegratorConfig,
) -> float:
    """Drift of the cross ratio along four solutions of one Riccati equation."""
    if len(initial) != 4:
        raise ValueError("the cross ratio needs four initial values")
    riccati = member_td_system(2, [b0, b1])
    joint = direct_product([riccati] * 4)
    traj = integrate(joint, list(initial), tspan, cfg)
    if not traj.completed:
        raise RuntimeError(f"integration became singular at t = {traj.event.time}")
    trajectories = [traj.block(i, i + 1) for i in range(4)]

    def psi(row: np.ndarray) -> float:
        y0, y1, y2, y3 = row
        return ((y0 - y1) * (y3 - y2)) / ((y3 - y1) * (y0 - y2))

    return first_integral_drift(trajectories, psi)


def oscillator_wronskian_drift(
    omega: TimeFunction,
    initial: Sequence[Sequence[float]],
    tspan: tuple[float, float],
    cfg: IntegratorConfig,
) -> float:
    """Drift of the Wronskian along two oscillator solutions."""
    if len(initial) != 2 or any(len(ic) != 2 for ic in initial):
        raise ValueError("need two (x, p) initial conditions")
    osc = oscillator_system(omega)
    joint = direct_product([osc, osc])
    traj = integrate(joint, [v for ic in initial for v in ic], tspan, cfg)
    if not traj.completed:
        raise RuntimeError(f"integration became singular at t = {traj.event.time}")
    w = wronskian(traj.block(0, 2), traj.block(2, 4))
    return float(np.max(np.abs(w - w[0])))


# ---------------------------------------------------------------------------
# suite documents
# ---------------------------------------------------------------------------

class SuiteValidationError(ValueError):
    """The suite document is malformed; ``errors`` lists offending paths."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _is_tspan(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(is_number, value)) and value[0] < value[1]


_check_positive = checker(lambda v: is_number(v) and v > 0, "expected a positive number")

_DEFAULT_RK4_STEP = 1e-3
_DRIFT_METHOD = "rkf45"  # drift items integrate with it unless they name a method

# keys shared by the item kinds, checked wherever they appear
_ITEM_KEYS = (
    ("trials", check_integer(1)),
    ("tolerance", check_number),
    ("tspan", checker(_is_tspan, "expected [t0, t1] with t0 < t1")),
    ("method", checker(lambda v: v in ("rkf45", "rk4"), "expected 'rkf45' or 'rk4'")),
    ("step", _check_positive),
    ("rtol", _check_positive),
    ("atol", _check_positive),
    ("seed", check_integer(None)),
    ("cap", check_integer(1)),
    ("wronskian_tolerance", check_number),
    ("deriv_tolerance", check_number),
    ("round_trip_tolerance", check_number),
)


class _Drift(NamedTuple):
    system: str  # the kind of each of the ``copies`` solutions
    copies: int
    measure: Callable[..., float]  # (the kind's time functions in parameter order, initial, tspan, cfg)


_DRIFTS = {
    "riccati-cross-ratio": _Drift("riccati", 4, riccati_cross_ratio_drift),
    "oscillator-wronskian": _Drift("oscillator", 2, oscillator_wronskian_drift),
}


class _Preset(NamedTuple):
    min_order: int | None  # None: the preset takes no order
    generators: Callable[[int | None], list[PolyVectorField]]


_PRESETS = {
    "sl2": _Preset(None, lambda order: [PolyVectorField([Poly.variable(1, 0) ** k]) for k in range(3)]),
    "riccati": _Preset(None, lambda order: member_lie_generators(2)),
    "oscillator": _Preset(None, lambda order: oscillator_system(TimeFunction.constant(1)).constituent_fields()),
    "gl": _Preset(1, lambda order: list(gl_basis(order).fields)),
    "linear-generators": _Preset(2, linear_generators),
    "member": _Preset(2, member_lie_generators),
}


def _kind_params(kind: str, item: dict) -> dict:
    return {key: item[key] for key, _ in SYSTEM_KINDS[kind].params}


def _check_closure_item(item: dict, path: str, errors: list[str]) -> None:
    gens, gens_path = item.get("generators"), f"{path}.generators"
    if isinstance(gens, dict) and "preset" in gens:
        preset = lookup(_PRESETS, gens["preset"], f"{gens_path}.preset", errors)
        if preset is not None and preset.min_order is not None:
            check_keys((("order", check_integer(preset.min_order)),), gens, gens_path, errors)
    else:
        check_keys(GENERATOR_KEYS, gens, gens_path, errors)


def _check_rk4_grid(item: dict, default_method: str, path: str, errors: list[str]) -> None:
    """Under RK4, the item's step, given or default, must divide its tspan
    into a step count a float can hold."""
    step = item.get("step", _DEFAULT_RK4_STEP)
    tspan = item.get("tspan")
    if item.get("method", default_method) != "rk4" or not (_is_tspan(tspan) and is_number(step) and step > 0):
        return
    try:
        rk4_step_count(tspan[0], tspan[1], step)
    except ValueError as exc:
        errors.append(f"{path}.step: {exc}")


def _check_rule_item(item: dict, path: str, errors: list[str]) -> None:
    rule = lookup(_RULES, item.get("rule"), f"{path}.rule", errors)
    if rule is None:
        return
    check_keys(SYSTEM_KINDS[rule.target].params, item, path, errors)
    if item.get("method", rule.methods[0]) not in rule.methods:
        errors.append(f"{path}.method: rule {item['rule']!r} runs only with {', '.join(rule.methods)}")
    _check_rk4_grid(item, rule.methods[0], path, errors)


def _check_drift_item(item: dict, path: str, errors: list[str]) -> None:
    drift = lookup(_DRIFTS, item.get("invariant"), f"{path}.invariant", errors)
    if drift is None:
        return
    _check_rk4_grid(item, _DRIFT_METHOD, path, errors)
    kind = SYSTEM_KINDS[drift.system]
    dim = kind.dimension(check_keys(kind.params, item, path, errors))
    initial = item.get("initial")
    # the states of a scalar system are plain numbers
    states = [[v] if dim == 1 else v for v in initial] if isinstance(initial, list) else []
    if len(states) != drift.copies or not all(
        isinstance(state, list) and len(state) == dim and all(map(is_number, state)) for state in states
    ):
        errors.append(f"{path}.initial: expected {drift.copies} initial states of dimension {dim}")


def _run_closure_item(item: dict) -> dict:
    gens = item["generators"]
    if "preset" in gens:
        generators = _PRESETS[gens["preset"]].generators(gens.get("order"))
    else:
        generators = generator_fields(gens)
    cap = item.get("cap", 64)
    measured: dict = {}
    try:
        basis = closure(generators, cap)
    except CapExceeded as exc:
        measured["cap_exceeded_at"] = exc.dimension
        ok = item.get("expect") == "cap-exceeded"
        return {"measured": measured, "pass": ok}
    measured["dimension"] = basis.size
    sc = structure_constants(basis)
    measured["center_dimension"] = center_dimension(sc)
    measured["killing_determinant"] = str(killing_determinant(sc))
    ok = item.get("expect") != "cap-exceeded"
    if "expect_dim" in item:
        ok = ok and basis.size == item["expect_dim"]
    if "expect_center" in item:
        ok = ok and measured["center_dimension"] == item["expect_center"]
    return {"measured": measured, "pass": ok}


def _item_cfg(item: dict, default_method: str) -> IntegratorConfig:
    method = item.get("method", default_method)
    return IntegratorConfig(
        method=method,
        step=item.get("step", _DEFAULT_RK4_STEP if method == "rk4" else None),
        rtol=item.get("rtol", 1e-10),
        atol=item.get("atol", 1e-12),
    )


def _run_rule_item(item: dict) -> dict:
    rule_id = item["rule"]
    rule = _RULES[rule_id]
    report = run_rule_verification(
        rule_id,
        _kind_params(rule.target, item),
        trials=item["trials"],
        seed=item.get("seed", 0),
        tspan=(item["tspan"][0], item["tspan"][1]),
        cfg=_item_cfg(item, rule.methods[0]),
    )
    tolerance = float(item["tolerance"])
    ok = report.max_formula_error <= tolerance and bool(report.lie_condition)
    clean = [r for r in report.records if r.ok]
    extra_tols = {
        "wronskian_drift": float(item.get("wronskian_tolerance", 1e-8)),
        "deriv_error": float(item.get("deriv_tolerance", 1e-5)),
        "round_trip_error": float(item.get("round_trip_tolerance", 1e-10)),
    }
    keys = dict.fromkeys(key for record in clean for key in record.extras)
    extras_max = {key: float(np.max([r.extras.get(key, 0.0) for r in clean], initial=0.0)) for key in keys}
    for key, value in extras_max.items():
        if key in extra_tols:
            ok = ok and value <= extra_tols[key]
    doc = report.to_doc()
    doc["extras_max"] = extras_max
    return {"measured": doc, "pass": ok}


def _run_drift_item(item: dict) -> dict:
    drift = _DRIFTS[item["invariant"]]
    value = drift.measure(
        *map(parse_timefn, _kind_params(drift.system, item).values()),
        item["initial"],
        (item["tspan"][0], item["tspan"][1]),
        _item_cfg(item, _DRIFT_METHOD),
    )
    return {"measured": {"drift": value}, "pass": value <= float(item["tolerance"])}


def _run_prolongation_item(item: dict) -> dict:
    ok = check_prolongation_identity(item.get("seed", 0), item["trials"])
    return {"measured": {"identity_holds": ok}, "pass": ok}


class _ItemKind(NamedTuple):
    required: tuple[str, ...]  # the shared item keys it needs
    check: Callable[[dict, str, list[str]], None]  # of its own keys
    run: Callable[[dict], dict]


# runners are looked up per call, so a patched module attribute takes effect
_ITEM_KINDS = {
    "closure": _ItemKind((), _check_closure_item, lambda item: _run_closure_item(item)),
    "rule": _ItemKind(("trials", "tolerance", "tspan"), _check_rule_item, lambda item: _run_rule_item(item)),
    "drift": _ItemKind(("tolerance", "tspan"), _check_drift_item, lambda item: _run_drift_item(item)),
    "prolongation": _ItemKind(
        ("trials",), lambda item, path, errors: None, lambda item: _run_prolongation_item(item)
    ),
}


def _validate_item(item, path: str, errors: list[str]) -> None:
    if not isinstance(item, dict):
        errors.append(f"{path}: expected an object")
        return
    kind = lookup(_ITEM_KINDS, item.get("kind"), f"{path}.kind", errors)
    if kind is None:
        return
    for key, check in _ITEM_KEYS:
        if key in item:
            check(item[key], f"{path}.{key}", item, errors)
        elif key in kind.required:
            errors.append(f"{path}.{key}: missing required key")
    kind.check(item, path, errors)


def validate_suite(doc) -> list[str]:
    """Every ``path: message`` error of a suite document; a suite without
    errors runs without raising ValueError or TypeError."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["suite: expected an object"]
    items = doc.get("items")
    if not isinstance(items, list):
        return ["suite.items: expected a list"]
    for i, item in enumerate(items):
        _validate_item(item, f"items[{i}]", errors)
    return errors


def run_suite(doc: dict) -> list[dict]:
    """Execute a validated suite document; returns one report per item."""
    errors = validate_suite(doc)
    if errors:
        raise SuiteValidationError(errors)
    reports = []
    for i, item in enumerate(doc["items"]):
        # the report item repeats the input keys and adds measurements
        result: dict = dict(item)
        result.setdefault("name", f"item-{i}")
        try:
            result.update(_ITEM_KINDS[item["kind"]].run(item))
        except (RuntimeError, SuperpositionError, CapExceeded) as exc:
            result.update({"measured": {"error": str(exc)}, "pass": False})
        except ExponentLimitError as exc:
            result.update({"measured": {"error": f"items[{i}]: {exc}"}, "pass": False})
        reports.append(result)
    return reports


def suite_passed(reports: Sequence[dict]) -> bool:
    return all(r.get("pass") for r in reports)


def default_suite() -> dict:
    """The bundled quick suite: one of each check, all expected to pass."""
    return {
        "items": [
            {
                "kind": "closure",
                "name": "riccati-minimal-algebra",
                "generators": {"preset": "riccati"},
                "expect_dim": 3,
            },
            {
                "kind": "closure",
                "name": "gl2-from-generators",
                "generators": {"preset": "linear-generators", "order": 2},
                "expect_dim": 4,
                "expect_center": 1,
            },
            {
                "kind": "prolongation",
                "name": "bracket-prolongation-identity",
                "trials": 50,
                "seed": 2,
            },
            {
                "kind": "rule",
                "name": "linear-exact",
                "rule": "linear",
                "a": "0",
                "b": "1",
                "trials": 5,
                "seed": 3,
                "tspan": [0.0, 1.0],
                "tolerance": 1e-10,
            },
            {
                "kind": "rule",
                "name": "riccati-order-2",
                "rule": "hierarchy",
                "order": 2,
                "b": ["1", "0"],
                "trials": 5,
                "seed": 5,
                "tspan": [0.0, 0.7],
                "tolerance": 1e-6,
            },
            {
                "kind": "rule",
                "name": "bernoulli-n2",
                "rule": "bernoulli",
                "n": 2,
                "a": "0",
                "b": "1",
                "trials": 5,
                "seed": 7,
                "tspan": [0.0, 0.9],
                "tolerance": 1e-7,
            },
            {
                "kind": "rule",
                "name": "pinney-constant-frequency",
                "rule": "pinney",
                "omega": "1",
                "c": 1.0,
                "trials": 4,
                "seed": 9,
                "tspan": [0.0, 1.0],
                "tolerance": 1e-6,
            },
            {
                "kind": "drift",
                "name": "riccati-cross-ratio-drift",
                "invariant": "riccati-cross-ratio",
                "b0": "1",
                "b1": "0",
                "initial": [0.0, 1.0, -0.5, 2.0],
                "tspan": [0.0, 1.0],
                "tolerance": 1e-7,
            },
            {
                "kind": "drift",
                "name": "oscillator-wronskian-drift",
                "invariant": "oscillator-wronskian",
                "omega": "1 + 0.1*t",
                "initial": [[1.0, 0.0], [0.0, 1.0]],
                "tspan": [0.0, 1.0],
                "tolerance": 1e-8,
            },
        ]
    }
