"""The verification harness: single trials, trial loops, and suites."""

import dataclasses
import json
import math
import random
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesuper import verify
from liesuper.integrate import IntegratorConfig, integrate, integrate_batch
from liesuper.superpose import eval_pinney_rule
from liesuper.verify import (
    SuiteValidationError,
    TrialRecord,
    build_rule_setup,
    check_prolongation_identity,
    default_suite,
    run_rule_verification,
    run_suite,
    suite_passed,
    validate_suite,
    verify_rule,
)
from liesuper.cli import main
from liesuper.parsing import parse_timefn
from liesuper.systems import SystemSpec, build_rhs
from liesuper.vectorfield import direct_product

CFG = IntegratorConfig(rtol=1e-10)


class TestVerifyRuleExamples:
    def test_linear_exact_case(self):
        # x1(t) = t from x1(0) = 0, x2(t) = 1, k = 3: both sides are t + 3
        setup = build_rule_setup("linear", {"a": "0", "b": "1"})
        record = verify_rule(setup, [[0.0], [1.0]], [3.0], (0.0, 1.0), CFG)
        assert record.ok
        assert record.max_error <= 1e-12

    def test_riccati_from_oscillator_solutions(self):
        # companion solutions (cos, -sin) and (sin, cos); with k = 1 the
        # formula is (cos t - sin t)/(cos t + sin t), a Riccati solution
        setup = build_rule_setup("hierarchy", {"order": 2, "b": ["1", "0"]})
        record = verify_rule(setup, [[1.0, 0.0], [0.0, 1.0]], [1.0], (0.0, 0.7), CFG)
        assert record.ok
        assert record.max_error <= 1e-6
        assert record.extras["round_trip_error"] <= 1e-12

    def test_riccati_closed_form(self):
        from reference_systems import member_first_order_system

        rhs = member_first_order_system(2, [parse_timefn("1"), parse_timefn("0")])
        traj = integrate(rhs, [1.0], (0.0, 0.7), CFG)
        expected = np.tan(np.pi / 4 - traj.times)
        assert np.max(np.abs(traj.states[:, 0] - expected)) <= 1e-9

    def test_bernoulli_closed_form_case(self):
        # x1 = 1/(1-t), x2 = 1, k = 1: the formula gives 1/(2-t)
        setup = build_rule_setup("bernoulli", {"a": "0", "b": "1", "n": 2})
        record = verify_rule(setup, [[1.0], [1.0]], [1.0], (0.0, 0.9), CFG)
        assert record.ok
        assert record.max_error <= 1e-7

    def test_singular_component_is_reported(self):
        # x' = x^2 from x(0) = 2 blows up at t = 0.5, inside the span
        setup = build_rule_setup("bernoulli", {"a": "0", "b": "1", "n": 2})
        record = verify_rule(setup, [[2.0], [1.0]], [0.0], (0.0, 0.9), CFG)
        assert record.status.startswith("singular")

    def test_constant_count_checked(self):
        setup = build_rule_setup("linear", {"a": "0", "b": "1"})
        with pytest.raises(ValueError):
            verify_rule(setup, [[0.0], [1.0]], [3.0, 4.0], (0.0, 1.0), CFG)

    def test_component_dims_checked(self):
        setup = build_rule_setup("hierarchy", {"order": 2, "b": ["1", "0"]})
        with pytest.raises(ValueError):
            verify_rule(setup, [[1.0], [0.0]], [1.0], (0.0, 1.0), CFG)


TIME_DEPENDENT_RULE_PARAMS = {
    "linear": {"a": "sin(t)", "b": "1"},
    "bernoulli": {"a": "cos(t)", "b": "0.5", "n": 3},
    "pinney": {"omega": "1 + 0.1*sin(t)", "c": 2.0},
    "hierarchy": {"order": 4, "b": ["1", "0", "sin(t)", "0"]},
    "riccati-cross-ratio": {"b0": "1", "b1": "sin(t)"},
}

RULE_PARAMS = {
    "linear": {"a": "0", "b": "1"},
    "bernoulli": {"a": "0", "b": "1", "n": 2},
    "pinney": {"omega": "1", "c": 1.0},
    "hierarchy": {"order": 3, "b": ["1", "0", "0"]},
    "riccati-cross-ratio": {"b0": "1", "b1": "0"},
}


class TestRuleShapes:
    """A rule is its setup: the component systems, the target, and as many
    constants as the target has coordinates."""

    def test_hierarchy_order_4(self):
        setup = build_rule_setup("hierarchy", {"order": 4, "b": ["1", "0", "0", "0"]})
        assert setup.component_dims == [4, 4, 4, 4]
        assert setup.target.dimension == 3
        ics, constants = setup.sample(random.Random(0))
        assert [len(ic) for ic in ics] == [4, 4, 4, 4] and len(constants) == 3

    @pytest.mark.parametrize("rule_id", sorted(RULE_PARAMS))
    def test_constant_count_is_the_target_dimension(self, rule_id):
        setup = build_rule_setup(rule_id, RULE_PARAMS[rule_id])
        ics, constants = setup.sample(random.Random(1))
        assert [len(ic) for ic in ics] == setup.component_dims
        assert len(constants) == setup.target.dimension
        assert setup.layout.system.dimension == setup.target.dimension + sum(setup.component_dims)

    def test_copies_of_one_system_interleave(self):
        # coordinate j of copy c at target_dim + j * copies + c; components
        # that differ follow one another
        pinney = build_rule_setup("pinney", RULE_PARAMS["pinney"])
        assert pinney.layout.state([1.0, 2.0], [[3.0, 4.0], [5.0, 6.0]]) == [1.0, 2.0, 3.0, 5.0, 4.0, 6.0]
        linear = build_rule_setup("linear", RULE_PARAMS["linear"])
        assert linear.layout.state([1.0], [[2.0], [3.0]]) == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    @pytest.mark.parametrize("rule_id", sorted(TIME_DEPENDENT_RULE_PARAMS))
    def test_component_blocks_are_the_split_of_the_joint_in_component_order(self, rule_id, method):
        # every coordinate of a batch keeps the bits it has in the joint
        # whose components follow one another, copies or not
        setup = build_rule_setup(rule_id, TIME_DEPENDENT_RULE_PARAMS[rule_id])
        rng = random.Random(2)
        starts = []
        for _ in range(3):
            ics, k = setup.sample(rng)
            starts.append((list(setup.phi([np.array(ic, dtype=float) for ic in ics], k)), ics))
        cfg = IntegratorConfig(method=method, step=1e-2 if method == "rk4" else None)
        batch = integrate_batch(setup.layout.system, [setup.layout.state(x0, ics) for x0, ics in starts], (0.0, 0.3), cfg)
        in_order = direct_product([setup.target, *setup.components])
        x0s = [x0 + [v for ic in ics for v in ic] for x0, ics in starts]
        target = setup.target.dimension
        for traj, want in zip(batch, integrate_batch(in_order, x0s, (0.0, 0.3), cfg)):
            split = np.split(want.states[:, target:], np.cumsum(setup.component_dims)[:-1], axis=1)
            assert (traj.event, traj.times.tobytes()) == (want.event, want.times.tobytes())
            assert traj.states[:, :target].tobytes() == want.states[:, :target].tobytes()
            assert [b.tobytes() for b in setup.layout.blocks(traj)] == [b.tobytes() for b in split]


class TestProlongationIdentity:
    def test_holds_for_many_seeds(self):
        for seed in (0, 1, 2):
            assert check_prolongation_identity(seed, 50)

    def test_equal_fields_give_zero_bracket(self):
        from liesuper.algebra import Poly
        from liesuper.vectorfield import PolyVectorField, diagonal_prolong, lie_bracket
        from liesuper.verify import random_field

        x = random_field(random.Random(4), 2)
        assert lie_bracket(x, x) == PolyVectorField([Poly.zero(2)] * 2)
        assert diagonal_prolong(lie_bracket(x, x), 2) == PolyVectorField([Poly.zero(4)] * 4)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            check_prolongation_identity(0, 0)


class TestRunRuleVerification:
    def test_hierarchy_reports_dimensions(self):
        report = run_rule_verification(
            "hierarchy",
            {"order": 2, "b": ["1", "0"]},
            trials=5,
            seed=21,
            tspan=(0.0, 0.7),
            cfg=CFG,
        )
        assert report.max_formula_error <= 1e-6
        assert report.closure_dimension == 3
        assert report.component_closure_dimension == 4
        assert report.dimension_bound == 4
        assert report.lie_condition

    def test_pinney_closure_cap(self):
        # the target's Laurent fields close to sl(2): a cap of 2 is exceeded
        cfg = IntegratorConfig(method="rk4", step=1e-3)
        for cap, dim, ok in ((2, None, False), (3, 3, True)):
            report = run_rule_verification(
                "pinney", {"omega": "1", "c": 2}, trials=2, seed=1, tspan=(0.0, 0.2), cfg=cfg, closure_cap=cap
            )
            assert (report.closure_dimension, report.lie_condition) == (dim, ok)
            assert report.component_closure_dimension is None

    def test_hierarchy_closure_cap(self):
        # order 3: target dimension 8, companion gl(3) plus its drift 9
        params = {"order": 3, "b": ["1", "0", "0"]}
        report = run_rule_verification(
            "hierarchy", params, trials=2, seed=1, tspan=(0.0, 0.05), cfg=IntegratorConfig(), closure_cap=9
        )
        assert (report.closure_dimension, report.component_closure_dimension, report.lie_condition) == (8, 9, True)
        # a cap between the two dimensions leaves out the component dimension
        report = run_rule_verification(
            "hierarchy", params, trials=2, seed=1, tspan=(0.0, 0.05), cfg=IntegratorConfig(), closure_cap=8
        )
        assert (report.closure_dimension, report.component_closure_dimension, report.lie_condition) == (8, None, True)
        assert "component_closure_dimension" not in report.to_doc()

    @pytest.mark.parametrize("order, cap, dim, lie", [(3, 7, None, False), (9, 100, 80, True)])
    def test_a_rule_item_takes_its_cap(self, order, cap, dim, lie):
        # member(9) has dimension 80, above the default cap of 64
        b = ["1"] + ["0"] * (order - 1)
        item = {"kind": "rule", "rule": "hierarchy", "order": order, "b": b, "trials": 1}
        item.update({"tspan": [0.0, 0.001], "method": "rk4", "step": 0.0005, "tolerance": 1e-6, "cap": cap})
        (report,) = run_suite({"items": [item]})
        measured = report["measured"]
        bound = order * order
        assert (measured["closure_dimension"], measured["dimension_bound"], measured["lie_condition"]) == (dim, bound, lie)
        if not lie:
            assert not report["pass"]

    def test_constant_dependence(self):
        # distinct constants give visibly distinct formula trajectories
        for rule_id, params, ics in (
            ("linear", {"a": "0", "b": "1"}, [[0.5], [1.0]]),
            ("bernoulli", {"a": "0", "b": "1", "n": 2}, [[0.5], [1.0]]),
            ("hierarchy", {"order": 2, "b": ["1", "0"]}, [[1.0, 0.0], [0.0, 1.0]]),
        ):
            setup = build_rule_setup(rule_id, params)
            outputs = []
            for k in (0.25, 0.75):
                record = verify_rule(setup, ics, [k], (0.0, 0.5), CFG)
                assert record.ok
                outputs.append(setup.phi([np.array(ic) for ic in ics], [k]))
            assert max(abs(a - b) for a, b in zip(*outputs)) > 1e-6


LINEAR_ITEM = {
    "kind": "rule",
    "name": "linear",
    "rule": "linear",
    "a": "0",
    "b": "1",
    "trials": 3,
    "seed": 0,
    "tspan": [0.0, 1.0],
    "tolerance": 1e-10,
}


class TestNonFiniteErrors:
    """A NaN error anywhere in a trial reaches the report and fails the item."""

    @staticmethod
    def linear_setup(poison):
        # phi runs once for the initial state, then once on the node arrays,
        # whose output ``poison`` may change in place
        setup = build_rule_setup("linear", {"a": "0", "b": "1"})
        honest = setup.phi

        def phi(blocks, k):
            (x,) = honest(blocks, k)
            if np.ndim(x):
                poison(x)
            return [x]

        return dataclasses.replace(setup, phi=phi)

    @staticmethod
    def fake_trials(monkeypatch, errors, extras):
        # every integrated trial is judged through verify.judge_trial
        errors, extras = iter(errors), iter(extras)

        def fake_judge_trial(setup, traj, constants, index):
            return TrialRecord(index, list(constants), "ok", next(errors), next(extras))

        monkeypatch.setattr(verify, "judge_trial", fake_judge_trial)

    def test_nan_after_t0(self):
        def poison(x):
            x[1:] = math.nan

        record = verify_rule(self.linear_setup(poison), [[0.0], [1.0]], [3.0], (0.0, 1.0), CFG)
        assert math.isnan(record.max_error)

    def test_nan_at_one_node(self):
        def poison(x):
            assert len(x) > 2
            x[len(x) // 2] = math.nan

        record = verify_rule(self.linear_setup(poison), [[0.0], [1.0]], [3.0], (0.0, 1.0), CFG)
        assert math.isnan(record.max_error)

    def test_nan_trial_error_fails_the_item(self, monkeypatch):
        self.fake_trials(monkeypatch, [1e-12, math.nan, 1e-12], [{}] * 3)
        (item,) = run_suite({"items": [dict(LINEAR_ITEM)]})
        assert math.isnan(item["measured"]["max_formula_error"])
        assert item["pass"] is False

    def test_nan_extra_fails_the_item(self, monkeypatch):
        extras = [{"round_trip_error": v} for v in (0.0, math.nan, 0.0)]
        self.fake_trials(monkeypatch, [0.0] * 3, extras)
        (item,) = run_suite({"items": [dict(LINEAR_ITEM)]})
        assert math.isnan(item["measured"]["extras_max"]["round_trip_error"])
        assert item["pass"] is False


class TestOneFormulaPass:
    """The formula runs once per node; guards and extras read that pass."""

    @staticmethod
    def formula_calls(monkeypatch, formula, shape, rule_id, params, ics, k, tspan):
        """The ``shape`` of the first argument of each ``verify.<formula>``
        call in one rk4 trial, and the number of nodes of that trial."""
        calls, trajectories = [], []
        honest_rule, honest_batch = getattr(verify, formula), verify.integrate_batch

        def counted_rule(first, *args):
            calls.append(shape(first))
            return honest_rule(first, *args)

        def kept_batch(*args):
            trajectories.extend(honest_batch(*args))
            return trajectories

        monkeypatch.setattr(verify, formula, counted_rule)
        monkeypatch.setattr(verify, "integrate_batch", kept_batch)
        cfg = IntegratorConfig(method="rk4", step=1e-3)
        record = verify_rule(build_rule_setup(rule_id, params), ics, k, tspan, cfg)
        assert record.ok
        (traj,) = trajectories
        return calls, len(traj.times)

    def test_pinney_trial_evaluates_the_rule_once_per_node(self, monkeypatch):
        pinney = ("pinney", {"omega": "1", "c": 1.0}, [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], (0.0, 0.2))
        calls, nodes = self.formula_calls(monkeypatch, "eval_pinney_rule", lambda xi1: np.shape(xi1[0]), *pinney)
        # once for the initial state, then once for all nodes together
        assert calls == [(), (nodes,)]

    @pytest.mark.parametrize(
        "formula, rule_id, params, ics, k, tspan",
        [
            ("eval_linear_rule", "linear", {"a": "0", "b": "1"}, [[0.0], [1.0]], [3.0], (0.0, 1.0)),
            ("eval_bernoulli_rule", "bernoulli", {"a": "0", "b": "1", "n": 2}, [[1.0], [1.0]], [1.0], (0.0, 0.9)),
            (
                "eval_riccati_cross_ratio",
                "riccati-cross-ratio",
                {"b0": "1", "b1": "0"},
                [[0.0], [0.5], [1.0]],
                [2.0],
                (0.0, 0.3),
            ),
        ],
    )
    def test_formula_runs_twice_per_trial(self, monkeypatch, formula, rule_id, params, ics, k, tspan):
        calls, nodes = self.formula_calls(monkeypatch, formula, np.shape, rule_id, params, ics, k, tspan)
        assert calls == [(), (nodes,)]

    def test_pinney_extras_match_the_per_node_loop(self):
        setup = build_rule_setup("pinney", {"omega": "1 + 0.1*sin(t)", "c": 2.0})
        cfg = IntegratorConfig(method="rk4", step=1e-3)
        ics, k = [[1.0, 0.2], [-0.3, 1.1]], [1.5, 1.2]
        record = verify_rule(setup, ics, k, (0.0, 0.3), cfg)
        assert record.ok
        # reference: the formula and the five-point stencil node by node
        y0 = setup.layout.state(setup.phi([np.array(ic) for ic in ics], k), ics)
        traj = integrate(setup.layout.system, y0, (0.0, 0.3), cfg)
        values = [eval_pinney_rule(a, b, k[0], k[1], 2.0) for a, b in zip(*setup.layout.blocks(traj))]
        h = traj.times[1] - traj.times[0]
        deriv_error = 0.0
        for i in range(2, len(values) - 2):
            x = [v[0] for v in values[i - 2 : i + 3]]
            fd = (x[0] - 8 * x[1] + 8 * x[3] - x[4]) / (12 * h)
            deriv_error = max(deriv_error, abs(fd - values[i][1]))
        assert record.extras["deriv_error"] == deriv_error
        assert record.max_error == max(abs(v[j] - row[j]) for v, row in zip(values, traj.states) for j in (0, 1))

    def test_trials_reuse_the_joint_system(self, monkeypatch):
        setup = build_rule_setup("hierarchy", {"order": 2, "b": ["1", "0"]})

        def unexpected(*args):
            raise AssertionError("the joint system is built with the setup")

        monkeypatch.setattr(verify, "direct_product", unexpected)
        record = verify_rule(setup, [[1.0, 0.0], [0.0, 1.0]], [1.0], (0.0, 0.7), CFG)
        assert record.ok

    def test_negative_c_rejects_the_trials_the_formula_cannot_follow(self):
        # with c < 0 the inner radicand turns negative along some trials;
        # those trials are rejected and resampled, not fatal to the item
        item = {
            "kind": "rule",
            "rule": "pinney",
            "omega": "1",
            "c": -1.0,
            "trials": 4,
            "seed": 1,
            "tspan": [0.0, 1.0],
            "tolerance": 1e-6,
        }
        (report,) = run_suite({"items": [item]})
        measured = report["measured"]
        assert "error" not in measured
        assert report["pass"] is True
        statuses = [t["status"] for t in measured["trials"]]
        assert "rejected:formula-RadicandNegative" in statuses
        assert statuses.count("ok") == 4


def sequential_records(rule_id, params, trials, seed, tspan, cfg):
    """The trial loop one candidate at a time: the reference for the
    chunked, batched loop of run_rule_verification."""
    setup = build_rule_setup(rule_id, params)
    rng = random.Random(seed)
    records, clean = [], 0
    while clean < trials:
        ics, constants = setup.sample(rng)
        records.append(verify_rule(setup, ics, constants, tspan, cfg, index=len(records)))
        clean += records[-1].ok
    return records


RULE_CASES = {
    "pinney": ({"omega": "1 + 0.1*sin(t)", "c": 2.0}, (0.0, 0.5)),
    "linear": ({"a": "cos(t)", "b": "1 + t"}, (0.0, 1.0)),
    "hierarchy": ({"order": 3, "b": ["1", "0.5*t", "0"]}, (0.0, 0.3)),
    "bernoulli": ({"a": "cos(t)", "b": "0.5", "n": 3}, (0.0, 0.5)),
    "riccati-cross-ratio": ({"b0": "1 + 0.5*cos(t)", "b1": "sin(t)"}, (0.0, 0.5)),
}


def assert_records_match(records, reference):
    """The same records, errors and extras bit for bit: a lockstep row has
    the float operations of ``integrate`` on that row alone."""
    assert len(records) == len(reference)
    for got, want in zip(records, reference):
        assert (got.index, got.constants, got.status) == (want.index, want.constants, want.status)
        assert (got.max_error, got.extras) == (want.max_error, want.extras)


# rules whose trials run under RKF45 with time-dependent coefficients
RKF45_RULE_CASES = [
    ("hierarchy", {"order": 2, "b": ["sin(t)", "1"]}, (0.0, 0.5)),
    ("hierarchy", {"order": 3, "b": ["1", "sin(t)", "0"]}, (0.0, 0.3)),
    ("hierarchy", {"order": 4, "b": ["1", "0", "sin(t)", "0"]}, (0.0, 0.1)),
    ("linear", {"a": "cos(t)", "b": "1 + t"}, (0.0, 1.0)),
    ("bernoulli", {"a": "cos(t)", "b": "0.5", "n": 2}, (0.0, 0.9)),
    ("bernoulli", {"a": "cos(t)", "b": "0.5", "n": 3}, (0.0, 0.5)),
    ("riccati-cross-ratio", {"b0": "1 + 0.5*cos(t)", "b1": "sin(t)"}, (0.0, 0.5)),
]


class TestBatchedTrialLoop:
    @settings(max_examples=12, deadline=None)
    @given(
        rule_id=st.sampled_from(sorted(RULE_CASES)),
        method=st.sampled_from(["rk4", "rkf45"]),
        trials=st.integers(1, 6),
        seed=st.integers(0, 10_000),
    )
    def test_records_match_the_sequential_loop(self, rule_id, method, trials, seed):
        if rule_id == "pinney":
            method = "rk4"
        params, tspan = RULE_CASES[rule_id]
        cfg = IntegratorConfig(method=method, step=1e-2 if method == "rk4" else None)
        report = run_rule_verification(rule_id, params, trials, seed, tspan, cfg)
        assert_records_match(report.records, sequential_records(rule_id, params, trials, seed, tspan, cfg))

    @pytest.mark.parametrize("rule_id, params, tspan", RKF45_RULE_CASES)
    @pytest.mark.parametrize("seed", [11, 12])
    def test_rkf45_records_match_the_sequential_loop(self, rule_id, params, tspan, seed):
        # eight trials: the first chunk's rows step in lockstep
        report = run_rule_verification(rule_id, params, 8, seed, tspan, CFG)
        reference = sequential_records(rule_id, params, 8, seed, tspan, CFG)
        assert_records_match(report.records, reference)

    @pytest.mark.parametrize(
        "rule_id, params, tspan, method",
        [
            ("hierarchy", {"order": 4, "b": ["1", "0", "sin(t)", "0"]}, (0.0, 0.1), "rkf45"),
            ("bernoulli", {"a": "cos(t)", "b": "0.5", "n": 3}, (0.0, 0.5), "rk4"),
        ],
    )
    def test_a_record_does_not_depend_on_its_batch(self, rule_id, params, tspan, method):
        # the trials in lockstep blocks, RKF45 rows stepping together while
        # two or more are live, against each candidate integrated on its own
        cfg = IntegratorConfig(method=method, step=1e-2 if method == "rk4" else None)
        records = run_rule_verification(rule_id, params, 8, 11, tspan, cfg).records
        assert_records_match(records, sequential_records(rule_id, params, 8, 11, tspan, cfg))

    def test_chunks_keep_their_state_history_bounded(self, monkeypatch):
        sizes = []
        honest = verify.integrate_batch

        def counted(rhs, x0s, tspan, cfg):
            sizes.append(len(x0s))
            return honest(rhs, x0s, tspan, cfg)

        # a row keeps its grid's 101 nodes of the 6-dimensional joint
        # Pinney system, 4848 bytes, three of which fit this budget
        monkeypatch.setattr(verify, "_CHUNK_HISTORY_BYTES", 3 * 4896)
        monkeypatch.setattr(verify, "integrate_batch", counted)
        params, tspan = {"omega": "1", "c": 1.0}, (0.0, 1.0)
        cfg = IntegratorConfig(method="rk4", step=1e-2)
        report = run_rule_verification("pinney", params, 5, 3, tspan, cfg)
        assert sizes and max(sizes) == 3
        reference = sequential_records("pinney", params, 5, 3, tspan, cfg)
        assert [r.status for r in report.records] == [r.status for r in reference]

    def test_chunk_budget_counts_at_most_max_steps_nodes(self, monkeypatch):
        sizes = []
        honest = verify.integrate_batch

        def counted(rhs, x0s, tspan, cfg):
            sizes.append(len(x0s))
            return honest(rhs, x0s, tspan, cfg)

        # a row keeps STEP_LIMIT + 1 = 51 nodes of the 6-dimensional joint
        # Pinney system, 2448 bytes, though the span holds a billion steps;
        # every trial runs out of steps, so all 60 * 5 draws are chunked.
        # The chunk budget reads verify's name, the integrators their module's.
        monkeypatch.setattr(verify, "STEP_LIMIT", 50)
        monkeypatch.setattr(sys.modules["liesuper.integrate"], "STEP_LIMIT", 50)
        monkeypatch.setattr(verify, "_CHUNK_HISTORY_BYTES", 3 * 2448)
        monkeypatch.setattr(verify, "integrate_batch", counted)
        cfg = IntegratorConfig(method="rk4", step=1e-9)
        with pytest.raises(RuntimeError, match=r"\(0 rejected, 300 singular\)"):
            run_rule_verification("pinney", {"omega": "1", "c": 1.0}, 5, 3, (0.0, 1.0), cfg)
        assert sizes == [3] * 100

    def test_chunk_budget_counts_the_grid_nodes(self, monkeypatch):
        sizes = []
        honest = verify.integrate_batch

        def counted(rhs, x0s, tspan, cfg):
            sizes.append(len(x0s))
            return honest(rhs, x0s, tspan, cfg)

        # span 1 at step 1e-3 is a grid of 1,001 nodes, and the budget holds
        # exactly three rows of them: a budget of 1,002 nodes a row fits two
        params, tspan = {"omega": "1", "c": 1.0}, (0.0, 1.0)
        dimension = build_rule_setup("pinney", params).layout.system.dimension
        monkeypatch.setattr(verify, "_CHUNK_HISTORY_BYTES", 3 * 8 * dimension * 1001)
        monkeypatch.setattr(verify, "integrate_batch", counted)
        cfg = IntegratorConfig(method="rk4", step=1e-3)
        report = run_rule_verification("pinney", params, 3, 3, tspan, cfg)
        assert sizes[0] == 3 and max(sizes) == 3
        reference = sequential_records("pinney", params, 3, 3, tspan, cfg)
        assert [r.status for r in report.records] == [r.status for r in reference]

    def test_attempt_cap_is_kept(self):
        # every trial runs into the pole of omega at t = 0.05; the loop
        # gives up after 60 attempts per requested trial, as one at a time
        with pytest.raises(RuntimeError, match=r"\(0 rejected, 120 singular\)"):
            run_rule_verification(
                "pinney",
                {"omega": "1/(t - 0.05)", "c": 1.0},
                trials=2,
                seed=0,
                tspan=(0.0, 0.1),
                cfg=IntegratorConfig(method="rk4", step=1e-3),
            )

    def test_sampler_failure_is_raised_where_the_loop_reaches_it(self, monkeypatch):
        setup = build_rule_setup("linear", {"a": "0", "b": "1"})
        honest = setup.sample
        draws = []

        def sample(rng):
            draws.append(None)
            if len(draws) == 3:
                raise RuntimeError("no admissible initial data")
            return honest(rng)

        monkeypatch.setattr(verify, "build_rule_setup", lambda rule_id, params: dataclasses.replace(setup, sample=sample))
        # an rk4 chunk draws ahead of the two trials it needs; the failed
        # third draw is never reached
        rk4 = IntegratorConfig(method="rk4", step=1e-2)
        report = run_rule_verification("linear", {"a": "0", "b": "1"}, 2, 0, (0.0, 1.0), rk4)
        assert [r.status for r in report.records] == ["ok", "ok"]
        draws.clear()
        with pytest.raises(RuntimeError, match="no admissible initial data"):
            run_rule_verification("linear", {"a": "0", "b": "1"}, 3, 0, (0.0, 1.0), rk4)


class TestNoLeakedWarnings:
    ITEM = {
        "kind": "rule",
        "rule": "pinney",
        # omega^2 = e^700: each stage's arithmetic overflows, and every trial
        # ends in an rhs-error found by replaying its step row by row
        "omega": "exp(350)",
        "c": 1.0,
        "trials": 1,
        "seed": 4,
        "tspan": [0.0, 1.0],
        "tolerance": 1e-6,
    }

    def test_pinney_item_with_rhs_errors_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            setup = build_rule_setup("pinney", {"omega": self.ITEM["omega"], "c": 1.0})
            rng = random.Random(4)
            candidates = [setup.sample(rng) for _ in range(5)]
            cfg = IntegratorConfig(method="rk4", step=1e-3)
            records = list(verify.run_trials(setup, candidates, (0.0, 1.0), cfg))
            (report,) = run_suite({"items": [self.ITEM]})
        assert [r.status for r in records] == ["singular:rhs-error"] * 5
        assert report["pass"] is False
        assert "(0 rejected, 60 singular)" in report["measured"]["error"]


class TestTimeDependentRkf45Suite:
    PATH = Path(__file__).parent / "data" / "rkf45_time_dependent_suite.json"

    def test_suite_passes_without_any_warning(self):
        # per-row times reach each time coefficient as a float, and the
        # lockstep steps warn nothing
        doc = json.loads(self.PATH.read_text())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = run_suite(doc)
        rules = ["linear", "bernoulli", "hierarchy", "riccati-cross-ratio", "bernoulli"]
        assert [r["rule"] for r in reports] == rules
        assert suite_passed(reports)
        assert all(r["measured"]["trial_count"] == 6 for r in reports)


class TestRk4LockstepSuite:
    PATH = Path(__file__).parent / "data" / "rk4_lockstep_suite.json"

    def test_suite_passes_without_any_warning(self):
        # every item integrates its trials as one RK4 lockstep batch
        doc = json.loads(self.PATH.read_text())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = run_suite(doc)
        assert [r["rule"] for r in reports] == ["pinney"] * 4 + ["hierarchy"]
        assert all(r["method"] == "rk4" for r in reports)
        assert suite_passed(reports)
        assert all(r["measured"]["trial_count"] == 10 for r in reports)


def drift_item(invariant: str, initial, **keys) -> dict:
    params = {"riccati-cross-ratio": {"b0": "1", "b1": "0"}, "oscillator-wronskian": {"omega": "1"}}[invariant]
    return {"kind": "drift", "invariant": invariant, **params, "initial": initial, "tspan": [0.0, 1.0], **keys}


class TestDriftItems:
    def test_wronskian_of_basis_solutions_is_one(self):
        # (cos t, -sin t) and (sin t, cos t) at three times
        t = np.array([0.0, 0.4, 1.3])
        blocks = [np.column_stack([np.cos(t), -np.sin(t)]), np.column_stack([np.sin(t), np.cos(t)])]
        assert np.max(np.abs(verify._wronskian(blocks) - 1.0)) <= 1e-15

    def test_copies_interleave_in_the_joint(self):
        # the drift's copies take the layout of a rule's components
        osc = build_rhs(SystemSpec("oscillator", {"omega": "1"}))
        layout = verify.joint_layout([osc, osc])
        assert layout.state([], [[1.0, 2.0], [3.0, 4.0]]) == [1.0, 3.0, 2.0, 4.0]

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    @pytest.mark.parametrize(
        "spec, initial",
        [
            (SystemSpec("riccati", {"b0": "cos(t)", "b1": "0.3"}), [[0.0], [1.0], [-0.5], [2.0]]),
            (SystemSpec("oscillator", {"omega": "1 + 0.1*sin(t)"}), [[1.0, 0.5], [-0.3, 1.0]]),
        ],
    )
    def test_copies_keep_the_bits_they_have_one_after_another(self, spec, initial, method):
        # RKF45's error norm is a max over coordinates, and each coordinate
        # keeps its float operations, so the interleaved copies take the
        # same steps as copies that follow one another
        system = build_rhs(spec)
        layout = verify.joint_layout([system] * len(initial))
        cfg = IntegratorConfig(method=method, step=1e-2 if method == "rk4" else None)
        traj = integrate(layout.system, layout.state([], initial), (0.0, 1.0), cfg)
        want = integrate(direct_product([system] * len(initial)), [v for ic in initial for v in ic], (0.0, 1.0), cfg)
        assert (traj.event, traj.meta, traj.times.tobytes()) == (want.event, want.meta, want.times.tobytes())
        split = np.split(want.states, len(initial), axis=1)
        assert [b.tobytes() for b in layout.blocks(traj)] == [b.tobytes() for b in split]

    def test_coincident_solutions_fail_without_a_warning(self, tmp_path, capsys):
        # y0 = y2 makes the cross ratio's denominator 0 at every node
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"items": [drift_item("riccati-cross-ratio", [0.0, 1.0, 0.0, 2.0], tolerance=1e-7)]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(suite)]) == 3
        out, err = capsys.readouterr()
        [report] = json.loads(out)["items"]
        assert math.isnan(report["measured"]["drift"]) and report["pass"] is False
        assert err == ""

    def test_a_singular_integration_is_reported(self):
        # y' = -1 - y^2 from y = -30 leaves the bounds within t = 0.04
        [report] = run_suite({"items": [drift_item("riccati-cross-ratio", [0.0, 1.0, -0.5, -30.0], tolerance=1e-7)]})
        assert report["measured"]["error"].startswith("integration became singular at t = 0.03")
        assert report["pass"] is False


class TestSuite:
    def test_empty_suite(self):
        assert run_suite({"items": []}) == []

    def test_default_suite_passes(self):
        reports = run_suite(default_suite())
        assert suite_passed(reports)
        assert len(reports) == len(default_suite()["items"])

    def test_report_items_echo_input_keys(self):
        doc = default_suite()
        reports = run_suite(doc)
        for item, rep in zip(doc["items"], reports):
            for key, value in item.items():
                assert rep[key] == value
            assert "measured" in rep and "pass" in rep

    def test_validation_errors_name_paths(self):
        doc = {
            "items": [
                {"kind": "closure", "generators": {"dim": 2, "fields": [["x0"]]}},
                {"kind": "rule", "rule": "nope"},
            ]
        }
        errors = validate_suite(doc)
        assert any("items[0].generators.fields[0]" in e for e in errors)
        assert any("items[1].rule" in e for e in errors)
        with pytest.raises(SuiteValidationError):
            run_suite(doc)

    def test_zero_tolerance_fails(self):
        doc = {
            "items": [
                {
                    "kind": "drift",
                    "invariant": "oscillator-wronskian",
                    "omega": "1",
                    "initial": [[1.0, 0.0], [0.0, 1.0]],
                    "tspan": [0.0, 1.0],
                    "tolerance": 0.0,
                }
            ]
        }
        reports = run_suite(doc)
        assert not suite_passed(reports)

    def test_cap_exceeded_expectation(self):
        doc = {
            "items": [
                {
                    "kind": "closure",
                    "generators": {"dim": 1, "fields": [["1"], ["x0^3"]]},
                    "cap": 10,
                    "expect": "cap-exceeded",
                }
            ]
        }
        reports = run_suite(doc)
        assert suite_passed(reports)
        assert reports[0]["measured"]["cap_exceeded_at"] == 11

    def test_closure_presets(self):
        doc = {
            "items": [
                {"kind": "closure", "generators": {"preset": "sl2"}, "expect_dim": 3},
                {"kind": "closure", "generators": {"preset": "oscillator"}, "expect_dim": 3},
                {"kind": "closure", "generators": {"preset": "member", "order": 3}, "expect_dim": 8},
                {"kind": "closure", "generators": {"preset": "gl", "order": 3}, "expect_dim": 9},
                {
                    "kind": "closure",
                    "generators": {"preset": "linear-generators", "order": 3},
                    "expect_dim": 9,
                    "expect_center": 1,
                },
            ]
        }
        reports = run_suite(doc)
        assert suite_passed(reports)

    def test_pinney_method_validation(self):
        doc = {
            "items": [
                {
                    "kind": "rule",
                    "rule": "pinney",
                    "omega": "1",
                    "c": 1.0,
                    "method": "rkf45",
                    "trials": 2,
                    "tspan": [0.0, 1.0],
                    "tolerance": 1e-6,
                }
            ]
        }
        errors = validate_suite(doc)
        assert any("method" in e for e in errors)

    def test_pinney_without_admissible_draws_fails_the_item(self):
        # with |W| >= 0.3 and k1, k2 <= 2, no draw meets 4*k1*k2 - c*W^2 >= 0.05
        # once c is above about 178; the sampler gives up instead of hanging
        doc = {
            "items": [
                {
                    "kind": "rule",
                    "rule": "pinney",
                    "omega": "1",
                    "c": 200,
                    "trials": 2,
                    "tspan": [0.0, 1.0],
                    "tolerance": 1e-6,
                }
            ]
        }
        assert validate_suite(doc) == []
        start = time.perf_counter()
        reports = run_suite(doc)
        assert time.perf_counter() - start < 1.0
        assert reports[0]["pass"] is False
        assert "no admissible initial data" in reports[0]["measured"]["error"]
