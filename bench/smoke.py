"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/smoke.py

Each workload runs end to end, traced and untraced; a wrong dimension and
a NaN formula error must count as failed jobs; a run that does not
reproduce itself must fail; the benchmark must refuse to report from a
directory that holds no liesuper sources; and the speed probe must read a
busy loop's wall time, less its off-CPU time, as its CPU time.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from liesuper import liealg, verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in ("s", "ms")]

# per-layer metrics each workload must move (the table in README.md)
LAYERS_BY_WORKLOAD = {
    "lie-closure": [
        "liealg.closure.calls",
        "liealg.closure.s",
        "liealg.closure.admit_ratio",
        "liealg.cap_exceeded",
        "vectorfield.lie_bracket.calls",
        "vectorfield.lie_bracket.s",
        "algebra.poly_mul.calls",
        "algebra.poly_mul.s",
        "exactlinalg.calls",
        "exactlinalg.s",
    ],
    "lie-structure": [
        "vectorfield.lie_bracket.calls",
        "algebra.poly_mul.calls",
        "exactlinalg.calls",
        "exactlinalg.s",
        "liealg.structure_constants.s",
        "liealg.killing.s",
        "liealg.center.s",
    ],
    "verify-pinney": [
        "integrate.calls",
        "integrate.s",
        "integrate.self_s",
        "integrate.steps_accepted",
        "vectorfield.rhs_eval.calls",
        "vectorfield.rhs_eval.s",
        "parsing.timefn_eval.calls",
        "parsing.timefn_eval.s",
        "verify.trial.calls",
        "verify.trial_p50_ms",
        "verify.trial_p75_ms",
        "verify.clean_ratio",
    ],
    "verify-hierarchy": [
        "integrate.calls",
        "integrate.s",
        "integrate.self_s",
        "integrate.steps_accepted",
        "hierarchy.p_sequence.calls",
        "hierarchy.p_sequence.s",
        "algebra.diffpoly_eval.calls",
        "algebra.diffpoly_eval.s",
        "superpose.rule_eval.calls",
        "superpose.rule_eval.s",
        "verify.trial.calls",
        "verify.trial_p50_ms",
        "verify.trial_p75_ms",
        "verify.clean_ratio",
    ],
}


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=root,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def in_process_pass(workload: str) -> dict:
    outcomes = workloads.run_jobs(workloads.build(workload, 5, "tiny"))
    return {"input": 5, "trace": 0, "outcomes": [{"job": o.job, "exact": o.exact, "problems": o.problems} for o in outcomes]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_line(bench(ROOT, workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and entry["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_its_layers(workload):
    result = result_line(bench(ROOT, workload, 1))
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name in LAYERS_BY_WORKLOAD[workload]:
        assert result["metrics"][name]["value"] > 0, name
    assert math.isfinite(result["metrics"]["trace.overhead_s"]["value"])
    for i in range(run.INPUTS):
        assert (BENCH / "out" / f"spans-{workload}-seed{run.INPUTS * 5 + i}.npz").is_file()


def test_wrong_dimension_counts_as_failed(monkeypatch):
    honest = liealg.closure

    def drops_a_field(generators, cap=liealg.DEFAULT_CLOSURE_CAP):
        basis = honest(generators, cap)
        return liealg.LieBasis(basis.fields[:-1], dimension=basis.dimension)

    monkeypatch.setattr(liealg, "closure", drops_a_field)
    attempted, failed, reasons = run.tally([in_process_pass("lie-closure")], COUNT_METRICS)
    # gl(3) and member(3) come out one short; the cap family never returns
    assert (attempted, failed) == (3, 2)
    assert sum("dimension: got" in r for r in reasons) == 2
    # a basis short of a field is not closed, so structure_constants raises
    assert run.tally([in_process_pass("lie-structure")], COUNT_METRICS)[:2] == (3, 3)


def test_nan_formula_error_counts_as_failed(monkeypatch):
    honest = verify._run_rule_item

    def nan_error(item):
        result = honest(item)
        result["measured"]["max_formula_error"] = float("nan")
        return result

    monkeypatch.setattr(verify, "_run_rule_item", nan_error)
    for workload in ("verify-pinney", "verify-hierarchy"):
        attempted, failed, reasons = run.tally([in_process_pass(workload)], COUNT_METRICS)
        assert failed == attempted > 0, workload
        assert any("not a finite number" in r for r in reasons)


def test_a_pass_that_does_not_reproduce_fails():
    first = in_process_pass("lie-closure")
    second = json.loads(json.dumps(first))
    second["outcomes"][0]["exact"]["basis"] = "0" * 16
    attempted, failed, reasons = run.tally([first, second], COUNT_METRICS)
    assert (attempted, failed) == (6, 1)
    assert run.tally([first, first], COUNT_METRICS)[1] == 0


def test_refuses_to_report_without_the_library():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(bare, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_probe_scales_a_busy_loop():
    probe = reference.Probe()
    probe.start()
    begin = probe.mark()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.5:
        sum(i * i for i in range(1000))
    wall, cpu, scale, off_cpu = probe.scaled(begin, probe.mark())
    probe.stop()
    assert len(probe.speeds) > 10 and scale > 0 and off_cpu >= 0
    # a single thread that never waits: wall less off-CPU time is CPU time
    assert abs(wall - cpu) < 0.1 * cpu
