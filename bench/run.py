"""liesuper benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed fixes ``INPUTS`` input sets of the workload, input set ``i``
built from seed ``INPUTS * N + i``.  A run executes passes one after
another, each in a fresh interpreter (``bench/single_pass.py``) on one
input set, cycling through the input sets, until the next pass would end
after ``--seconds``; every input set runs at least once (with
``--trace 1``, at least once untraced and once traced, alternating).
Every pass of an input set must reproduce the first one's exact outputs
(and, traced, its counts); a job that fails its check or does not
reproduce counts as failed.

Each metric is the mean over the input sets of the median over that input
set's passes.  Times are scaled by the speed probe (``reference.py``) to
the machine's nominal speed.  With ``--trace 0`` the last line of stdout
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
reports the per-layer metrics of the traced passes and
``trace.overhead_s``, traced minus untraced ``wall_s``.
The spans of the last traced pass of each input set are saved under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INPUTS = 4
PASS_TIMEOUT_S = 150
# a run starts no pass after this point, whatever --seconds says
LATEST_PASS_START_S = 120


class BenchError(Exception):
    pass


def run_pass(workload: str, input_seed: int, trace: int, size: str) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "single_pass.py"),
        "--workload", workload,
        "--seed", str(input_seed),
        "--trace", str(trace),
        "--size", size,
    ]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass of {workload} ran past {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"a pass of {workload} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["duration_s"] = time.perf_counter() - started
    result["input"] = input_seed
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: int, size: str) -> list[dict]:
    """Passes cycling through the input sets of ``seed`` and, traced,
    alternating untraced and traced: untraced passes of every input set
    first, then traced ones, and so on."""
    modes = (0, 1) if trace else (0,)
    schedule = [(mode, INPUTS * seed + i) for mode in modes for i in range(INPUTS)]
    started = time.perf_counter()
    passes: list[dict] = []
    while True:
        mode, input_seed = schedule[len(passes) % len(schedule)]
        p = run_pass(workload, input_seed, mode, size)
        passes.append(p)
        print(
            f"pass {len(passes)} input {input_seed} trace={mode}: setup {p['setup_s']:.3f} s,"
            f" wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, peak rss {p['peak_rss_mb']:.1f} MB"
            f" (scaled by {p['jobs_scale']:.2f}; {p['off_cpu_s']:.2f} s off CPU; elapsed {p['duration_s']:.2f} s)",
            file=sys.stderr,
        )
        elapsed = time.perf_counter() - started
        estimate = statistics.median(p["duration_s"] for p in passes)
        if len(passes) >= len(schedule) and (elapsed + estimate > seconds or elapsed > LATEST_PASS_START_S):
            return passes


def reproduction_failures(passes: list[dict], count_metrics: list[str]) -> list[str]:
    """Jobs (and traced passes) that did not reproduce the first pass of
    their input set."""
    failures = []
    first: dict[int, dict] = {}
    first_traced: dict[int, dict] = {}
    for i, p in enumerate(passes):
        exact = {o["job"]: o["exact"] for o in p["outcomes"]}
        expected = first.setdefault(p["input"], exact)
        failures += [
            f"pass {i}, {job}: {value} != {expected.get(job)}"
            for job, value in exact.items()
            if value != expected.get(job)
        ]
        if p["trace"]:
            layers = first_traced.setdefault(p["input"], p["layers"])
            moved = [m for m in count_metrics if p["layers"][m] != layers[m]]
            if moved:
                failures.append(f"traced pass {i}: counts changed: {moved}")
    return failures


def tally(passes: list[dict], count_metrics: list[str]) -> tuple[int, int, list[str]]:
    """Jobs attempted, jobs failed, and why: a job fails its check, or a
    pass does not reproduce the first one of its input set."""
    reasons = [
        f"pass {i}, {o['job']}: {problem}"
        for i, p in enumerate(passes)
        for o in p["outcomes"]
        for problem in o["problems"]
    ]
    failed_jobs = {(i, o["job"]) for i, p in enumerate(passes) for o in p["outcomes"] if o["problems"]}
    not_reproduced = reproduction_failures(passes, count_metrics)
    attempted = sum(len(p["outcomes"]) for p in passes)
    failed = min(attempted, len(failed_jobs) + len(not_reproduced))
    return attempted, failed, reasons + not_reproduced


def typical(passes: list[dict], value) -> float:
    """The mean over input sets of the median of ``value(pass)`` over the
    passes of each input set."""
    by_input: dict[int, list[float]] = {}
    for p in passes:
        by_input.setdefault(p["input"], []).append(value(p))
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def summarize(passes: list[dict], spec: dict, trace: int) -> dict:
    # Within an input set, the scaled times of passes agree to a few per
    # cent; most of what is left between seeds is how much work the seed's
    # inputs take, which the mean over input sets evens out.
    untraced = [p for p in passes if not p["trace"]]
    if not trace:
        wanted = spec["end_to_end"]
        values = {m["name"]: typical(untraced, lambda p, k=m["name"]: p[k]) for m in wanted}
    else:
        wanted = spec["per_layer"]
        traced = [p for p in passes if p["trace"]]
        # span times are raw; scale them like the pass's job times
        values = {
            m["name"]: typical(
                traced,
                lambda p, k=m["name"], timed=m["unit"] in ("s", "ms"): p["layers"][k]
                * (p["jobs_scale"] if timed else 1),
            )
            for m in wanted
            if m["name"] != "trace.overhead_s"
        }
        values["trace.overhead_s"] = typical(traced, lambda p: p["wall_s"]) - typical(
            untraced, lambda p: p["wall_s"]
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "liesuper" / "__init__.py").is_file():
        print(f"error: no liesuper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace, args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    count_metrics = [m["name"] for m in spec["per_layer"] if m["unit"] not in ("s", "ms")]
    attempted, failed, reasons = tally(passes, count_metrics)
    for line in reasons:
        print(f"FAILED {line}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} jobs, {failed} failed",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summarize(passes, spec, args.trace),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
