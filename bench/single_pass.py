"""One pass of one workload in a fresh interpreter.

    python3 bench/single_pass.py --workload NAME --seed N [--trace 0|1]
                                 [--size full|tiny]

Imports liesuper from the checkout's ``src/`` (never from anywhere else),
builds the workload's inputs, runs every job once and prints one JSON
object: ``setup_s`` (import plus inputs), ``wall_s`` and ``cpu_s`` (first
job to last verdict), each scaled to nominal speed by the speed probe
(``reference.Probe``, which runs from the start of the pass to the last
verdict), the probe's mean speed over the jobs (``jobs_scale``), the
seconds the machine kept the pass off its CPU (``off_cpu_s``, raw),
``peak_rss_mb`` (of this process), the outcome of every job and, with
``--trace 1``, the per-layer metrics of the pass, raw (whose spans it
saves to ``bench/out/spans-<workload>-seed<seed>.npz``).
``bench/run.py`` starts one of these per pass, one at a time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(BENCH)]
    import reference

    probe = reference.Probe()
    started = probe.mark()
    probe.start()
    import liesuper

    if Path(liesuper.__file__).resolve().parent != SRC / "liesuper":
        probe.stop()
        print(f"error: liesuper imported from {liesuper.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    jobs = workloads.build(args.workload, args.seed, args.size)
    setup_s, _, _, setup_off_cpu = probe.scaled(started, probe.mark())

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    outcomes, times = [], []
    first = begin = probe.mark()
    for job in jobs:
        outcomes += workloads.run_job(job)
        end = probe.mark()
        times.append(probe.scaled(begin, end))
        begin = end
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "wall_s": sum(t[0] for t in times),
        "cpu_s": sum(t[1] for t in times),
        "peak_rss_mb": peak_rss_mb,
        "jobs_scale": probe.scaled(first, end)[2],
        "off_cpu_s": setup_off_cpu + sum(t[3] for t in times),
        "trace": args.trace,
        "outcomes": [
            {"job": o.job, "exact": o.exact, "problems": o.problems} for o in outcomes
        ],
    }
    if tracer is not None:
        tracer.unpatch()
        result["layers"] = tracing.layer_metrics(tracer)
        (BENCH / "out").mkdir(exist_ok=True)
        tracer.write(str(BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.npz"))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
