"""Command-line front end.

Subcommands:
    closure    Lie closure of polynomial fields from a generators file
    hierarchy  print a hierarchy member in canonical text
    verify     run a verification suite (bundled default if no file given)
    integrate  integrate a system spec and dump a CSV trajectory
    basis      print the gl(s) basis fields or the s+1 generators
    report     pretty-print a report document

Exit codes separate "bad input" from "the mathematics said no":
    0  success / all checks passed
    1  input error (parse or validation failure, missing file)
    2  closure cap exceeded
    3  verification failures present
    4  integration hit a singularity

Output files are written atomically (temporary file + rename).  All JSON
documents use sorted keys so byte-level comparisons are meaningful.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile

from .hierarchy import generate_member, gl_basis, linear_generators, member_text
from .integrate import IntegratorConfig, integrate, write_csv
from .liealg import (
    CapExceeded,
    center_dimension,
    closure,
    killing_determinant,
    structure_constants,
)
from .systems import SpecError, build_rhs, parse_generators, parse_system_spec, spec_to_doc
from .verify import SuiteValidationError, default_suite, run_suite, suite_passed

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_VERIFY_FAIL = 3
EXIT_SINGULAR = 4


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def _cmd_closure(args) -> int:
    if args.cap < 1:
        return _fail(f"--cap must be at least 1, got {args.cap}")
    try:
        generators = parse_generators(_load_json(args.file))
    except (OSError, json.JSONDecodeError, SpecError) as exc:
        return _fail(str(exc))
    try:
        basis = closure(generators, args.cap)
    except CapExceeded as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    sc = structure_constants(basis)
    doc = {
        "dimension": basis.size,
        "basis": [[p.to_text() for p in f.components] for f in basis.fields],
        "structure_constants": [
            {"alpha": a, "beta": b, "gamma": g, "value": str(sc.c[a][b][g])}
            for a in range(sc.r)
            for b in range(a + 1, sc.r)
            for g in range(sc.r)
            if sc.c[a][b][g] != 0
        ],
        "killing_determinant": str(killing_determinant(sc)),
        "center_dimension": center_dimension(sc),
    }
    text = _dump_json(doc)
    sys.stdout.write(text)
    if args.out:
        _atomic_write(args.out, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# hierarchy / basis
# ---------------------------------------------------------------------------

def _cmd_hierarchy(args) -> int:
    if not 2 <= args.order <= 8:
        return _fail(f"order {args.order} out of the supported range 2..8")
    print(member_text(generate_member(args.order)))
    return EXIT_OK


def _cmd_basis(args) -> int:
    if args.order < 1 or (args.kind == "generators" and args.order < 2):
        return _fail(f"order {args.order} too small for kind {args.kind!r}")
    if args.kind == "gl":
        basis = gl_basis(args.order)
        s = args.order
        for idx, field in enumerate(basis.fields):
            i, j = divmod(idx, s)
            print(f"X[{i},{j}]: {field.to_text()}")
    else:
        for idx, field in enumerate(linear_generators(args.order)):
            label = f"X[{args.order - 1},{idx}]" if idx < args.order else "Delta"
            print(f"{label}: {field.to_text()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / report
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if args.file is None:
        doc = default_suite()
    else:
        try:
            doc = _load_json(args.file)
        except (OSError, json.JSONDecodeError) as exc:
            return _fail(str(exc))
    if args.seed is not None and isinstance(doc, dict):
        for item in doc.get("items", []):
            if isinstance(item, dict):
                item["seed"] = args.seed
    try:
        reports = run_suite(doc)
    except SuiteValidationError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_INPUT
    passed = suite_passed(reports)
    report_doc = {
        "items": reports,
        "pass": passed,
        "counts": {
            "total": len(reports),
            "failed": sum(1 for r in reports if not r.get("pass")),
        },
    }
    text = _dump_json(report_doc)
    if args.out:
        _atomic_write(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def _format_closure_report(doc) -> str:
    lines = [f"dimension: {doc['dimension']}"]
    for i, comps in enumerate(doc.get("basis", [])):
        lines.append(f"  Y{i}: ({', '.join(comps)})")
    nonzero = doc.get("structure_constants", [])
    lines.append(f"nonzero structure constants: {len(nonzero)}")
    for entry in nonzero:
        lines.append(
            f"  [Y{entry['alpha']}, Y{entry['beta']}] -> {entry['value']} * Y{entry['gamma']}"
        )
    lines.append(f"killing determinant: {doc.get('killing_determinant')}")
    lines.append(f"center dimension: {doc.get('center_dimension')}")
    return "\n".join(lines) + "\n"


def _format_report(doc) -> str:
    if "dimension" in doc and "items" not in doc:
        return _format_closure_report(doc)
    lines = []
    items = doc.get("items", [])
    for item in items:
        status = "PASS" if item.get("pass") else "FAIL"
        name = item.get("name", "?")
        kind = item.get("kind", "?")
        detail = ""
        measured = item.get("measured", {})
        if kind == "closure":
            if "dimension" in measured:
                detail = (
                    f"dim={measured['dimension']}"
                    f" center={measured.get('center_dimension')}"
                    f" killing_det={measured.get('killing_determinant')}"
                )
            else:
                detail = f"cap exceeded at {measured.get('cap_exceeded_at')}"
        elif kind == "rule":
            detail = (
                f"max_error={measured.get('max_formula_error', float('nan')):.3e}"
                f" trials={measured.get('trial_count')}"
                f" rejected={measured.get('rejected_trials')}"
                f" singular={measured.get('singular_trials')}"
                f" dim={measured.get('closure_dimension')}<={measured.get('dimension_bound')}"
            )
        elif kind == "drift":
            detail = f"drift={measured.get('drift', float('nan')):.3e}"
        elif kind == "prolongation":
            detail = f"identity_holds={measured.get('identity_holds')}"
        if "error" in measured:
            detail = f"error: {measured['error']}"
        lines.append(f"[{status}] {kind:<12} {name}: {detail}")
    failed = doc.get("counts", {}).get("failed", 0)
    total = doc.get("counts", {}).get("total", len(items))
    lines.append(f"{total - failed}/{total} items passed")
    return "\n".join(lines) + "\n"


def _cmd_report(args) -> int:
    try:
        doc = _load_json(args.file)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    sys.stdout.write(_format_report(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def _cmd_integrate(args) -> int:
    try:
        raw = _load_json(args.file)
        spec = parse_system_spec(raw)
    except (OSError, json.JSONDecodeError, SpecError) as exc:
        return _fail(str(exc))
    if args.dump_spec:
        sys.stdout.write(_dump_json(spec_to_doc(spec)))
        return EXIT_OK
    if args.x0 is None:
        return _fail("--x0 is required unless --dump-spec is given")
    try:
        x0 = [float(v) for v in args.x0.split(",")]
    except ValueError:
        return _fail(f"could not parse --x0 {args.x0!r}")
    if not all(map(math.isfinite, x0)):
        return _fail(f"--x0 entries must be finite numbers, got {args.x0!r}")
    if len(x0) != spec.dimension:
        return _fail(f"--x0 has {len(x0)} entries, the system has dimension {spec.dimension}")
    if not args.tspan[0] < args.tspan[1]:
        return _fail(f"--tspan must satisfy T0 < T1, got {args.tspan[0]:g} {args.tspan[1]:g}")
    try:
        cfg = IntegratorConfig(
            method=args.method,
            step=args.step,
            rtol=args.rtol,
            atol=args.atol,
        )
    except ValueError as exc:
        return _fail(str(exc))
    rhs = build_rhs(spec)
    trajectory = integrate(rhs, x0, (args.tspan[0], args.tspan[1]), cfg)
    buffer = io.StringIO()
    write_csv(trajectory, buffer)
    if args.out:
        _atomic_write(args.out, buffer.getvalue())
    else:
        sys.stdout.write(buffer.getvalue())
    if not trajectory.completed:
        event = trajectory.event
        print(
            f"singular integration: {event.trigger} near t = {event.time:.6g}",
            file=sys.stderr,
        )
        return EXIT_SINGULAR
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liesuper",
        description="Lie systems, superposition rules, and the Riccati hierarchy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="Lie closure of polynomial fields from a JSON generators file")
    p.add_argument("file", help="JSON file: {dim, fields: [[component, ...], ...]}")
    p.add_argument("--cap", type=int, default=64, help="abort when the dimension exceeds this (default 64)")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("hierarchy", help="print a hierarchy member in canonical text")
    p.add_argument("--order", type=int, required=True, help="member order s, 2..8")
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("file", nargs="?", help="suite JSON (bundled default suite if omitted)")
    p.add_argument("--out", help="write the report JSON here")
    p.add_argument("--seed", type=int, default=None, help="override every item's seed")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("integrate", help="integrate a system spec to CSV")
    p.add_argument("file", help="system spec JSON")
    p.add_argument("--x0", help="comma-separated initial state")
    p.add_argument("--tspan", type=float, nargs=2, default=(0.0, 1.0), metavar=("T0", "T1"))
    p.add_argument("--method", choices=("rkf45", "rk4"), default="rkf45")
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-12)
    p.add_argument("--step", type=float, default=None, help="fixed step for rk4")
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.add_argument("--dump-spec", action="store_true", help="print the normalized spec and exit")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("basis", help="print the gl(s) basis or the s+1 closure generators")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--kind", choices=("gl", "generators"), default="gl")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("report", help="pretty-print a report document")
    p.add_argument("file", help="report JSON produced by 'verify' or 'closure'")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
