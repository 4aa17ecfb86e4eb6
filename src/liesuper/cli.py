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
from .integrate import IntegratorConfig, integrate, rk4_step_count, write_csv
from .liealg import (
    CapExceeded,
    center_dimension,
    closure,
    killing_determinant,
    structure_constants,
)
from .systems import SpecError, build_rhs, parse_generators, parse_system_spec, spec_to_doc
from .vectorfield import ExponentLimitError
from .verify import default_suite, run_suite, suite_passed, validate_suite

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
    except ExponentLimitError as exc:
        return _fail(f"generators: {exc}")
    sc = structure_constants(basis)
    doc = {
        "dimension": basis.size,
        "basis": [[p.to_text() for p in f.components] for f in basis.fields],
        "structure_constants": [
            {"alpha": a, "beta": b, "gamma": g, "value": str(v)} for a, b, g, v in sc.nonzero()
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
    errors = validate_suite(doc)
    if errors:
        print("\n".join(f"error: {line}" for line in errors), file=sys.stderr)
        return EXIT_INPUT
    if args.seed is not None:
        for item in doc["items"]:
            item["seed"] = args.seed
    reports = run_suite(doc)
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


class _MalformedReport(ValueError):
    """A report value of the wrong type; the message starts with its path."""


_NUMBER = (int, float)
_EXPECTED = {dict: "an object", list: "a list", str: "a string", _NUMBER: "a number"}


def _checked(value, kind, path: str):
    """``value``, which must be an instance of ``kind`` (a key of _EXPECTED)."""
    if not isinstance(value, kind):
        raise _MalformedReport(f"{path}: expected {_EXPECTED[kind]}")
    return value


def _format_closure_report(doc: dict) -> str:
    lines = [f"dimension: {doc['dimension']}"]
    for i, comps in enumerate(_checked(doc.get("basis", []), list, "report.basis")):
        comps = _checked(comps, list, f"report.basis[{i}]")
        lines.append(f"  Y{i}: ({', '.join(map(str, comps))})")
    nonzero = _checked(doc.get("structure_constants", []), list, "report.structure_constants")
    lines.append(f"nonzero structure constants: {len(nonzero)}")
    for i, entry in enumerate(nonzero):
        e = _checked(entry, dict, f"report.structure_constants[{i}]")
        lines.append(f"  [Y{e.get('alpha')}, Y{e.get('beta')}] -> {e.get('value')} * Y{e.get('gamma')}")
    lines.append(f"killing determinant: {doc.get('killing_determinant')}")
    lines.append(f"center dimension: {doc.get('center_dimension')}")
    return "\n".join(lines) + "\n"


def _format_report(doc) -> str:
    """The text ``report`` prints; _MalformedReport for a value it cannot
    format."""
    if "dimension" in _checked(doc, dict, "report") and "items" not in doc:
        return _format_closure_report(doc)
    lines = []
    items = _checked(doc.get("items", []), list, "report.items")
    for i, item in enumerate(items):
        path = f"report.items[{i}]"
        _checked(item, dict, path)
        status = "PASS" if item.get("pass") else "FAIL"
        name = item.get("name", "?")
        kind = _checked(item.get("kind", "?"), str, f"{path}.kind")
        detail = ""
        path += ".measured"
        measured = _checked(item.get("measured", {}), dict, path)
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
            max_error = _checked(measured.get("max_formula_error", math.nan), _NUMBER, f"{path}.max_formula_error")
            detail = (
                f"max_error={max_error:.3e}"
                f" trials={measured.get('trial_count')}"
                f" rejected={measured.get('rejected_trials')}"
                f" singular={measured.get('singular_trials')}"
                f" dim={measured.get('closure_dimension')}<={measured.get('dimension_bound')}"
            )
        elif kind == "drift":
            detail = f"drift={_checked(measured.get('drift', math.nan), _NUMBER, f'{path}.drift'):.3e}"
        elif kind == "prolongation":
            detail = f"identity_holds={measured.get('identity_holds')}"
        if "error" in measured:
            detail = f"error: {measured['error']}"
        lines.append(f"[{status}] {kind:<12} {name}: {detail}")
    counts = _checked(doc.get("counts", {}), dict, "report.counts")
    failed = _checked(counts.get("failed", 0), _NUMBER, "report.counts.failed")
    total = _checked(counts.get("total", len(items)), _NUMBER, "report.counts.total")
    lines.append(f"{total - failed}/{total} items passed")
    return "\n".join(lines) + "\n"


def _cmd_report(args) -> int:
    try:
        text = _format_report(_load_json(args.file))
    except (OSError, json.JSONDecodeError, _MalformedReport) as exc:
        return _fail(str(exc))
    sys.stdout.write(text)
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
    if not all(map(math.isfinite, args.tspan)):
        return _fail(f"--tspan must be finite numbers, got {args.tspan[0]:g} {args.tspan[1]:g}")
    if not args.tspan[0] < args.tspan[1]:
        return _fail(f"--tspan must satisfy T0 < T1, got {args.tspan[0]:g} {args.tspan[1]:g}")
    try:
        cfg = IntegratorConfig(
            method=args.method,
            step=args.step,
            rtol=args.rtol,
            atol=args.atol,
        )
        if cfg.method == "rk4":
            rk4_step_count(args.tspan[0], args.tspan[1], cfg.step)
    except ValueError as exc:
        # the message starts with the offending setting, named as its flag
        return _fail(f"--{exc}")
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
