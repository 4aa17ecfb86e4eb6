"""Golden-file checks for CLI output and report document shapes."""

import json
import pathlib
from fractions import Fraction

import pytest

from liesuper.cli import main
from liesuper.hierarchy import linear_generators, member_lie_generators
from liesuper.verify import default_suite, run_suite

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("order", [2, 3, 5, 8])
def test_hierarchy_text_golden(order, capsys):
    assert main(["hierarchy", "--order", str(order)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"hierarchy_order{order}.txt").read_text()


def test_default_report_shape_golden():
    reports = run_suite(default_suite())
    shape = [
        {"name": r["name"], "kind": r["kind"], "measured_keys": sorted(r["measured"].keys())}
        for r in reports
    ]
    expected = json.loads((GOLDEN / "default_report_shape.json").read_text())
    assert shape == expected


# member(3) scaled by 2/3, so that its structure constants are not integers
CLOSURE_INPUTS = {
    "closure_gl3.json": linear_generators(3),
    "closure_member3_scaled.json": [f * Fraction(2, 3) for f in member_lie_generators(3)],
}


@pytest.mark.parametrize("golden", sorted(CLOSURE_INPUTS))
def test_closure_golden(golden, tmp_path, capsys):
    fields = CLOSURE_INPUTS[golden]
    doc = {"dim": fields[0].dimension, "fields": [[p.to_text() for p in f.components] for f in fields]}
    path = tmp_path / "generators.json"
    path.write_text(json.dumps(doc))
    assert main(["closure", str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_closure_golden_of_scaled_member5(capsys):
    """member(5) scaled by 3/7, dimension 24, from the committed generators file."""
    data = pathlib.Path(__file__).parent / "data" / "closure_member5_scaled_generators.json"
    assert main(["closure", str(data)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "closure_member5_scaled.json").read_text()


def test_closure_golden_of_conjugated_gl6(capsys):
    """gl(6) from its 7 generators, conjugated by a matrix of determinant 2:
    closure's pair loop stops before its last pair, and
    structure_constants brackets the rest."""
    data = pathlib.Path(__file__).parent / "data" / "closure_gl6_conjugated_generators.json"
    assert main(["closure", str(data)]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "closure_gl6_conjugated.json").read_text()
    doc = json.loads(out)
    assert (doc["dimension"], doc["killing_determinant"], doc["center_dimension"]) == (36, "0", 1)


def test_closure_golden_of_pinney_generators(capsys):
    """The Milne-Pinney fields at c = 2, (x1, 2 x0^-3) and (0, -x0), close to
    sl(2): [X0, X1] = X2, [X0, X2] = 2 X0, [X1, X2] = -2 X1."""
    data = pathlib.Path(__file__).parent / "data" / "closure_pinney_generators.json"
    assert main(["closure", str(data)]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "closure_pinney_generators.json").read_text()
    doc = json.loads(out)
    constants = {(c["alpha"], c["beta"], c["gamma"]): c["value"] for c in doc["structure_constants"]}
    assert doc["dimension"] == 3 and constants == {(0, 1, 2): "1", (0, 2, 0): "2", (1, 2, 1): "-2"}
    assert (doc["killing_determinant"], doc["center_dimension"]) == ("-128", 0)


def test_dump_spec_echoes_the_time_function_strings(capsys):
    """--dump-spec prints the normalized document, its time functions the
    strings of the input file."""
    data = pathlib.Path(__file__).parent / "data" / "dump_spec_timefns.json"
    assert main(["integrate", str(data), "--dump-spec"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "dump_spec_timefns.json").read_text()


# the Pinney trajectory the CLI printed when the system was a hand-written
# function; the decomposed Laurent field must print it byte for byte
PINNEY_SPEC = {"kind": "pinney", "omega": "1 + 0.1*sin(t)", "c": 2}
PINNEY_METHODS = {"rk4": ["--method", "rk4", "--step", "0.01"], "rkf45": []}


@pytest.mark.parametrize("method", sorted(PINNEY_METHODS))
def test_pinney_integrate_golden(method, tmp_path, capsys):
    spec = tmp_path / "pinney.json"
    spec.write_text(json.dumps(PINNEY_SPEC))
    argv = ["integrate", str(spec), "--x0", "1.0,0.5", "--tspan", "0", "2", *PINNEY_METHODS[method]]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"pinney_integrate_{method}.csv").read_text()


def test_custom_td_laurent_integrate_golden(capsys):
    """A custom_td spec with a Laurent term and a time coefficient, the
    Pinney equation written out term by term, integrated under RKF45."""
    data = pathlib.Path(__file__).parent / "data" / "custom_td_laurent.json"
    assert main(["integrate", str(data), "--x0", "1.0,0.5", "--tspan", "0", "2"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "custom_td_laurent_integrate_rkf45.csv").read_text()


# the text ``liesuper report`` prints for a verify report and a closure report
REPORT_GOLDENS = {
    "verify_default_suite.json": "report_verify_default_suite.txt",
    "closure_gl3.json": "report_closure_gl3.txt",
}


@pytest.mark.parametrize("source", sorted(REPORT_GOLDENS))
def test_report_text_golden(source, capsys):
    assert main(["report", str(GOLDEN / source)]) == 0
    assert capsys.readouterr().out == (GOLDEN / REPORT_GOLDENS[source]).read_text()


# the reports of the suites whose rule trials run in lockstep on bound
# kernels: RK4 trials on their shared grid, and RKF45 trials at per-row
# times; the hierarchy suite also pins the compiled P sums and the order-4
# and order-5 joint kernels, and the singular suite RK4 rows that leave the
# bounds (6 and 30 singular:state-overflow trials)
LOCKSTEP_SUITES = ["rk4_lockstep_suite", "rkf45_time_dependent_suite", "hierarchy_rkf45_suite", "rk4_singular_suite"]


@pytest.mark.parametrize("suite", LOCKSTEP_SUITES)
def test_lockstep_verify_report_golden(suite, capsys):
    data = pathlib.Path(__file__).parent / "data" / f"{suite}.json"
    assert main(["verify", str(data)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"verify_{suite}.json").read_text()


def test_drift_verify_report_golden(capsys):
    """First-integral drifts along copies integrated as one diagonal
    prolongation: the cross ratio under RKF45 and RK4, and the Wronskian
    with a time-dependent and a constant frequency."""
    data = pathlib.Path(__file__).parent / "data" / "drift_suite.json"
    assert main(["verify", str(data)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify_drift_suite.json").read_text()


def test_default_verify_report_golden(capsys):
    """The default suite's report, byte for byte, not only its shape."""
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify_default_suite.json").read_text()
