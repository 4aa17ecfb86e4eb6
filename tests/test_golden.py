"""Golden-file checks for CLI output and report document shapes."""

import json
import pathlib
from fractions import Fraction

import pytest

from liesuper.cli import main
from liesuper.hierarchy import linear_generators, member_lie_generators
from liesuper.verify import default_suite, run_suite

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_hierarchy_order_2_golden(capsys):
    assert main(["hierarchy", "--order", "2"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "hierarchy_order2.txt").read_text()


def test_hierarchy_order_3_golden(capsys):
    assert main(["hierarchy", "--order", "3"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "hierarchy_order3.txt").read_text()


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
