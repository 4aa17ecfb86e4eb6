"""Command-line interface: exit codes, formats, and determinism."""

import json

import pytest

from liesuper.cli import main
from liesuper.hierarchy import member_lie_generators


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


RICCATI_GENERATORS = {
    "dim": 1,
    "fields": [["0 - x0^2"], ["0 - 1"], ["0 - x0"]],
}

GL2_GENERATORS = {
    "dim": 2,
    "fields": [["0", "x0"], ["0", "x1"], ["x1", "x0"]],
}

NON_CLOSING = {"dim": 1, "fields": [["1"], ["x0^3"]]}


class TestClosureCommand:
    def test_riccati_generators(self, tmp_path, capsys):
        path = write_json(tmp_path / "gen.json", RICCATI_GENERATORS)
        assert main(["closure", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimension"] == 3
        assert doc["center_dimension"] == 0
        assert doc["killing_determinant"] != "0"

    def test_gl2_generators(self, tmp_path, capsys):
        path = write_json(tmp_path / "gen.json", GL2_GENERATORS)
        assert main(["closure", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimension"] == 4
        assert doc["center_dimension"] == 1

    def test_cap_exceeded(self, tmp_path, capsys):
        path = write_json(tmp_path / "gen.json", NON_CLOSING)
        assert main(["closure", path, "--cap", "5"]) == 2
        assert "cap exceeded at dimension 6" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "gen.json", {"dim": 1, "fields": [["x0 +"]]})
        assert main(["closure", path]) == 1
        err = capsys.readouterr().err
        assert "fields[0][0]" in err and "position" in err

    def test_missing_file(self, capsys):
        assert main(["closure", "/nonexistent/gen.json"]) == 1

    def test_cap_zero_is_an_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "gen.json", GL2_GENERATORS)
        assert main(["closure", path, "--cap", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--cap" in captured.err
        assert captured.out == ""

    def test_basis_feeds_back(self, tmp_path, capsys):
        # to_text writes leading minus signs, e.g. "-x0^3 - 3*x0*x1"
        fields = [[p.to_text() for p in f.components] for f in member_lie_generators(3)]
        gen = write_json(tmp_path / "gen.json", {"dim": 2, "fields": fields})
        assert main(["closure", gen]) == 0
        first = capsys.readouterr().out
        again = write_json(tmp_path / "basis.json", {"dim": 2, "fields": json.loads(first)["basis"]})
        assert main(["closure", again]) == 0
        assert capsys.readouterr().out == first

    def test_out_file_written_atomically(self, tmp_path, capsys):
        gen = write_json(tmp_path / "gen.json", RICCATI_GENERATORS)
        out = tmp_path / "report.json"
        assert main(["closure", gen, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dimension"] == 3


class TestHierarchyCommand:
    def test_order_two(self, capsys):
        assert main(["hierarchy", "--order", "2"]) == 0
        assert capsys.readouterr().out.strip() == "y1 = -b0 - b1*y0 - y0^2"

    def test_order_three(self, capsys):
        assert main(["hierarchy", "--order", "3"]) == 0
        assert (
            capsys.readouterr().out.strip()
            == "y2 = -b0 - b1*y0 - b2*y1 - 3*y0*y1 - b2*y0^2 - y0^3"
        )

    def test_out_of_range(self, capsys):
        assert main(["hierarchy", "--order", "9"]) == 1


class TestBasisCommand:
    def test_gl_fields(self, capsys):
        assert main(["basis", "--order", "2", "--kind", "gl"]) == 0
        out = capsys.readouterr().out
        assert "X[0,1]: (x1, 0)" in out
        assert out.count("X[") == 4

    def test_generators(self, capsys):
        assert main(["basis", "--order", "2", "--kind", "generators"]) == 0
        out = capsys.readouterr().out
        assert "Delta: (x1, x0)" in out


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert doc["counts"]["failed"] == 0

    def test_zero_tolerance_suite_fails(self, tmp_path, capsys):
        suite = {
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
        path = write_json(tmp_path / "suite.json", suite)
        assert main(["verify", path]) == 3

    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/suite.json"]) == 1

    def test_invalid_suite_lists_paths(self, tmp_path, capsys):
        path = write_json(tmp_path / "suite.json", {"items": [{"kind": "rule", "rule": "nope"}]})
        assert main(["verify", path]) == 1
        assert "items[0].rule" in capsys.readouterr().err


class TestReportCommand:
    def test_pretty_print(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["verify", "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "[PASS]" in text and "items passed" in text

    def test_pretty_print_closure_report(self, tmp_path, capsys):
        gen = write_json(tmp_path / "gen.json", RICCATI_GENERATORS)
        out = tmp_path / "closure.json"
        main(["closure", gen, "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "dimension: 3" in text and "killing determinant" in text


class TestIntegrateCommand:
    def test_oscillator_period(self, tmp_path, capsys):
        spec = write_json(tmp_path / "osc.json", {"kind": "oscillator", "omega": "1"})
        out = tmp_path / "traj.csv"
        code = main(
            ["integrate", spec, "--x0", "1,0", "--tspan", "0", "6.2832", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x0,x1"
        final = [float(v) for v in lines[-1].split(",")]
        # 6.2832 misses a full period by 1.47e-5, and that offset is all
        # that separates the final state from (1, 0)
        assert abs(final[1] - 1.0) <= 1e-9 and abs(final[2]) <= 2e-5

    def test_riccati_blowup_exit_code(self, tmp_path, capsys):
        spec = write_json(tmp_path / "ric.json", {"kind": "riccati", "b0": "1", "b1": "0"})
        code = main(["integrate", spec, "--x0", "0", "--tspan", "0", "1.6"])
        captured = capsys.readouterr()
        assert code == 4
        assert "state-overflow" in captured.err
        assert "1.570" in captured.err or "1.57" in captured.err

    def test_free_particle_constant_column(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "free.json",
            {"kind": "custom_td", "dim": 1, "terms": [{"coeff": "0", "field": ["1"]}]},
        )
        code = main(["integrate", spec, "--x0", "5", "--tspan", "0", "1", "--method", "rk4", "--step", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert values == [5.0] * len(values)

    def test_csv_deterministic(self, tmp_path, capsys):
        spec = write_json(tmp_path / "osc.json", {"kind": "oscillator", "omega": "1 + 0.1*t"})
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["integrate", spec, "--x0", "1,0", "--tspan", "0", "2", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_dump_spec_round_trip(self, tmp_path, capsys):
        doc = {"kind": "hierarchy_member", "order": 3, "b": ["1", "0", "0.3"]}
        spec = write_json(tmp_path / "s.json", doc)
        assert main(["integrate", spec, "--dump-spec"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        second = write_json(tmp_path / "s2.json", dumped)
        assert main(["integrate", second, "--dump-spec"]) == 0
        assert json.loads(capsys.readouterr().out) == dumped

    @pytest.mark.parametrize(
        "doc, flags, first_row",
        [
            ({"kind": "oscillator", "omega": "1"}, ["--x0", "-1.0,0.5"], "0,-1,0.5"),
            ({"kind": "riccati", "b0": "1", "b1": "0"}, ["--x0", "-1e-3"], "0,-0.001"),
            ({"kind": "oscillator", "omega": "1"}, ["--x0", "1,0", "--tspan", "-1e-3", "0"], "-0.001,1,0"),
        ],
    )
    def test_values_may_start_with_a_minus_sign(self, tmp_path, capsys, doc, flags, first_row):
        # argparse alone takes a value such as -1e-3 or -1.0,0.5 for an option
        spec = write_json(tmp_path / "spec.json", doc)
        assert main(["integrate", spec, *flags]) == 0
        assert capsys.readouterr().out.splitlines()[1] == first_row

    def test_x0_dimension_mismatch(self, tmp_path, capsys):
        spec = write_json(tmp_path / "osc.json", {"kind": "oscillator", "omega": "1"})
        assert main(["integrate", spec, "--x0", "1", "--tspan", "0", "1"]) == 1

    def test_non_finite_x0_is_an_input_error(self, tmp_path, capsys):
        spec = write_json(tmp_path / "osc.json", {"kind": "oscillator", "omega": "1"})
        for x0 in ("nan,0", "1,inf"):
            assert main(["integrate", spec, "--x0", x0]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and "--x0" in captured.err
            assert captured.out == ""

    def test_reversed_tspan_is_an_input_error(self, tmp_path, capsys):
        spec = write_json(tmp_path / "ric.json", {"kind": "riccati", "b0": "1", "b1": "0"})
        assert main(["integrate", spec, "--x0", "0", "--tspan", "1", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--tspan" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--method", "rk4", "--step", "nan"], "--step"),
            (["--method", "rk4", "--step", "inf"], "--step"),
            (["--rtol", "nan"], "--rtol"),
            (["--rtol", "inf"], "--rtol"),
            (["--atol", "nan"], "--atol"),
            (["--tspan", "0", "inf"], "--tspan"),
            (["--tspan", "nan", "1"], "--tspan"),
        ],
    )
    def test_non_finite_settings_are_input_errors(self, tmp_path, capsys, flags, named):
        spec = write_json(tmp_path / "osc.json", {"kind": "oscillator", "omega": "1"})
        assert main(["integrate", spec, "--x0", "1,0", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and named in captured.err
        assert captured.out == ""

    def test_invalid_spec(self, tmp_path, capsys):
        spec = write_json(tmp_path / "bad.json", {"kind": "oscillator", "omega": "sin(q)"})
        assert main(["integrate", spec, "--x0", "1,0"]) == 1
        assert "omega" in capsys.readouterr().err
