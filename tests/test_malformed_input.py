"""Malformed suite, spec, generators and report files: the CLI exits 1
with an ``error: <path>: ...`` line, and no document makes it raise."""

import contextlib
import copy
import functools
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesuper.cli import main


def rule_suite(**changes):
    item = {
        "kind": "rule",
        "rule": "linear",
        "a": "0",
        "b": "1",
        "trials": 1,
        "seed": 0,
        "tspan": [0.0, 0.2],
        "tolerance": 1e-6,
    }
    item.update(changes)
    return {"items": [item]}


def closure_suite(**changes):
    return {"items": [dict({"kind": "closure", "generators": {"preset": "sl2"}}, **changes)]}


DRIFT = {
    "kind": "drift",
    "invariant": "riccati-cross-ratio",
    "b0": "1",
    "b1": "0",
    "initial": [0.0, 1.0, -0.5, 2.0],
    "tspan": [0.0, 0.2],
    "tolerance": 1e-6,
}

DEEP = "(" * 3000 + "t" + ")" * 3000  # deeper than the recursion limit

BIG_EXPONENTS = {"dim": 1, "fields": [["x0^3000000000"], ["x0^2000000000"]]}
# M = 2^30 + 1: every bracket the closure needs fits, 3 M included, but its
# fields x0^(2M) d/dx2 and x0^(2M) d/dx3, both brackets, pair to 4 M, past
# the limit, after the closure's pair loop has stopped at dimension 5
M = 2**30 + 1
LATE_BIG_EXPONENTS = {
    "dim": 4,
    "fields": [["0", f"x0^{M}", "0", "0"], ["0", "0", f"x1*x0^{M}", "0"], ["0", "0", "0", f"x1*x0^{M}"]],
}

# (command, document, the path the error must name, extra arguments...)
CRASH_INPUTS = {
    "tolerance-string": ("verify", rule_suite(tolerance="abc"), "items[0].tolerance"),
    "bernoulli-n-1": ("verify", rule_suite(rule="bernoulli", n=1), "items[0].n"),
    "gl-order-0": ("verify", closure_suite(generators={"preset": "gl", "order": 0}), "items[0].generators.order"),
    "tspan-string": ("verify", rule_suite(tspan=["a", 1]), "items[0].tspan"),
    "cap-string": ("verify", closure_suite(cap="x"), "items[0].cap"),
    "method-euler": ("verify", rule_suite(method="euler"), "items[0].method"),
    "step-negative": ("verify", rule_suite(method="rk4", step=-1), "items[0].step"),
    # tspan / step overflows a float, so the RK4 grid has no step count
    "step-subnormal": ("verify", rule_suite(method="rk4", step=1e-320), "items[0].step"),
    "step-default-span-huge": ("verify", rule_suite(method="rk4", tspan=[0.0, 1e306]), "items[0].step"),
    "drift-initial-string": ("verify", {"items": [dict(DRIFT, initial=["a", 1.0, 2.0, 3.0])]}, "items[0].initial"),
    "seed-items-number": ("verify", {"items": 5}, "suite.items", "--seed", "1"),
    "spec-bernoulli-n-negative": ("integrate", {"kind": "bernoulli", "a": "0", "b": "1", "n": -2}, "system.n"),
    "generators-field-number": ("closure", {"dim": 1, "fields": [[3]]}, "generators.fields[0][0]"),
    # exponents that do not fit the packed monomial keys of a bracket
    "generators-bracket-past-exponent-limit": ("closure", BIG_EXPONENTS, "generators"),
    "generators-past-exponent-limit": ("closure", {"dim": 1, "fields": [["x0^5000000000"]]}, "generators"),
    "timefn-too-deep": ("integrate", {"kind": "oscillator", "omega": DEEP}, "system.omega"),
    "report-list": ("report", [], "report"),
    "report-string": ("report", "s", "report"),
    "report-item-number": ("report", {"items": [1]}, "report.items[0]"),
    "report-measured-null": ("report", {"items": [{"kind": "drift", "measured": None}]}, "report.items[0].measured"),
    "report-error-string": (
        "report",
        {"items": [{"kind": "rule", "measured": {"max_formula_error": "x"}}]},
        "report.items[0].measured.max_formula_error",
    ),
}

COMMAND_ARGS = {
    "verify": [],
    "integrate": ["--dump-spec"],
    "closure": [],
    "report": [],
}


def run_cli(command, doc, extra=()):
    """main() on ``doc`` written to a file: (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path, *extra])
    return code, out.getvalue(), err.getvalue()


def written_report(command, doc):
    """The report document ``command --out`` writes for ``doc``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        run_cli(command, doc, ["--out", out])
        with open(out) as handle:
            return json.load(handle)


@pytest.mark.parametrize("case", sorted(CRASH_INPUTS))
def test_malformed_input_is_an_input_error(case):
    command, doc, path, *extra = CRASH_INPUTS[case]
    code, out, err = run_cli(command, doc, COMMAND_ARGS[command] + extra)
    assert code == 1
    assert f"error: {path}: " in err
    assert out == ""


def test_integrate_rk4_step_too_small_for_the_span():
    spec = {"kind": "linear_affine", "a": "1", "b": "0"}
    args = ["--x0", "1", "--tspan", "0", "1", "--method", "rk4", "--step", "1e-320"]
    code, out, err = run_cli("integrate", spec, args)
    assert code == 1
    assert err.startswith("error: --step 1e-320 ")
    assert out == ""


# one bad integration setting: (its key, the suite item's changes, the
# integrate flags); "-1000...0" is -1e308 in a form argparse takes as a value
SETTING_CASES = {
    "step-negative": ("step", {"step": -0.5}, ["--step", "-0.5"]),
    "step-subnormal-rk4": ("step", {"method": "rk4", "step": 1e-320}, ["--method", "rk4", "--step", "1e-320"]),
    "tspan-reversed": ("tspan", {"tspan": [0.2, 0.0]}, ["--tspan", "0.2", "0"]),
    "tspan-length-overflows": ("tspan", {"tspan": [-1e308, 1e308]}, ["--tspan", "-1" + "0" * 308, "1e308"]),
}


@pytest.mark.parametrize("case", sorted(SETTING_CASES))
def test_suites_and_integrate_give_a_bad_setting_one_message(case):
    key, changes, flags = SETTING_CASES[case]
    spec = {"kind": "linear_affine", "a": "0", "b": "1"}
    code, out, err = run_cli("integrate", spec, ["--x0", "1", "--tspan", "0", "0.2", *flags])
    assert code == 1 and out == "" and err.startswith(f"error: --{key} ")
    message = err.removeprefix("error: --")
    assert run_cli("verify", rule_suite(**changes)) == (1, "", f"error: items[0].{key}: {message}")


def test_exponent_limit_error_names_the_limit():
    code, out, err = run_cli("closure", BIG_EXPONENTS)
    assert code == 1 and out == ""
    assert err == "error: generators: exponent 5000000000 is above the packed monomial limit 4294967295 (2^32 - 1)\n"


def test_exponent_limit_in_a_suite_item_is_its_measured_error():
    doc = {"items": closure_suite()["items"] + closure_suite(generators=BIG_EXPONENTS)["items"]}
    code, out, err = run_cli("verify", doc)
    report = json.loads(out)
    assert code == 3 and err == ""
    assert report["items"][0]["pass"] is True
    assert report["items"][1]["pass"] is False
    assert report["items"][1]["measured"]["error"].startswith("items[1]: exponent 5000000000 is above the packed")


def test_exponent_limit_of_a_late_pair_names_the_limit():
    # structure_constants forms that pair, not closure; the message is the same
    code, out, err = run_cli("closure", LATE_BIG_EXPONENTS)
    assert (code, out) == (1, "")
    assert err == "error: generators: exponent 4294967300 is above the packed monomial limit 4294967295 (2^32 - 1)\n"


def test_high_exponents_below_the_limit_still_reach_the_cap():
    code, out, err = run_cli("closure", {"dim": 1, "fields": [["1"], ["x0^40000"]]}, ["--cap", "3"])
    assert (code, out, err) == (2, "", "cap exceeded at dimension 4\n")


# ---------------------------------------------------------------------------
# fuzz: a valid template with one value replaced by random JSON
# ---------------------------------------------------------------------------

TEMPLATES = {
    "verify": {
        "items": [
            rule_suite()["items"][0],
            rule_suite(rule="hierarchy", order=2, b=["1", "0"])["items"][0],
            DRIFT,
            {"kind": "closure", "generators": {"preset": "gl", "order": 2}, "expect_dim": 4},
            {"kind": "closure", "generators": {"dim": 1, "fields": [["x0^2"], ["1"]]}, "cap": 8},
            {"kind": "prolongation", "trials": 2, "seed": 1},
        ]
    },
    "integrate": {"kind": "custom_td", "dim": 1, "terms": [{"coeff": "cos(t)", "field": ["0 - x0^2"]}]},
    "closure": {"dim": 2, "fields": [["0", "x0"], ["x1", "-x0"]]},
}

SPECS = [
    {"kind": "linear_affine", "a": "0", "b": "1"},
    {"kind": "bernoulli", "a": "0", "b": "1", "n": 2},
    {"kind": "riccati", "b0": "1", "b1": "0"},
    {"kind": "oscillator", "omega": "1"},
    {"kind": "pinney", "omega": "1", "c": 1.0},
    {"kind": "linear_homogeneous", "order": 2, "b": ["1", "0"]},
    {"kind": "hierarchy_member", "order": 3, "b": ["1", "0", "0"]},
]

# small numbers keep a mutation that stays valid cheap to run
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(-2, 4)
    | st.sampled_from(["", "t", "x0", "-x0", "1 +", "rk4", "gl", "riccati", "linear", "bernoulli"])
    | st.text(max_size=4)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def value_paths(doc, prefix=()):
    """The key path of every value inside ``doc``, the document included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from value_paths(value, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@st.composite
def mutations(draw, template):
    path = draw(st.sampled_from(list(value_paths(template))))
    return replaced(template, path, draw(JSON))


FUZZ = settings(max_examples=25, deadline=None)


@FUZZ
@given(mutations(TEMPLATES["verify"]))
def test_fuzz_verify(doc):
    assert run_cli("verify", doc)[0] in (0, 1, 2, 3, 4)


@FUZZ
@given(st.sampled_from(SPECS + [TEMPLATES["integrate"]]).flatmap(mutations), st.sampled_from(["1", "1,0"]))
def test_fuzz_integrate(doc, x0):
    assert run_cli("integrate", doc, ["--dump-spec"])[0] in (0, 1)
    assert run_cli("integrate", doc, ["--x0", x0, "--tspan", "0", "0.2"])[0] in (0, 1, 4)


@FUZZ
@given(mutations(TEMPLATES["closure"]))
def test_fuzz_closure(doc):
    assert run_cli("closure", doc, ["--cap", "12"])[0] in (0, 1, 2)


@functools.cache
def real_reports():
    return [written_report("verify", TEMPLATES["verify"]), written_report("closure", TEMPLATES["closure"])]


@FUZZ
@given(st.deferred(lambda: st.sampled_from(real_reports()).flatmap(mutations)))
def test_fuzz_report(doc):
    code, out, err = run_cli("report", doc)
    assert code in (0, 1)
    assert code == 0 or err.startswith("error: report")
