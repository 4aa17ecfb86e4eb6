"""Malformed suite, spec and generators files: the CLI exits 1 with an
``error: <path>: ...`` line, and no document makes it raise."""

import contextlib
import copy
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

# (command, document, the path the error must name)
CRASH_INPUTS = {
    "tolerance-string": ("verify", rule_suite(tolerance="abc"), "items[0].tolerance"),
    "bernoulli-n-1": ("verify", rule_suite(rule="bernoulli", n=1), "items[0].n"),
    "gl-order-0": ("verify", closure_suite(generators={"preset": "gl", "order": 0}), "items[0].generators.order"),
    "tspan-string": ("verify", rule_suite(tspan=["a", 1]), "items[0].tspan"),
    "cap-string": ("verify", closure_suite(cap="x"), "items[0].cap"),
    "method-euler": ("verify", rule_suite(method="euler"), "items[0].method"),
    "step-negative": ("verify", rule_suite(method="rk4", step=-1), "items[0].step"),
    "drift-initial-string": ("verify", {"items": [dict(DRIFT, initial=["a", 1.0, 2.0, 3.0])]}, "items[0].initial"),
    "spec-bernoulli-n-negative": ("integrate", {"kind": "bernoulli", "a": "0", "b": "1", "n": -2}, "system.n"),
    "generators-field-number": ("closure", {"dim": 1, "fields": [[3]]}, "generators.fields[0][0]"),
    "timefn-too-deep": ("integrate", {"kind": "oscillator", "omega": DEEP}, "system.omega"),
}

COMMAND_ARGS = {
    "verify": [],
    "integrate": ["--dump-spec"],
    "closure": [],
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


@pytest.mark.parametrize("case", sorted(CRASH_INPUTS))
def test_malformed_input_is_an_input_error(case):
    command, doc, path = CRASH_INPUTS[case]
    code, out, err = run_cli(command, doc, COMMAND_ARGS[command])
    assert code == 1
    assert f"error: {path}: " in err
    assert out == ""


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
