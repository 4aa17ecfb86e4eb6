"""Acceptance criteria.

Every test here pins one advertised guarantee of the library at its stated
tolerance and prints a one-line verdict (run with ``pytest -v -s`` to see
the lines as they pass).  Symbolic guarantees are exact; numeric ones
carry explicit tolerances and seeds.
"""

import random
import time
from fractions import Fraction

import numpy as np
from liesuper.cli import main
from liesuper.hierarchy import gl_basis, gl_field, linear_generators, shift_generator
from liesuper.integrate import IntegratorConfig
from liesuper.liealg import (
    LieBasis,
    check_lie_condition,
    closure,
    is_modular_basis,
    killing_determinant,
    structure_constants,
    center_dimension,
)
from liesuper.parsing import parse_poly
from liesuper.superpose import (
    NonGenericNormalization,
    eval_hierarchy_rule,
    solve_hierarchy_constants,
)
from liesuper.vectorfield import PolyVectorField, lie_bracket
from liesuper.verify import (
    build_rule_setup,
    check_prolongation_identity,
    run_rule_verification,
    run_suite,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def VF(*components: str) -> PolyVectorField:
    n = len(components)
    return PolyVectorField([parse_poly(src, n) for src in components])


RKF = IntegratorConfig(rtol=1e-10)


def test_criterion_01_hierarchy_symbolic_exactness(capsys):
    started = time.monotonic()
    # the two classical members, transcribed term by term
    expected = {
        2: "-b0 - b1*y0 - y0^2",
        3: "-3*y0*y1 - y0^3 - b0 - b1*y0 - b2*(y0^2 + y1)",
    }
    ok = True
    for order, src in expected.items():
        names = [f"b{l}" for l in range(order)] + [f"y{i}" for i in range(order - 1)]
        assert main(["hierarchy", "--order", str(order)]) == 0
        lhs, rhs = capsys.readouterr().out.strip().split(" = ")
        ok = ok and lhs == f"y{order - 1}"
        ok = ok and parse_poly(rhs, 2 * order - 1, names) == parse_poly(src, 2 * order - 1, names)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report(1, ok, f"orders 2 and 3 match canonical forms exactly ({elapsed:.2f}s)")


def test_criterion_02_closure_dimensions(capsys):
    started = time.monotonic()
    sl2 = LieBasis([VF("1"), VF("x0"), VF("x0^2")])
    assert closure(list(sl2.fields)).size == 3
    sc = structure_constants(sl2)
    assert sc.bracket_coefficients(0, 1) == (1, 0, 0)
    assert sc.bracket_coefficients(0, 2) == (0, 2, 0)
    assert sc.bracket_coefficients(1, 2) == (0, 0, 1)
    assert killing_determinant(sc) != 0
    dims = {s: closure(linear_generators(s)).size for s in (2, 3, 4)}
    assert dims == {2: 4, 3: 9, 4: 16}
    centers = {s: center_dimension(structure_constants(gl_basis(s))) for s in (2, 3)}
    assert centers == {2: 1, 3: 1}
    elapsed = time.monotonic() - started
    ok = elapsed < 10.0
    with capsys.disabled():
        report(2, ok, f"sl2 constants exact, gl closures {dims}, centers 1 ({elapsed:.2f}s)")


def test_criterion_03_bracket_prolongation_commutation(capsys):
    started = time.monotonic()
    ok = check_prolongation_identity(seed=2024, trials=200)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    with capsys.disabled():
        report(3, ok, f"200 random pairs commute exactly ({elapsed:.2f}s)")


def test_criterion_04_shift_bracket_relations(capsys):
    ok = True
    for s in (2, 3, 4):
        delta = shift_generator(s)
        for i in range(1, s):
            for j in range(s - 1):
                ok = ok and lie_bracket(gl_field(s, i, j), delta) == gl_field(s, i - 1, j) - gl_field(s, i, j + 1)
    with capsys.disabled():
        report(4, ok, "shift-generator bracket relations hold exactly for s <= 4")


def test_criterion_05_riccati_mixed_rule(capsys):
    started = time.monotonic()
    rep = run_rule_verification(
        "hierarchy",
        {"order": 2, "b": ["1 + 0.5*sin(t)", "cos(t)"]},
        trials=20,
        seed=11,
        tspan=(0.0, 1.0),
        cfg=RKF,
    )
    elapsed = time.monotonic() - started
    ok = rep.max_formula_error <= 1e-6 and rep.lie_condition and elapsed < 30.0
    with capsys.disabled():
        report(
            5,
            ok,
            f"order-2 rule: max error {rep.max_formula_error:.2e} <= 1e-6 over 20 trials "
            f"({rep.singular_trials} singular resampled, {elapsed:.1f}s)",
        )


def test_criterion_06_second_order_riccati_rule(capsys):
    started = time.monotonic()
    rep = run_rule_verification(
        "hierarchy",
        {"order": 3, "b": ["1 + 0.5*sin(t)", "cos(t)", "0.3"]},
        trials=20,
        seed=12,
        tspan=(0.0, 1.0),
        cfg=RKF,
    )
    elapsed = time.monotonic() - started
    ok = rep.max_formula_error <= 1e-5 and rep.lie_condition
    with capsys.disabled():
        report(
            6,
            ok,
            f"order-3 rule: max error {rep.max_formula_error:.2e} <= 1e-5 on both components "
            f"({rep.singular_trials} singular resampled, {elapsed:.1f}s)",
        )


def test_criterion_07_constant_round_trip(capsys):
    worst = 0.0
    for s in (2, 3, 4):
        rng = random.Random(700 + s)
        done = 0
        while done < 100:
            jets = [[rng.uniform(-2.0, 2.0) for _ in range(s)] for _ in range(s)]
            if abs(np.linalg.det(np.array(jets).T)) < 0.3:
                continue
            v0 = [rng.uniform(-1.0, 1.0) for _ in range(s - 1)]
            try:
                k = solve_hierarchy_constants(s, jets, v0)
            except NonGenericNormalization:
                continue
            if max(abs(v) for v in k) > 25.0:
                continue
            back = eval_hierarchy_rule(s, jets, k)
            worst = max(worst, max(abs(a - r) for a, r in zip(back, v0)))
            done += 1
    ok = worst <= 1e-12
    with capsys.disabled():
        report(7, ok, f"100 jet sets per order in {{2,3,4}}: worst round-trip error {worst:.2e} <= 1e-12")


def test_criterion_08_pinney_rule(capsys):
    started = time.monotonic()
    worst = {"x": 0.0, "deriv": 0.0, "wronskian": 0.0}
    for omega in ("1", "1 + 0.1*sin(t)"):
        for c in (0.5, 1.0, 2.0):
            rep = run_rule_verification(
                "pinney",
                {"omega": omega, "c": c},
                trials=20,
                seed=int(c * 10),
                tspan=(0.0, 1.0),
                cfg=IntegratorConfig(method="rk4", step=1e-3),
            )
            worst["x"] = max(worst["x"], rep.max_formula_error)
            for record in rep.records:
                if record.ok:
                    worst["deriv"] = max(worst["deriv"], record.extras["deriv_error"])
                    worst["wronskian"] = max(worst["wronskian"], record.extras["wronskian_drift"])
    elapsed = time.monotonic() - started
    ok = worst["x"] <= 1e-6 and worst["deriv"] <= 1e-5 and worst["wronskian"] <= 1e-8
    with capsys.disabled():
        report(
            8,
            ok,
            "both frequencies, c in {0.5,1,2}, 20 trials each: "
            f"x {worst['x']:.2e} <= 1e-6, dx/dt {worst['deriv']:.2e} <= 1e-5, "
            f"Wronskian {worst['wronskian']:.2e} <= 1e-8 ({elapsed:.1f}s)",
        )


def test_criterion_09_bernoulli_rule(capsys):
    worst = 0.0
    for n in (2, 3):
        rep = run_rule_verification(
            "bernoulli",
            {"a": "cos(t)", "b": "0.3", "n": n},
            trials=20,
            seed=90 + n,
            tspan=(0.0, 1.0),
            cfg=RKF,
        )
        worst = max(worst, rep.max_formula_error)
        assert rep.lie_condition
    ok = worst <= 1e-7
    with capsys.disabled():
        report(9, ok, f"n in {{2,3}}, a = cos(t), b = 0.3: max error {worst:.2e} <= 1e-7")


def test_criterion_10_linear_rule(capsys):
    exact = run_rule_verification(
        "linear", {"a": "0", "b": "1"}, trials=10, seed=40, tspan=(0.0, 1.0), cfg=RKF
    )
    generic = run_rule_verification(
        "linear",
        {"a": "0.2*cos(t)", "b": "0.5 + 0.1*sin(t)"},
        trials=10,
        seed=41,
        tspan=(0.0, 1.0),
        cfg=RKF,
    )
    ok = exact.max_formula_error <= 1e-12 and generic.max_formula_error <= 1e-8
    with capsys.disabled():
        report(
            10,
            ok,
            f"exact case {exact.max_formula_error:.2e} <= 1e-12, "
            f"generic coefficients {generic.max_formula_error:.2e} <= 1e-8",
        )


def test_criterion_11_first_integral_drift(capsys):
    # drift items run under RKF45 at the default rtol 1e-10
    span = {"tspan": [0.0, 1.0], "tolerance": 1e-7}
    items = [
        {"kind": "drift", "invariant": "riccati-cross-ratio", "b0": "1", "b1": "0", "initial": [0.0, 1.0, -0.5, 2.0]},
        *(
            {"kind": "drift", "invariant": "oscillator-wronskian", "omega": omega, "initial": [[1.0, 0.0], [0.0, 1.0]]}
            for omega in ("1", "1 + 0.1*t")
        ),
    ]
    reports = run_suite({"items": [{**item, **span} for item in items]})
    cross, *wrons = (report["measured"]["drift"] for report in reports)
    wron = max(wrons)
    ok = all(report["pass"] for report in reports) and cross <= 1e-7 and wron <= 1e-7
    with capsys.disabled():
        report(11, ok, f"cross-ratio drift {cross:.2e} and Wronskian drift {wron:.2e}, both <= 1e-7")


def test_criterion_12_extended_lie_condition(capsys):
    cases = [
        ("linear", {"a": "cos(t)", "b": "1"}),
        ("bernoulli", {"a": "cos(t)", "b": "0.3", "n": 2}),
        ("bernoulli", {"a": "cos(t)", "b": "0.3", "n": 3}),
        ("pinney", {"omega": "1", "c": 1.0}),
        ("riccati-cross-ratio", {"b0": "1", "b1": "0"}),
        ("hierarchy", {"order": 2, "b": ["1", "0"]}),
        ("hierarchy", {"order": 3, "b": ["1", "0", "0"]}),
    ]
    summary = []
    ok = True
    for rule_id, params in cases:
        setup = build_rule_setup(rule_id, params)
        dim = closure(setup.target.constituent_fields()).size
        bound = sum(setup.component_dims)
        ok = ok and check_lie_condition(dim, setup.component_dims)
        summary.append(f"{rule_id}:{dim}<={bound}")
    # the expected values for the two hierarchy orders
    ok = ok and summary[-2].endswith("3<=4") and summary[-1].endswith("8<=9")
    with capsys.disabled():
        report(12, ok, "closure dimensions within bounds: " + ", ".join(summary))


def test_criterion_13_modular_basis_oracle(capsys):
    plane = LieBasis([VF("x0", "0"), VF("0", "x1")])
    line = LieBasis([VF("1"), VF("x0")])
    ok = is_modular_basis(plane, samples=20, seed=0) and not is_modular_basis(line, samples=20, seed=0)
    rng = random.Random(13)
    fields = list(plane.fields)
    for _ in range(50):
        while True:
            m = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                break
        rebased = LieBasis([m[i][0] * fields[0] + m[i][1] * fields[1] for i in range(2)])
        ok = ok and is_modular_basis(rebased, samples=20, seed=0)
    with capsys.disabled():
        report(13, ok, "plane example modular, line example not, 50 re-basings stay modular")
