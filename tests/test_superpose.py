"""Rule evaluators: values, error cases, and structural properties."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from liesuper.algebra import Poly
from liesuper.hierarchy import p_sequence
from liesuper.superpose import (
    CoincidentSolutions,
    DegenerateWronskian,
    DomainError,
    NonGenericNormalization,
    RadicandNegative,
    SingularDenominator,
    SingularJetMatrix,
    SuperpositionError,
    combined_solution,
    eval_bernoulli_rule,
    eval_hierarchy_rule,
    eval_linear_rule,
    eval_pinney_rule,
    eval_riccati_cross_ratio,
    solve_hierarchy_constants,
)


def scalar_bernoulli_rule(x1: float, x2: float, k: float, n: int) -> float:
    """The Bernoulli rule at one point in Python floats: the reference for
    node arrays."""
    e = 1 - n

    def ipow(x: float) -> float:
        if x == 0.0 and e < 0:
            raise DomainError("zero solution value with a negative power")
        return x**e

    base = ipow(x1) + k * ipow(x2)
    if e % 2 == 0:
        if base <= 0.0:
            raise DomainError(f"base {base} is not positive; no real even root")
        return base ** (1.0 / e)
    if base == 0.0:
        if e < 0:
            raise DomainError("zero base with a negative root exponent")
        return 0.0
    return math.copysign(abs(base) ** (1.0 / e), base)


def scalar_cross_ratio(y1: float, y2: float, y3: float, k: float) -> float:
    """The cross-ratio rule at one point in Python floats: the reference
    for node arrays."""
    if y1 == y2 or y1 == y3 or y2 == y3:
        raise CoincidentSolutions("particular solutions must be pairwise distinct")
    den = (y3 - y2) + k * (y1 - y3)
    if den == 0.0:
        raise SingularDenominator("cross-ratio denominator vanishes")
    return (y1 * (y3 - y2) + k * y2 * (y1 - y3)) / den


NUMBER = r"-?\d[\d.e+-]*"


def check_node_arrays(rule, reference, columns, args, same):
    """The rule on node arrays (one per argument in ``columns``) against
    ``reference`` node by node: the first failing node's error class and
    message, or else ``same(got, want, node)`` at every node."""
    want = []
    for node in zip(*columns):
        try:
            want.append(reference(*node, *args))
        except SuperpositionError as exc:
            with pytest.raises(SuperpositionError) as raised:
                rule(*map(np.array, columns), *args)
            assert type(raised.value) is type(exc)
            # a number in the message may differ by an ulp
            assert re.sub(NUMBER, "#", str(raised.value)) == re.sub(NUMBER, "#", str(exc))
            return
    got = rule(*map(np.array, columns), *args)
    assert got.shape == (len(want),)
    for node, (g, w) in enumerate(zip(got.tolist(), want)):
        assert same(g, w, node), (node, g, w)


def bit_identical(got, want, node):
    return np.float64(got).tobytes() == np.float64(want).tobytes()


magnitudes = st.floats(1e-3, 2.0)
values = st.one_of(magnitudes, magnitudes.map(lambda v: -v))
# coincident values, zero values and vanishing sums are common among these
few_values = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
few_constants = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


def nodes(count, value):
    return st.integers(1, 12).flatmap(lambda n: st.tuples(*[st.lists(value, min_size=n, max_size=n)] * count))


class TestNodeArrays:
    """Linear, Bernoulli and cross-ratio formulas on node arrays against
    their scalar formulas."""

    @given(nodes(2, values), values)
    def test_linear_is_bit_identical(self, columns, k):
        check_node_arrays(eval_linear_rule, lambda x1, x2, k: x1 + k * x2, columns, (k,), bit_identical)

    @given(st.one_of(nodes(3, values), nodes(3, few_values)), st.one_of(values, few_constants))
    def test_cross_ratio_is_bit_identical(self, columns, k):
        check_node_arrays(eval_riccati_cross_ratio, scalar_cross_ratio, columns, (k,), bit_identical)

    @given(
        st.one_of(nodes(2, values), nodes(2, few_values)),
        st.one_of(values, few_constants),
        st.sampled_from([0, 2, 3, 4]),
    )
    def test_bernoulli_within_four_ulp_of_its_terms(self, columns, k, n):
        # numpy's x**e can differ from Python's by one ulp; that moves the
        # sum by ulps of its terms and the root by as much relative to it
        e = 1 - n

        def same(got, want, node):
            terms = abs(columns[0][node] ** e) + abs(k * columns[1][node] ** e)
            base = columns[0][node] ** e + k * columns[1][node] ** e
            if want == 0.0:
                return got == 0.0
            return abs(got - want) <= 4 * math.ulp(1.0) * abs(want) * terms / abs(base)

        check_node_arrays(eval_bernoulli_rule, scalar_bernoulli_rule, columns, (k, n), same)


class TestLinearRule:
    def test_zero_constant_returns_particular(self):
        assert eval_linear_rule(3.0, 2.0, 0.0) == 3.0

    def test_pure_homogeneous(self):
        assert eval_linear_rule(0.0, 1.0, 5.0) == 5.0

    def test_arithmetic(self):
        assert eval_linear_rule(1.5, -2.0, 2.0) == -2.5


class TestBernoulliRule:
    def test_zero_constant_identity(self):
        for n in (2, 3, -1):
            assert eval_bernoulli_rule(1.7, 0.9, 0.0, n) == pytest.approx(1.7)

    def test_n2_arithmetic(self):
        assert eval_bernoulli_rule(1.0, 1.0, 1.0, 2) == pytest.approx(0.5)

    def test_n3_arithmetic(self):
        assert eval_bernoulli_rule(2.0, 1.0, 0.5, 3) == pytest.approx(0.75 ** -0.5)

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            eval_bernoulli_rule(1.0, 1.0, 0.5, 1)

    def test_even_root_needs_positive_base(self):
        # n = 3 gives exponent 1/(1-n) = -1/2: an even root
        with pytest.raises(DomainError):
            eval_bernoulli_rule(1.0, 1.0, -2.0, 3)

    def test_odd_root_takes_signed_branch(self):
        # n = 2: x = (1/x1 + k/x2)^(-1), fine for negative bases
        assert eval_bernoulli_rule(1.0, 1.0, -2.0, 2) == pytest.approx(-1.0)

    def test_zero_with_negative_power(self):
        # a DomainError, not the ZeroDivisionError of Python's 0.0 ** -1
        with pytest.raises(DomainError, match="zero solution value"):
            eval_bernoulli_rule(0.0, 1.0, 1.0, 2)
        with pytest.raises(DomainError, match="zero solution value"):
            eval_bernoulli_rule(1.0, 0.0, 1.0, 4)


class TestPinneyRule:
    def test_collapsed_radicand(self):
        x, p = eval_pinney_rule((1.0, 0.0), (0.0, 1.0), 0.5, 0.5, 0.0)
        assert x == pytest.approx(1.0)

    def test_degenerate_wronskian(self):
        with pytest.raises(DegenerateWronskian):
            eval_pinney_rule((1.0, 0.5), (1.0, 0.5), 1.0, 1.0, 1.0)

    def test_unit_constants(self):
        x, p = eval_pinney_rule((1.0, 0.0), (0.0, 1.0), 1.0, 1.0, 1.0)
        assert x == pytest.approx(math.sqrt(2.0))

    def test_negative_radicand(self):
        with pytest.raises(RadicandNegative):
            eval_pinney_rule((1.0, 0.0), (0.0, 1.0), 0.1, 0.1, 10.0)

    def test_node_arrays_match_the_scalar_formula(self):
        rng = random.Random(8)
        nodes = [[rng.uniform(-1.5, 1.5) for _ in range(4)] for _ in range(50)]
        columns = np.array(nodes).T
        x, p = eval_pinney_rule(columns[0:2], columns[2:4], 1.3, 0.9, 0.2)
        for i, (x1, p1, x2, p2) in enumerate(nodes):
            assert (x[i], p[i]) == eval_pinney_rule((x1, p1), (x2, p2), 1.3, 0.9, 0.2)

    def test_node_arrays_raise_the_first_failing_node_error(self):
        good, dependent, negative = (1.0, 0.0, 0.0, 1.0), (1.0, 0.5, 1.0, 0.5), (1.0, 0.0, 0.0, 10.0)
        for nodes, error in (
            ([good, dependent, negative, good], DegenerateWronskian),
            ([good, negative, dependent, good], RadicandNegative),
        ):
            columns = np.array(nodes).T
            with pytest.raises(error):
                eval_pinney_rule(columns[0:2], columns[2:4], 1.0, 1.0, 1.0)


class TestHierarchyRule:
    def test_order_two_quotient(self):
        assert eval_hierarchy_rule(2, [(1.0, 0.0), (0.0, 1.0)], [2.0]) == [pytest.approx(0.5)]

    def test_order_three_unit_jets(self):
        out = eval_hierarchy_rule(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [1.0, 1.0])
        assert out == [pytest.approx(1.0), pytest.approx(0.0)]

    def test_singular_denominator(self):
        with pytest.raises(SingularDenominator):
            eval_hierarchy_rule(2, [(1.0, 0.0), (-1.0, 1.0)], [1.0])

    def test_constants_combine_as_a_left_fold(self):
        # c0 = 1e16 + 1 - 1e16 + 1: a left fold loses the first 1 and gives
        # 1.0, a compensated sum (Python's float sum from 3.12 on) gives 2.0
        values, k = [1e16, 1.0, -1e16, 1.0], [1.0, 1.0, 1.0]
        assert math.fsum(values) == 2.0
        assert combined_solution(k, values) == 1.0
        jets = [[v, 0.0, 0.0, 0.0] for v in values]
        jets[3][1] = 3.0
        assert eval_hierarchy_rule(4, jets, k)[0] == 3.0

    def test_projective_invariance(self):
        # evaluating through unnormalized coefficients kappa gives the same
        # output for kappa and lambda*kappa; the normalized evaluator is the
        # kappa_s = 1 representative of that class
        rng = random.Random(77)
        for _ in range(25):
            s = rng.choice((2, 3, 4))
            jets = [[rng.uniform(-2, 2) for _ in range(s)] for _ in range(s)]
            kappa = [rng.uniform(0.5, 2.0) for _ in range(s)]
            lam = rng.choice((-3.0, 0.25, 7.0))

            def unnormalized(scale):
                c = [
                    sum(scale * kappa[a] * jets[a][j] for a in range(s))
                    for j in range(s)
                ]
                z = [cj / c[0] for cj in c]
                yjet = []
                for l in range(1, s):
                    tail = p_sequence(s - 1)[l] - Poly.variable(s - 1, l - 1)
                    yjet.append(z[l] - float(tail.evaluate(yjet + [0.0] * (s - l))))
                return yjet

            base = unnormalized(1.0)
            scaled = unnormalized(lam)
            normalized = eval_hierarchy_rule(
                s, jets, [kappa[a] / kappa[s - 1] for a in range(s - 1)]
            )
            assert scaled == pytest.approx(base, rel=1e-9)
            assert normalized == pytest.approx(base, rel=1e-9)


def poly_hierarchy_rule(s, jets, k):
    """The hierarchy rule through ``Poly.evaluate`` and its Fraction
    coefficients, one point at a time: the reference for the float terms."""
    c = []
    for j in range(s):
        total = 0.0
        for a in range(s - 1):
            total = total + k[a] * jets[a][j]
        c.append(total + jets[s - 1][j])
    z = [cj / c[0] for cj in c]
    ps = p_sequence(s - 1)
    yjet = []
    for l in range(1, s):
        yjet.append(z[l] - float(ps[l].evaluate(yjet + [0.0] * (s - l))))
    return yjet


def random_hierarchy_point(rng, s, nodes=None):
    """Random jets and constants; each jet entry an array of ``nodes``
    values unless ``nodes`` is None."""

    def draw():
        if nodes is None:
            return rng.uniform(-1.5, 1.5)
        return np.array([rng.uniform(-1.5, 1.5) for _ in range(nodes)])

    jets = [[draw() for _ in range(s)] for _ in range(s)]
    return jets, [rng.uniform(-1.5, 1.5) for _ in range(s - 1)]


class TestHierarchyRuleFloatTerms:
    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_equals_the_poly_evaluation(self, s):
        rng = random.Random(500 + s)
        for _ in range(50):
            jets, k = random_hierarchy_point(rng, s)
            assert eval_hierarchy_rule(s, jets, k) == poly_hierarchy_rule(s, jets, k)
            # numpy scalars, as the trial loop's initial states pass them
            jets64 = [np.array(jet) for jet in jets]
            assert eval_hierarchy_rule(s, jets64, k) == poly_hierarchy_rule(s, jets64, k)

    @pytest.mark.parametrize("s", [2, 3, 5])
    def test_node_arrays_give_each_node_its_point_value(self, s):
        rng = random.Random(600 + s)
        jets, k = random_hierarchy_point(rng, s, nodes=40)
        out = eval_hierarchy_rule(s, jets, k)
        assert len(out) == s - 1 and all(v.shape == (40,) for v in out)
        for node in range(40):
            point = [[float(v[node]) for v in jet] for jet in jets]
            want = eval_hierarchy_rule(s, point, k)
            assert [float(v[node]) for v in out] == want

    def test_node_arrays_raise_where_c0_vanishes(self):
        # c0 = k x0_(1) + x0_(2) vanishes at the middle node only
        jets = [
            [np.array([1.0, 1.0, 1.0]), np.zeros(3)],
            [np.array([0.5, -1.0, 0.5]), np.ones(3)],
        ]
        with pytest.raises(SingularDenominator):
            eval_hierarchy_rule(2, jets, [1.0])
        assert eval_hierarchy_rule(2, [[j[::2] for j in jet] for jet in jets], [1.0])[0].shape == (2,)


class TestSolveHierarchyConstants:
    def test_order_two_round_trip(self):
        k = solve_hierarchy_constants(2, [(1.0, 0.0), (0.0, 1.0)], [2.0])
        assert k == [pytest.approx(0.5)]
        assert eval_hierarchy_rule(2, [(1.0, 0.0), (0.0, 1.0)], k) == [pytest.approx(2.0)]

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_equals_the_poly_chi(self, s):
        # chi through Poly.evaluate and its Fraction coefficients
        rng = random.Random(700 + s)
        ps = p_sequence(s - 1)
        for _ in range(40):
            jets, _ = random_hierarchy_point(rng, s)
            v0 = [rng.uniform(-1.5, 1.5) for _ in range(s - 1)]
            chi = [float(ps[l].evaluate(v0)) for l in range(s)]
            kappa = np.linalg.solve(np.array(jets).T, np.array(chi))
            want = [float(kappa[a] / kappa[s - 1]) for a in range(s - 1)]
            assert solve_hierarchy_constants(s, jets, v0) == want

    def test_dependent_jets(self):
        with pytest.raises(SingularJetMatrix):
            solve_hierarchy_constants(2, [(1.0, 0.0), (2.0, 0.0)], [2.0])

    def test_order_three_unit_jets(self):
        k = solve_hierarchy_constants(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [1.0, 0.0])
        assert k == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_non_generic_normalization(self):
        # chi = (1, 2) is a multiple of the first jet alone
        with pytest.raises(NonGenericNormalization):
            solve_hierarchy_constants(2, [(0.5, 1.0), (0.0, 1.0)], [2.0])

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_round_trip_randomized(self, s):
        rng = random.Random(300 + s)
        done = 0
        while done < 40:
            jets = [[rng.uniform(-2, 2) for _ in range(s)] for _ in range(s)]
            if abs(np.linalg.det(np.array(jets).T)) < 0.3:
                continue
            v0 = [rng.uniform(-1, 1) for _ in range(s - 1)]
            try:
                k = solve_hierarchy_constants(s, jets, v0)
            except NonGenericNormalization:
                continue
            if max(abs(v) for v in k) > 20:
                continue
            back = eval_hierarchy_rule(s, jets, k)
            assert back == pytest.approx(v0, abs=1e-12)
            done += 1


class TestCrossRatioRule:
    def test_zero_constant_selects_first(self):
        assert eval_riccati_cross_ratio(0.3, 1.0, 2.0, 0.0) == pytest.approx(0.3)

    def test_unit_constant(self):
        assert eval_riccati_cross_ratio(0.0, 1.0, 2.0, 1.0) == pytest.approx(2.0)

    def test_coincident_solutions(self):
        with pytest.raises(CoincidentSolutions):
            eval_riccati_cross_ratio(1.0, 1.0, 2.0, 0.5)

    def test_singular_denominator(self):
        # (y3 - y2) + k (y1 - y3) = 1 - 2k vanishes at k = 1/2
        with pytest.raises(SingularDenominator):
            eval_riccati_cross_ratio(0.0, 1.0, 2.0, 0.5)

    def test_swap_covariance(self):
        # swapping the first two solutions is compensated by k -> 1/k
        ks = [-3.0, -0.5, 0.25, 0.7, 2.0, 5.0]
        for k in ks:
            a = eval_riccati_cross_ratio(0.1, 0.9, 2.3, k)
            b = eval_riccati_cross_ratio(0.9, 0.1, 2.3, 1.0 / k)
            assert a == pytest.approx(b, rel=1e-12)
