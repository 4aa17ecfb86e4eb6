"""Rule evaluators: values, error cases, and structural properties."""

import math
import random

import numpy as np
import pytest

from liesuper.hierarchy import p_sequence
from liesuper.superpose import (
    CoincidentSolutions,
    DegenerateWronskian,
    DomainError,
    MixedRule,
    NonGenericNormalization,
    RadicandNegative,
    SingularDenominator,
    SingularJetMatrix,
    eval_bernoulli_rule,
    eval_hierarchy_rule,
    eval_linear_rule,
    eval_pinney_rule,
    eval_riccati_cross_ratio,
    solve_hierarchy_constants,
)


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
        with pytest.raises(DomainError):
            eval_bernoulli_rule(0.0, 1.0, 1.0, 2)


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


class TestHierarchyRule:
    def test_order_two_quotient(self):
        assert eval_hierarchy_rule(2, [(1.0, 0.0), (0.0, 1.0)], [2.0]) == [pytest.approx(0.5)]

    def test_order_three_unit_jets(self):
        out = eval_hierarchy_rule(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [1.0, 1.0])
        assert out == [pytest.approx(1.0), pytest.approx(0.0)]

    def test_singular_denominator(self):
        with pytest.raises(SingularDenominator):
            eval_hierarchy_rule(2, [(1.0, 0.0), (-1.0, 1.0)], [1.0])

    def test_projective_invariance(self):
        # evaluating through unnormalized coefficients kappa gives the same
        # output for kappa and lambda*kappa; the normalized evaluator is the
        # kappa_s = 1 representative of that class
        rng = random.Random(77)
        ps = p_sequence(3)
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
                    from liesuper.algebra import DiffPoly

                    tail = p_sequence(s - 1)[l] - DiffPoly.y(l - 1)
                    yjet.append(z[l] - float(tail.evaluate(yjet)))
                return yjet

            base = unnormalized(1.0)
            scaled = unnormalized(lam)
            normalized = eval_hierarchy_rule(
                s, jets, [kappa[a] / kappa[s - 1] for a in range(s - 1)]
            )
            assert scaled == pytest.approx(base, rel=1e-9)
            assert normalized == pytest.approx(base, rel=1e-9)


class TestSolveHierarchyConstants:
    def test_order_two_round_trip(self):
        k = solve_hierarchy_constants(2, [(1.0, 0.0), (0.0, 1.0)], [2.0])
        assert k == [pytest.approx(0.5)]
        assert eval_hierarchy_rule(2, [(1.0, 0.0), (0.0, 1.0)], k) == [pytest.approx(2.0)]

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


class TestMixedRuleDescriptors:
    def test_constant_counts_match_target_dims(self):
        for rule in (
            MixedRule.linear(),
            MixedRule.bernoulli(2),
            MixedRule.pinney(1.0),
            MixedRule.hierarchy(3),
            MixedRule.riccati_cross_ratio(),
        ):
            assert rule.constant_count == rule.target_dim

    def test_hierarchy_shape(self):
        rule = MixedRule.hierarchy(4)
        assert rule.component_dims == (4, 4, 4, 4)
        assert rule.constant_count == 3
        assert rule.target_dim == 3
