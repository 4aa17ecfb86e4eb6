"""Lie closures, structure constants, and algebra diagnostics."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liesuper.algebra import Poly
from liesuper.liealg import (
    CapExceeded,
    LieBasis,
    NotClosed,
    StructureConstants,
    center_dimension,
    check_lie_condition,
    closure,
    independence_rank,
    is_modular_basis,
    killing_determinant,
    killing_form,
    structure_constants,
)
from liesuper.parsing import parse_poly
from liesuper.vectorfield import PolyVectorField, lie_bracket


def VF(*components: str) -> PolyVectorField:
    n = len(components)
    return PolyVectorField([parse_poly(src, n) for src in components])


SL2 = [VF("1"), VF("x0"), VF("x0^2")]


class TestClosure:
    def test_sl2_already_closed(self):
        assert closure(SL2).size == 3

    def test_missing_middle_generator(self):
        # [d/dy, y^2 d/dy] = 2 y d/dy regenerates the scaling field
        basis = closure([VF("1"), VF("x0^2")])
        assert basis.size == 3

    def test_unbounded_degree_growth(self):
        with pytest.raises(CapExceeded) as err:
            closure([VF("1"), VF("x0^3")], cap=10)
        assert err.value.dimension == 11
        assert "dimension 11" in str(err.value)

    def test_degree_growth_oracle(self):
        # brackets walk the degree up without bound:
        # [d/dx, x^3 d/dx] = 3 x^2 d/dx, [x^2 d/dx, x^3 d/dx] = x^4 d/dx, ...
        a, b = VF("1"), VF("x0^3")
        c = lie_bracket(a, b)
        assert c == VF("3*x0^2")
        d = lie_bracket(c, b)
        assert d == VF("3*x0^4")
        e = lie_bracket(d, b)
        assert e.components[0].total_degree() == 6

    def test_idempotent(self):
        basis = closure([VF("1"), VF("x0^2")])
        again = closure(list(basis.fields))
        assert again.size == basis.size

    def test_invariant_under_generator_recombination(self):
        rng = random.Random(41)
        gens = [VF("1"), VF("x0^2")]
        base_dim = closure(gens).size
        for _ in range(10):
            while True:
                m = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
                if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                    break
            mixed = [
                m[i][0] * gens[0] + m[i][1] * gens[1]
                for i in range(2)
            ]
            assert closure(mixed).size == base_dim

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            closure([])


class TestIndependenceRank:
    def test_scalar_multiple(self):
        assert independence_rank([VF("1"), VF("2")]) == 1

    def test_distinct_monomials(self):
        assert independence_rank([VF("1"), VF("x0")]) == 2

    def test_empty(self):
        assert independence_rank([]) == 0


class TestStructureConstants:
    def test_sl2(self):
        sc = structure_constants(LieBasis(SL2))
        # [X1, X2] = X1, [X1, X3] = 2 X2, [X2, X3] = X3
        assert sc.bracket_coefficients(0, 1) == (1, 0, 0)
        assert sc.bracket_coefficients(0, 2) == (0, 2, 0)
        assert sc.bracket_coefficients(1, 2) == (0, 0, 1)

    def test_abelian(self):
        basis = LieBasis([VF("1", "0"), VF("0", "1")])
        sc = structure_constants(basis)
        assert all(
            sc.c[a][b][g] == 0 for a in range(2) for b in range(2) for g in range(2)
        )

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            structure_constants(LieBasis([VF("1"), VF("x0^2")]))

    def test_constructor_keeps_nonzero_fractions_and_checks_indices(self):
        sc = StructureConstants([{(1, 1): 2, (1, 0): 0}, {(0, 1): Fraction(-2)}])
        assert sc.planes == ({(1, 1): 2}, {(0, 1): -2})
        assert all(type(v) is Fraction for plane in sc.planes for v in plane.values())
        assert sc.c == (((0, 0), (0, 2)), ((0, -2), (0, 0)))
        for bad in ({(2, 0): 1}, {(0, -1): 1}):
            with pytest.raises(ValueError):
                StructureConstants([bad, {}])

    def test_sparse_readers_never_build_the_dense_view(self, monkeypatch, tmp_path, capsys):
        from liesuper.cli import main
        from liesuper.hierarchy import member_lie_generators

        def refuse(self):
            raise AssertionError("dense view read")

        sc = structure_constants(closure(member_lie_generators(3)))
        dense = sc.c
        assert sc.c is dense
        monkeypatch.setattr(StructureConstants, "c", property(refuse))
        killing_form(sc)
        center_dimension(sc)
        assert sc.bracket_coefficients(0, 1) == dense[0][1]
        assert sc.nonzero() == [
            (a, b, g, dense[a][b][g]) for a in range(sc.r) for b in range(a + 1, sc.r) for g in range(sc.r) if dense[a][b][g]
        ]
        gens = tmp_path / "gen.json"
        gens.write_text('{"dim": 1, "fields": [["1"], ["x0"], ["x0^2"]]}')
        assert main(["closure", str(gens)]) == 0

    def test_antisymmetry_and_jacobi_on_closures(self):
        from liesuper.hierarchy import linear_generators, member_lie_generators

        closures = (
            SL2,
            [VF("1"), VF("x0^2")],
            [VF("x1", "0"), VF("0", "x0")],
            linear_generators(2),
            member_lie_generators(3),
        )
        for gens in closures:
            sc = structure_constants(closure(gens))
            r = sc.r
            for a in range(r):
                for b in range(r):
                    for g in range(r):
                        assert sc.c[a][b][g] == -sc.c[b][a][g]
            for a in range(r):
                for b in range(r):
                    for c in range(r):
                        for g in range(r):
                            total = sum(
                                sc.c[a][b][e] * sc.c[e][c][g]
                                + sc.c[b][c][e] * sc.c[e][a][g]
                                + sc.c[c][a][e] * sc.c[e][b][g]
                                for e in range(r)
                            )
                            assert total == 0


# affine fields (degree <= 1) in up to three variables, and fields of
# degree <= 2 on the line, close within aff(3) and sl(2): finite closures
COEFFS = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-2, 2),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def finite_families(draw):
    n = draw(st.integers(1, 3))
    degree = 2 if n == 1 else 1
    monomials = [e for e in [(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(n)]]
    if degree == 2:
        monomials.append((2,))

    def field():
        return PolyVectorField([Poly(n, {e: draw(COEFFS) for e in monomials}) for _ in range(n)])

    gens = [field() for _ in range(draw(st.integers(1, 4)))]
    # duplicates, scaled copies and sums are dependent generators
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["duplicate", "scaled", "sum", "zero"]))
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        extra = {"duplicate": a, "scaled": a * Fraction(-5, 3), "sum": a + b, "zero": PolyVectorField.zero(n)}[kind]
        gens.insert(draw(st.integers(0, len(gens))), extra)
    return gens


class TestBracketOnce:
    @settings(max_examples=40, deadline=None)
    @given(finite_families())
    def test_closure_table_equals_the_hand_built_pass(self, gens):
        basis = closure(gens)
        sc = structure_constants(basis)
        assert sc.planes == structure_constants(LieBasis(basis.fields, dimension=basis.dimension)).planes
        # the table expands every bracket exactly
        fields = basis.fields
        for a in range(sc.r):
            for b in range(a + 1, sc.r):
                expanded = PolyVectorField.zero(basis.dimension)
                for (beta, g), v in sc.planes[a].items():
                    if beta == b:
                        expanded = expanded + fields[g] * v
                assert expanded == lie_bracket(fields[a], fields[b])

    def test_zero_brackets_give_an_empty_table(self):
        sc = structure_constants(closure([VF("1", "0"), VF("0", "1"), VF("2", "-3")]))
        assert sc.r == 2 and sc.planes == ({}, {})

    def test_structure_constants_of_a_closure_bracket_nothing(self, monkeypatch):
        from liesuper import liealg
        from liesuper.hierarchy import member_lie_generators

        calls = []

        def counted(x, y):
            calls.append((x, y))
            return lie_bracket(x, y)

        monkeypatch.setattr(liealg, "lie_bracket", counted)
        basis = closure([f * Fraction(2, 3) for f in member_lie_generators(3)])
        r = basis.size
        assert len(calls) == r * (r - 1) // 2
        sc = structure_constants(basis)
        assert len(calls) == r * (r - 1) // 2
        assert sc.planes == structure_constants(LieBasis(basis.fields)).planes
        assert len(calls) == r * (r - 1)

    def test_not_closed_names_an_escaping_pair(self):
        fields = [VF("1", "0"), VF("x1", "0"), VF("0", "1"), VF("0", "x0")]
        with pytest.raises(NotClosed) as info:
            structure_constants(LieBasis(fields))
        a, b = info.value.alpha, info.value.beta
        assert independence_rank(fields + [lie_bracket(fields[a], fields[b])]) == len(fields) + 1


def ad_matrix(sc, a):
    return [[sc.c[a][b][g] for b in range(sc.r)] for g in range(sc.r)]


def trace_product(m1, m2):
    r = len(m1)
    return sum(m1[i][j] * m2[j][i] for i in range(r) for j in range(r))


def killing_by_definition(sc):
    r = sc.r
    return [
        [sum((sc.c[a][g][d] * sc.c[b][d][g] for g in range(r) for d in range(r)), Fraction(0)) for b in range(r)]
        for a in range(r)
    ]


@st.composite
def antisymmetric_tables(draw):
    r = draw(st.integers(1, 5))
    entries = st.one_of(
        st.just(Fraction(0)),
        st.just(Fraction(0)),
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
    )
    c = [[[Fraction(0)] * r for _ in range(r)] for _ in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            c[a][b] = [draw(entries) for _ in range(r)]
            c[b][a] = [-v for v in c[a][b]]
    return StructureConstants([{(b, g): v for b, row in enumerate(plane) for g, v in enumerate(row)} for plane in c])


class TestKillingForm:
    @settings(max_examples=60, deadline=None)
    @given(antisymmetric_tables())
    def test_sparse_sum_matches_definition_on_random_tables(self, sc):
        k = killing_form(sc)
        assert k == killing_by_definition(sc)
        assert all(type(v) is Fraction for row in k for v in row)

    def test_sparse_sum_matches_definition_on_gl3_and_member3(self):
        from liesuper.hierarchy import linear_generators, member_lie_generators

        for generators in (linear_generators(3), member_lie_generators(3)):
            sc = structure_constants(closure(generators))
            assert killing_form(sc) == killing_by_definition(sc)

    def test_abelian_is_zero(self):
        sc = structure_constants(LieBasis([VF("1", "0"), VF("0", "1")]))
        assert killing_form(sc) == [[0, 0], [0, 0]]

    def test_sl2_nondegenerate_vs_trace_oracle(self):
        sc = structure_constants(LieBasis(SL2))
        k = killing_form(sc)
        for a in range(3):
            for b in range(3):
                assert k[a][b] == trace_product(ad_matrix(sc, a), ad_matrix(sc, b))
        assert killing_determinant(sc) != 0

    def test_gl2_degenerate(self):
        from liesuper.hierarchy import gl_basis

        sc = structure_constants(gl_basis(2))
        assert killing_determinant(sc) == 0


class TestCenter:
    def test_gl2_center_is_scalars(self):
        from liesuper.hierarchy import gl_basis

        assert center_dimension(structure_constants(gl_basis(2))) == 1

    def test_sl2_centerless(self):
        assert center_dimension(structure_constants(LieBasis(SL2))) == 0

    def test_abelian_all_central(self):
        sc = structure_constants(LieBasis([VF("1", "0"), VF("0", "1")]))
        assert center_dimension(sc) == 2

    @settings(max_examples=60, deadline=None)
    @given(antisymmetric_tables())
    def test_matches_sympy_nullspace_on_random_tables(self, sc):
        # the center is the nullspace of the rows (b, g) with entries c[a][b][g]
        r = sc.r
        rows = [[sympy.Rational(str(sc.c[a][b][g])) for a in range(r)] for b in range(r) for g in range(r)]
        assert center_dimension(sc) == len(sympy.Matrix(rows).nullspace())


class TestModularBasis:
    def test_coordinate_scalings_on_plane(self):
        basis = LieBasis([VF("x0", "0"), VF("0", "x1")])
        assert is_modular_basis(basis, samples=20, seed=1)

    def test_line_counterexample(self):
        basis = LieBasis([VF("1"), VF("x0")])
        assert not is_modular_basis(basis, samples=20, seed=1)

    def test_single_nonzero_field(self):
        assert is_modular_basis(LieBasis([VF("x0^2 + 1")]), samples=5, seed=0)

    def test_rebasing_stays_modular(self):
        # any basis of an algebra with one modular basis is modular; checked
        # at the same sample points, where rank is exactly preserved under
        # invertible recombination
        rng = random.Random(61)
        fields = [VF("x0", "0"), VF("0", "x1")]
        assert is_modular_basis(LieBasis(fields), samples=20, seed=0)
        for _ in range(50):
            while True:
                m = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
                if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                    break
            rebased = LieBasis(
                [m[i][0] * fields[0] + m[i][1] * fields[1] for i in range(2)]
            )
            assert is_modular_basis(rebased, samples=20, seed=0)


class TestProlongedAlgebras:
    def test_prolonged_basis_spans_isomorphic_algebra(self):
        # prolongation commutes with brackets, so the prolonged generators
        # close on an algebra of the same dimension
        from liesuper.vectorfield import diagonal_prolong

        prolonged = [diagonal_prolong(f, 3) for f in SL2]
        assert closure(prolonged).size == 3

    def test_prolonged_gl2_basis_is_modular(self):
        # the 4 prolonged fields are pointwise independent on the product
        # space: the evaluation determinant is the squared Wronskian
        from liesuper.hierarchy import gl_basis
        from liesuper.vectorfield import diagonal_prolong

        prolonged = LieBasis([diagonal_prolong(f, 2) for f in gl_basis(2).fields])
        assert is_modular_basis(prolonged, samples=20, seed=3)


class TestLieCondition:
    def test_riccati_bound(self):
        assert check_lie_condition(3, [2, 2])

    def test_order_three_bound(self):
        assert check_lie_condition(8, [3, 3, 3])

    def test_violation(self):
        assert not check_lie_condition(5, [2, 2])
