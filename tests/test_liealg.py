"""Lie closures, structure constants, and algebra diagnostics."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liesuper.algebra import Poly
from liesuper.liealg import (
    DEFAULT_CLOSURE_CAP,
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
    lie_dimension,
    structure_constants,
)
from liesuper.hierarchy import linear_generators, member_lie_generators
from liesuper.parsing import parse_poly
from liesuper.vectorfield import ExponentLimitError, PolyVectorField, lie_bracket
from liesuper.verify import random_field
from reference_closure import full_pair_closure, integer_table


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
        assert max(map(sum, e.components[0].terms)) == 6

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

    def test_the_basis_of_a_closure_is_not_ranked_again(self, monkeypatch):
        # closure's own echelon proves its fields independent; a LieBasis
        # built directly still checks them
        from liesuper import liealg
        from liesuper.hierarchy import member_lie_generators

        gens = member_lie_generators(3)
        want = closure(gens)

        def refuse(fields):
            raise AssertionError("independence_rank called")

        monkeypatch.setattr(liealg, "independence_rank", refuse)
        got = closure(gens)
        assert got.fields == want.fields and got.dimension == want.dimension
        got_sc, want_sc = structure_constants(got), structure_constants(want)
        assert (got_sc.den, got_sc.planes) == (want_sc.den, want_sc.planes)
        with pytest.raises(AssertionError, match="independence_rank called"):
            LieBasis(want.fields)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="linearly dependent"):
            LieBasis([VF("1"), VF("2")])


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

    def test_constructor_keeps_nonzero_integers_over_the_least_denominator_and_checks_indices(self):
        sc = StructureConstants([{(1, 1): 2, (1, 0): 0}, {(0, 1): -2}], 1)
        assert (sc.den, sc.planes) == (1, ({(1, 1): 2}, {(0, 1): -2}))
        assert sc.c == (((0, 0), (0, 2)), ((0, -2), (0, 0)))
        # numerators that share a factor with the denominator are reduced
        # with it, and a zero is dropped
        third = StructureConstants([{(1, 1): 4, (1, 0): 0}, {(0, 1): -4}], 6)
        assert (third.den, third.planes) == (3, ({(1, 1): 2}, {(0, 1): -2}))
        assert third.c == (((0, 0), (0, Fraction(2, 3))), ((0, Fraction(-2, 3)), (0, 0)))
        assert all(type(v) is Fraction for plane in third.c for row in plane for v in row)
        assert third.c[0][0][0] is third.c[1][1][1]  # one shared zero
        assert third.nonzero() == [(0, 1, 1, Fraction(2, 3))]
        assert StructureConstants([{(0, 0): 0}], 5).den == 1
        for bad in ({(2, 0): 1}, {(0, -1): 1}):
            with pytest.raises(ValueError):
                StructureConstants([bad, {}], 1)
        # k, the number of generators that open the basis, is r by default
        assert sc.k == 2 and StructureConstants(sc.planes, 1, 1).k == 1 and StructureConstants([], 1).k == 0
        for k in (0, 3):
            with pytest.raises(ValueError, match="do not fit"):
                StructureConstants(sc.planes, 1, k)

    def test_sparse_readers_never_build_the_dense_view(self, monkeypatch, tmp_path, capsys):
        from liesuper.cli import main
        from liesuper.hierarchy import member_lie_generators

        def refuse(self):
            raise AssertionError("dense view read")

        sc = structure_constants(closure(member_lie_generators(3)))
        assert all(type(v) is int for plane in sc.planes for v in plane.values())
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
        zero = PolyVectorField([Poly.zero(n)] * n)
        extra = {"duplicate": a, "scaled": a * Fraction(-5, 3), "sum": a + b, "zero": zero}[kind]
        gens.insert(draw(st.integers(0, len(gens))), extra)
    return gens


class TestBracketOnce:
    @settings(max_examples=40, deadline=None)
    @given(finite_families())
    def test_closure_table_equals_the_hand_built_pass(self, gens):
        basis = closure(gens)
        sc = structure_constants(basis)
        hand_built = structure_constants(LieBasis(basis.fields, dimension=basis.dimension))
        assert (sc.den, sc.planes) == (hand_built.den, hand_built.planes)
        # the table expands every bracket exactly
        fields = basis.fields
        for a in range(sc.r):
            for b in range(a + 1, sc.r):
                expanded = PolyVectorField([Poly.zero(basis.dimension)] * basis.dimension)
                for (beta, g), v in sc.planes[a].items():
                    if beta == b:
                        expanded = expanded + fields[g] * Fraction(v, sc.den)
                assert expanded == lie_bracket(fields[a], fields[b])

    def test_zero_brackets_give_an_empty_table(self):
        sc = structure_constants(closure([VF("1", "0"), VF("0", "1"), VF("2", "-3")]))
        assert sc.r == 2 and sc.planes == ({}, {})

    @pytest.mark.parametrize(
        "gens, pass_calls, closure_calls, constants_calls, den",
        [
            (linear_generators(4), 65, 86, 34, 1),
            ([f * Fraction(2, 3) for f in member_lie_generators(3)], 22, 23, 5, 81),
        ],
    )
    def test_closure_and_its_constants_bracket_each_pair_once(
        self, monkeypatch, gens, pass_calls, closure_calls, constants_calls, den
    ):
        # closure forms the lie_dimension pass's brackets, then only the
        # pairs its loop takes from no memo, up to the pair that fills the
        # basis; structure_constants brackets the pairs after it.  With
        # every pass bracket reused, that is r (r - 1) / 2 in all.
        from liesuper import liealg

        calls = []

        def counted(x, y):
            calls.append((x, y))
            return lie_bracket(x, y)

        monkeypatch.setattr(liealg, "lie_bracket", counted)
        assert lie_dimension(gens) and len(calls) == pass_calls
        calls.clear()
        basis = closure(gens)
        r = basis.size
        assert len(calls) == closure_calls
        sc = structure_constants(basis)
        assert len(calls) - closure_calls == constants_calls
        assert closure_calls + constants_calls == r * (r - 1) // 2
        assert sc.den == den  # the least common denominator of the constants
        again = structure_constants(basis)
        assert (again.den, again.planes) == (sc.den, sc.planes)
        assert len(calls) == r * (r - 1) // 2
        # a hand-built basis runs the same loop from its first pair
        hand_built = structure_constants(LieBasis(basis.fields))
        assert (sc.den, sc.planes) == (hand_built.den, hand_built.planes)
        assert len(calls) == r * (r - 1)

    @pytest.mark.parametrize(
        "gens, pass_adds, table_adds, constants_adds, once",
        [
            (linear_generators(4), 70, 76, 49, 125),
            ([f * Fraction(2, 3) for f in member_lie_generators(3)], 26, 20, 12, 32),
        ],
    )
    def test_echelon_additions_of_closure_and_its_constants(
        self, monkeypatch, gens, pass_adds, table_adds, constants_adds, once
    ):
        # closure reduces every bracket of its lie_dimension pass twice: in
        # the pass's plain echelon, and again in its table's keep_dependent
        # echelon when the pair loop takes the bracket from the memo;
        # structure_constants adds the pairs after the stop to the table.
        # One table fed once would take r (r - 1) / 2 + k additions, ``once``.
        from liesuper.exactlinalg import SparseEchelon

        adds = {"plain": 0, "table": 0}
        honest = SparseEchelon.add

        def counted(echelon, vec):
            adds["plain" if echelon._dependent is None else "table"] += 1
            return honest(echelon, vec)

        monkeypatch.setattr(SparseEchelon, "add", counted)
        lie_dimension(gens)
        assert adds == {"plain": pass_adds, "table": 0}
        basis = closure(gens)
        assert adds == {"plain": 2 * pass_adds, "table": table_adds}
        structure_constants(basis)
        assert adds == {"plain": 2 * pass_adds, "table": table_adds + constants_adds}
        r, k = basis.size, basis._brackets.generators
        assert r * (r - 1) // 2 + k == once

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
    return StructureConstants(
        *integer_table([{(b, g): v for b, row in enumerate(plane) for g, v in enumerate(row)} for plane in c])
    )


def conjugated_linear(fields, a):
    """Linear fields x' = M x pushed along y = A x: y' = A M A^-1 y."""
    s = len(a)
    a = sympy.Matrix(a)
    unit = [tuple(int(k == j) for k in range(s)) for j in range(s)]
    out = []
    for f in fields:
        m = sympy.Matrix(s, s, lambda i, j: f.components[i].terms.get(unit[j], 0))
        n = a * m * a.inv()
        out.append(
            PolyVectorField(
                [Poly(s, {unit[j]: Fraction(int(n[i, j].p), int(n[i, j].q)) for j in range(s)}) for i in range(s)]
            )
        )
    return out


def dimension_or_cap(fn, gens, cap):
    try:
        return fn(gens, cap)
    except CapExceeded as exc:
        return "cap", exc.cap, exc.dimension


class TestLieDimension:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from([1, 2, 3]),
        st.integers(1, 10),
    )
    def test_equals_the_closure_size_on_random_generators(self, seed, dim, count, degree, cap):
        rng = random.Random(seed)
        gens = [random_field(rng, dim, degree) for _ in range(count)]
        want = dimension_or_cap(lambda g, c: closure(g, c).size, gens, cap)
        assert dimension_or_cap(lie_dimension, gens, cap) == want

    @settings(max_examples=20, deadline=None)
    @given(finite_families())
    def test_equals_the_closure_size_on_finite_families(self, gens):
        assert lie_dimension(gens) == closure(gens).size

    @pytest.mark.parametrize(
        "gens, cap, want",
        [
            (linear_generators(4), 64, 16),
            (conjugated_linear(linear_generators(4), [[1, 2, 0, -1], [0, 1, 3, 0], [1, 2, 1, 0], [0, 0, 2, 1]]), 64, 16),
            (member_lie_generators(4), 64, 15),
            (SL2, 3, 3),
            ([VF("1", "0"), VF("x1^2", "x0")], 8, ("cap", 8, 9)),
            ([VF("1", "0"), VF("x1^2", "x0")], 12, ("cap", 12, 13)),
            ([VF("1"), VF("x0^3")], 10, ("cap", 10, 11)),
        ],
    )
    def test_fixed_families(self, gens, cap, want):
        assert dimension_or_cap(lambda g, c: closure(g, c).size, gens, cap) == want
        assert dimension_or_cap(lie_dimension, gens, cap) == want

    def test_brackets_each_basis_field_with_the_generators_only(self, monkeypatch):
        # gl(4) from its 5 generators: 16 basis fields, 5 * 16 brackets less
        # the 5 * 6 / 2 generator pairs (j >= i) not formed, where the full
        # pair loop forms 16 * 15 / 2 = 120; closure forms these 65 and 21
        # more, its pair loop stopping once it holds 16 fields
        from liesuper import liealg

        calls = []
        monkeypatch.setattr(liealg, "lie_bracket", lambda x, y: calls.append((x, y)) or lie_bracket(x, y))
        gens = linear_generators(4)
        assert lie_dimension(gens) == 16
        assert len(calls) == 5 * 16 - 15
        # the generator block in closure's order: [g_j, g_i], j < i
        ids = [id(g) for g in gens]
        assert [(ids.index(id(x)), ids.index(id(y))) for x, y in calls[:10]] == [
            (j, i) for i in range(5) for j in range(i)
        ]
        calls.clear()
        closure(gens)
        assert len(calls) == 86

    @pytest.mark.parametrize(
        "gens, cap, message",
        [
            ([], 4, "at least one generator"),
            (SL2, 0, "cap must be at least 1"),
            ([VF("1"), VF("1", "0")], 4, "share one dimension"),
        ],
    )
    def test_argument_checks_are_those_of_closure(self, gens, cap, message):
        for fn in (closure, lie_dimension):
            with pytest.raises(ValueError, match=message):
                fn(gens, cap)


@st.composite
def small_generators(draw):
    """Two or three fields on the line or the plane, each component one or
    two terms with exponents in 0..2, or -2..2 for Laurent fields: mostly
    infinite closures, so that every cap is reached."""
    n = draw(st.integers(1, 2))
    exponents = st.tuples(*[st.integers(draw(st.sampled_from([0, -2])), 2)] * n)
    terms = st.dictionaries(exponents, st.integers(-2, 2), min_size=1, max_size=2)
    return [PolyVectorField([Poly(n, draw(terms)) for _ in range(n)]) for _ in range(draw(st.integers(2, 3)))]


@st.composite
def conjugated_gl(draw):
    s = draw(st.integers(2, 3))
    a = draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=s, max_size=s), min_size=s, max_size=s).filter(
            lambda m: sympy.Matrix(m).det() != 0
        )
    )
    return conjugated_linear(linear_generators(s), a)


def closure_outcome(fn, gens, cap):
    """The fields, denominator, planes, Killing determinant and center of
    ``fn(gens, cap)``, or its CapExceeded."""
    try:
        fields, sc = fn(gens, cap)
    except CapExceeded as exc:
        return "cap", exc.cap, exc.dimension
    return list(fields), sc.den, sc.planes, killing_determinant(sc), center_dimension(sc)


def closure_and_constants(gens, cap):
    basis = closure(gens, cap)
    return basis.fields, structure_constants(basis)


class TestAgainstFullPairClosure:
    """``closure`` stops its pair loop at the dimension the pass found and
    ``structure_constants`` finishes it; the full pair loop of
    ``reference_closure`` must give the same answer at every cap."""

    def check(self, gens, caps):
        for cap in caps:
            assert closure_outcome(closure_and_constants, gens, cap) == closure_outcome(full_pair_closure, gens, cap)

    @settings(max_examples=40, deadline=None)
    @given(small_generators())
    def test_random_polynomial_and_laurent_generators(self, gens):
        self.check(gens, range(1, 9))

    @settings(max_examples=20, deadline=None)
    @given(finite_families())
    def test_finite_families(self, gens):
        r = closure(gens).size
        self.check(gens, range(1, r + 2))

    @settings(max_examples=10, deadline=None)
    @given(conjugated_gl())
    def test_conjugated_gl(self, gens):
        s = gens[0].dimension
        self.check(gens, [1, s, s * s - 1, s * s])

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(finite_families(), conjugated_gl()))
    def test_center_from_the_generator_rows_equals_the_center_from_all_rows(self, gens):
        sc = structure_constants(closure(gens))
        assert sc.k == independence_rank(gens)
        assert center_dimension(sc) == center_dimension(StructureConstants(sc.planes, sc.den))

    def test_cap_and_exponent_limit_compete_in_closure_order(self):
        # d/dx and x^N d/dx, N = 2^31 + 1: [g0, g1] and [g0, [g0, g1]] join
        # the basis as its third and fourth fields, then [g1, [g0, g1]]
        # overflows (N + N - 1 > EXPONENT_LIMIT), in closure's order and in
        # the full pair loop's
        gens = [VF("1"), VF(f"x0^{2**31 + 1}")]
        for fn in (closure_and_constants, full_pair_closure):
            assert closure_outcome(fn, gens, 2) == ("cap", 2, 3)
            assert closure_outcome(fn, gens, 3) == ("cap", 3, 4)
            for cap in (4, DEFAULT_CLOSURE_CAP):
                with pytest.raises(ExponentLimitError, match="4294967297 is above"):
                    fn(gens, cap)
        assert dimension_or_cap(lie_dimension, gens, 3) == ("cap", 3, 4)
        with pytest.raises(ExponentLimitError):
            lie_dimension(gens, 4)

    def test_a_pair_past_the_exponent_limit_after_the_stop_raises_in_structure_constants(self):
        # M = 2^30 + 1: the pass forms [g, Y] for every generator g, 3 M at
        # most, and finds dimension 5; the brackets x0^(2M) d/dx2 and
        # x0^(2M) d/dx3 pair to 4 M, past the limit, after the stop
        m = 2**30 + 1
        gens = [VF("0", f"x0^{m}", "0", "0"), VF("0", "0", f"x1*x0^{m}", "0"), VF("0", "0", "0", f"x1*x0^{m}")]
        assert lie_dimension(gens) == 5
        basis = closure(gens)
        assert basis.size == 5
        for fn in (structure_constants, lambda basis: full_pair_closure(gens, DEFAULT_CLOSURE_CAP)):
            with pytest.raises(ExponentLimitError, match="4294967300 is above"):
                fn(basis)


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
        # the center is the nullspace of the rows (b, g) with entries c[a][b][g];
        # a table built by hand reads every row
        r = sc.r
        assert sc.k == r
        rows = [[sympy.Rational(str(sc.c[a][b][g])) for a in range(r)] for b in range(r) for g in range(r)]
        assert center_dimension(sc) == len(sympy.Matrix(rows).nullspace())

    @settings(max_examples=40, deadline=None)
    @given(antisymmetric_tables(), st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=5))
    def test_matches_sympy_nullspace_with_a_planted_relation(self, sc, weights):
        # the last plane made a combination of the others with fractional
        # weights: a relation among the columns a of the rows (b, g) whose
        # entries have mixed denominators, which the integer rows must keep
        planes = [{key: Fraction(v, sc.den) for key, v in plane.items()} for plane in sc.planes]
        last = {}
        for plane, w in zip(planes[:-1], weights):
            for key, v in plane.items():
                last[key] = last.get(key, 0) + w * v
        sc = StructureConstants(*integer_table(planes[:-1] + [last]))
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

    def test_empty_basis(self):
        # the closure of zero fields
        basis = closure([VF("0", "0")])
        assert basis.size == 0 and is_modular_basis(basis, samples=1)

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
