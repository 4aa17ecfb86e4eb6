"""Property tests of the one exact elimination routine, with sympy as the
oracle where there is one and a plain Fraction elimination where the
answer depends on the echelon's own choices: ranks, determinants, span
membership, coefficients and remainders, and the structure constants
built on them."""

from fractions import Fraction

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liesuper.algebra import Poly
from liesuper.exactlinalg import SparseEchelon, dense_rank, determinant, solve_in_span, sparse_rank
from liesuper.hierarchy import gl_basis
from liesuper.liealg import LieBasis, structure_constants
from liesuper.vectorfield import PolyVectorField, lie_bracket

# zero-heavy entries, so singular matrices and pivots that need a row swap
# come up often; ints and Fractions mix, and some Fractions have
# denominators up to 10^6, so the integer rows must be scaled by large lcms
ENTRIES = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
)

PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def matrices(draw, square=False):
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    m = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        # make one row a combination of the others
        k = draw(st.integers(0, rows - 1))
        weights = [draw(ENTRIES) for _ in range(rows)]
        m[k] = [sum(w * m[i][j] for i, w in enumerate(weights) if i != k) for j in range(cols)]
    return m


def to_sympy(rows, cols=None):
    cols = len(rows[0]) if cols is None else cols
    return sympy.Matrix(
        len(rows), cols, [sympy.Rational(v.numerator, v.denominator) for row in rows for v in row]
    )


@PROPERTY
@given(matrices())
@example([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
@example([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
def test_dense_rank_matches_sympy(m):
    assert dense_rank(m) == to_sympy(m).rank()


@PROPERTY
@given(matrices(square=True))
@example([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
@example([[Fraction(v) for v in row] for row in ((0, 0, 2), (0, 3, 1), (5, 1, 1))])
@example([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
@example([[Fraction(1, 999983), 2], [3, Fraction(-5, 1000000)]])
def test_determinant_matches_sympy(m):
    expected = to_sympy(m).det()
    assert determinant(m) == Fraction(int(expected.p), int(expected.q))


def test_empty_determinant_is_one():
    assert determinant([]) == 1


# column labels shaped like those of coefficient vectors: (component, monomial)
LABELS = [(i, (e,)) for i in range(2) for e in range(3)]

# sparse vectors over some of the labels, explicit zeros and empty ones included
SPARSE = st.dictionaries(st.sampled_from(LABELS), ENTRIES, max_size=len(LABELS))


@st.composite
def sparse_families(draw):
    """Up to five sparse vectors, some of them zero or combinations of
    earlier ones."""
    vectors = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["free", "free", "dependent", "zero"]))
        if kind == "dependent" and vectors:
            vectors.append(combine([draw(ENTRIES) for _ in vectors], vectors))
        elif kind == "zero":
            vectors.append({label: 0 for label in draw(st.lists(st.sampled_from(LABELS), max_size=2))})
        else:
            vectors.append(draw(SPARSE))
    return vectors


@st.composite
def span_problems(draw):
    vectors = draw(sparse_families())
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        if vectors and draw(st.booleans()):
            targets.append(combine([draw(ENTRIES) for _ in vectors], vectors))
        else:
            targets.append(draw(SPARSE))
    return vectors, targets


def combine(weights, vectors):
    out = {}
    for w, vec in zip(weights, vectors):
        for label, v in vec.items():
            out[label] = out.get(label, 0) + w * v
    return {label: v for label, v in out.items() if v}


def as_rows(vectors, labels=LABELS):
    return [[Fraction(vec.get(label, 0)) for label in labels] for vec in vectors]


class FractionEchelon:
    """The reference: plain Fraction elimination, each row normalized to 1
    at its pivot, the smallest column of its remainder."""

    def __init__(self, vectors):
        self.rows = {}
        self.dependent = False
        for vec in vectors:
            rem = self.reduce(vec)
            if not rem:
                self.dependent = True
                continue
            pivot = min(rem)
            self.rows[pivot] = {col: v / rem[pivot] for col, v in rem.items()}

    def reduce(self, vec):
        rem = {col: Fraction(v) for col, v in vec.items() if v}
        for pivot in sorted(self.rows):
            coef = rem.get(pivot)
            if coef:
                for col, v in self.rows[pivot].items():
                    rem[col] = rem.get(col, 0) - coef * v
                    if not rem[col]:
                        del rem[col]
        return rem


def echelon(vectors):
    ech = SparseEchelon()
    for vec in vectors:
        ech.add(vec)
    return ech


@PROPERTY
@given(sparse_families())
def test_sparse_rank_matches_sympy(vectors):
    expected = to_sympy(as_rows(vectors), len(LABELS)).rank() if vectors else 0
    assert sparse_rank(vectors) == expected


@PROPERTY
@given(span_problems())
def test_reduce_matches_fraction_elimination(problem):
    vectors, targets = problem
    ech, reference = echelon(vectors), FractionEchelon(vectors)
    for target in targets + vectors:
        rem = ech.reduce(target)
        assert rem == reference.reduce(target)
        assert all(type(v) is Fraction for v in rem.values())
        assert ech.contains(target) == (not rem)


@PROPERTY
@given(sparse_families())
def test_pivot_determinant_is_zero_exactly_when_a_vector_was_dependent(vectors):
    ech, reference = echelon(vectors), FractionEchelon(vectors)
    det = ech.pivot_determinant()
    assert (det == 0) == reference.dependent
    if not reference.dependent and vectors:
        # the added vectors over the pivot columns, in column order
        expected = to_sympy(as_rows(vectors, sorted(reference.rows))).det()
        assert det == Fraction(int(expected.p), int(expected.q))


@PROPERTY
@given(span_problems())
@example(([{(0, (0,)): Fraction(1, 999983)}, {(0, (0,)): 7, (1, (2,)): Fraction(3, 10**6)}], [{(1, (2,)): 1}]))
def test_solve_in_span_rebuilds_targets(problem):
    vectors, targets = problem
    solutions = solve_in_span(vectors, targets)
    assert len(solutions) == len(targets)
    base_rank = to_sympy(as_rows(vectors), len(LABELS)).rank() if vectors else 0
    for target, coeffs in zip(targets, solutions):
        in_span = to_sympy(as_rows(vectors + [target]), len(LABELS)).rank() == base_rank
        if not in_span:
            assert coeffs is None
            continue
        assert coeffs is not None
        assert all(c and type(c) is Fraction for c in coeffs.values())
        assert combine([coeffs.get(i, 0) for i in range(len(vectors))], vectors) == combine([1], [target])
        for i in coeffs:
            # a vector in the span of the earlier ones stays a free unknown, 0
            assert sparse_rank(vectors[: i + 1]) > sparse_rank(vectors[:i])


def test_solve_in_span_rejects_a_new_column():
    vectors = [{(0, (0,)): Fraction(1)}, {(0, (1,)): Fraction(2)}]
    assert solve_in_span(vectors, [{(1, (0,)): Fraction(1)}]) == [None]


def conjugated_gl3(a):
    """The gl(3) basis fields pushed forward along y = A x: y' = A E A^-1 y."""
    s = 3
    a_inv = sympy.Matrix(a).inv()
    unit = [tuple(int(k == j) for k in range(s)) for j in range(s)]
    fields = []
    for i in range(s):
        for j in range(s):
            e = sympy.zeros(s, s)
            e[i, j] = 1
            n = sympy.Matrix(a) * e * a_inv
            comps = [
                Poly(s, {unit[q]: Fraction(int(n[p, q].p), int(n[p, q].q)) for q in range(s)})
                for p in range(s)
            ]
            fields.append(PolyVectorField(comps))
    return LieBasis(fields)


INVERTIBLE_3X3 = st.lists(
    st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=3, max_size=3
).filter(lambda a: sympy.Matrix(a).det() != 0)


@settings(max_examples=5, deadline=None)
@given(INVERTIBLE_3X3)
def test_conjugated_gl3_structure_constants(a):
    basis = conjugated_gl3(a)
    sc = structure_constants(basis)
    r = sc.r
    c = sc.c
    # conjugation is an automorphism: the constants are those of the plain basis
    assert c == structure_constants(gl_basis(3)).c
    for x in range(r):
        for y in range(r):
            assert all(c[x][y][g] == -c[y][x][g] for g in range(r))
    for x in range(r):
        for y in range(x + 1, r):
            rebuilt = PolyVectorField([Poly.zero(3)] * 3)
            for g in range(r):
                if c[x][y][g]:
                    rebuilt = rebuilt + basis.fields[g] * c[x][y][g]
            assert rebuilt == lie_bracket(basis.fields[x], basis.fields[y])
            for z in range(y + 1, r):
                # Jacobi: [[x,y],z] + [[y,z],x] + [[z,x],y] = 0
                for e in range(r):
                    total = sum(
                        c[p][q][d] * c[d][w][e]
                        for p, q, w in ((x, y, z), (y, z, x), (z, x, y))
                        for d in range(r)
                        if c[p][q][d]
                    )
                    assert total == 0
