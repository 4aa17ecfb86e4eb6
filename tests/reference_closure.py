"""The full-pair closure that ``liealg.closure`` replaced, kept as a
reference for the tests.

Every unordered pair of basis fields is bracketed once, i ascending and
j < i ascending within it, as [Y_j, Y_i], into one integer echelon that
keeps the elimination steps of a dependent bracket; the loop runs to the
last pair, however early the basis is full.  It expands the brackets in
Fractions of its own and turns them into the integer table only at the
end (``integer_table``).  It imports nothing of ``liealg`` but the two
result types, so the code under test does not check itself.
"""

from fractions import Fraction
from math import lcm

from liesuper.exactlinalg import SparseEchelon
from liesuper.liealg import CapExceeded, StructureConstants
from liesuper.vectorfield import PolyVectorField, lie_bracket


def full_pair_closure(generators: list[PolyVectorField], cap: int) -> tuple[list[PolyVectorField], StructureConstants]:
    """``(fields, constants)`` of the algebra the generators generate, the
    table with k = r; raises CapExceeded(cap, cap + 1) as soon as the basis
    would grow past ``cap``."""
    echelon = SparseEchelon(keep_dependent=True)
    sources: list[tuple[int | None, int]] = []  # (basis index or None, D) per added vector
    fields: list[PolyVectorField] = []

    def add(field: PolyVectorField) -> None:
        den, vec = field.integer_vector()
        index = echelon.rank
        new = echelon.add(vec)
        sources.append((index if new else None, den))
        if new:
            if len(fields) == cap:
                raise CapExceeded(cap, cap + 1)
            fields.append(field)

    for g in generators:
        add(g)
    pairs = {}
    i = 0
    while i < len(fields):
        for j in range(i):
            pairs[j, i] = len(sources)
            add(lie_bracket(fields[j], fields[i]))
        i += 1
    planes: list[dict[tuple[int, int], Fraction]] = [{} for _ in fields]
    for (a, b), t in pairs.items():
        ints, den = echelon.combination(t)
        den *= sources[t][1]
        for s, c in ints.items():
            if c:
                index, scale = sources[s]
                planes[a][b, index] = Fraction(c * scale, den)
                planes[b][a, index] = -Fraction(c * scale, den)
    return fields, StructureConstants(*integer_table(planes))


def integer_table(planes: list[dict[tuple[int, int], Fraction]]) -> tuple[list[dict[tuple[int, int], int]], int]:
    """``(planes, den)`` for a table of Fraction planes, the arguments
    ``StructureConstants`` takes: each entry's numerator over the lcm of
    the denominators."""
    den = lcm(*[v.denominator for plane in planes for v in plane.values()])
    return [{key: int(v * den) for key, v in plane.items()} for plane in planes], den
