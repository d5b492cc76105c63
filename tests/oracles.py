"""Plain computations, kept as independent oracles for the tests.

The library computes the invariant form from one Krylov solve
(``hgsp.hgroup.invariant_symplectic_form``).  The code here gets the same
objects the slow, generic way: it writes the invariance conditions
M^T X M = X as linear rows in the n^2 entries of X and takes the kernel by
Bareiss elimination and rational back substitution.  It also yields the
dimensions of the invariant alternating and symmetric spaces, which the
Krylov solve does not compute.

``canonical_search`` does the same for the witness engine
(``hgsp.search.search_witness``): it lists the reduced words level by level
in canonical order and tests each one on its full matrix product, with the
generic inverse.  ``reference_search`` is a plain recursive first-hit
searcher on full matrix products, used to cross-check existence and
depth bounds.

``solve_unimodular`` and ``unimodular_inverse`` solve with a generic
unimodular matrix through ``hgsp.linalg.solve_scaled``; the library only
ever inverts companion matrices, in closed form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from dataclasses import dataclass
from typing import Optional, Sequence

from hgsp.hgroup import GeneratorPair, build_generators, transvection_vector
from hgsp.linalg import (
    Matrix,
    NonUnimodularError,
    Vector,
    _bareiss_echelon,
    identity_matrix,
    linearly_independent,
    mat_mul,
    mat_vec,
    solve_scaled,
)
from hgsp.pairs import QualifiedPair
from hgsp.words import Word, evaluate_word, inverse_letter


# -- unimodular solves --------------------------------------------------------


def solve_unimodular(a: Matrix, b: Vector) -> Vector:
    """Integer solution of a x = b; raises NonUnimodularError when it is not integral."""
    det, xs = solve_scaled(a, [(y,) for y in b])
    if det == 0:
        raise ValueError("singular system")
    if any(x % det for x in xs[0]):
        raise NonUnimodularError(det)
    return tuple(x // det for x in xs[0])


def unimodular_inverse(a: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with determinant +-1."""
    det, cols = solve_scaled(a, identity_matrix(len(a)))
    if det not in (1, -1):
        raise NonUnimodularError(det)
    return tuple(tuple(det * x for x in row) for row in zip(*cols))


# -- kernels -------------------------------------------------------------------


def _primitive_int_vector(x: Sequence[Fraction]) -> Vector:
    """Scale a rational vector to primitive integers, first nonzero entry positive."""
    denom = 1
    for r in x:
        denom = denom * r.denominator // gcd(denom, r.denominator)
    ints = [int(r * denom) for r in x]
    content = 0
    for c in ints:
        content = gcd(content, c)
    if content == 0:
        raise ValueError("zero vector has no primitive form")
    ints = [c // content for c in ints]
    first = next(c for c in ints if c)
    if first < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def nullspace(rows: Sequence[Sequence[int]], ncols: int) -> list[Vector]:
    """Primitive integer basis of the solution space of a homogeneous system.

    One basis vector per free column, ordered by free column index, each
    normalized to content 1 with positive first nonzero entry.
    """
    ech, pivot_cols, _ = _bareiss_echelon([tuple(r) for r in rows], ncols)
    pivot_set = set(pivot_cols)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for i in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[i]
            s = Fraction(0)
            row = ech[i]
            for j in range(pc + 1, ncols):
                if row[j] and x[j]:
                    s += row[j] * x[j]
            if s:
                x[pc] = -s / row[pc]
        basis.append(_primitive_int_vector(x))
    return basis


def kernel_basis(
    constraints: Sequence[Sequence[int]], shape: tuple[int, int]
) -> list[Matrix]:
    """Basis of the space of r x c integer matrices killed by linear constraints.

    Each constraint is a flat row of r*c coefficients against the row-major
    matrix entries.  With no constraints this is the full matrix space.
    """
    nrows, ncols = shape
    size = nrows * ncols
    for row in constraints:
        if len(row) != size:
            raise ValueError(f"constraint length {len(row)} does not match shape {shape}")
    flat = nullspace(constraints, size)
    return [
        tuple(tuple(vec[i * ncols + j] for j in range(ncols)) for i in range(nrows))
        for vec in flat
    ]


# -- invariant forms -----------------------------------------------------------


def invariance_rows(m: Matrix) -> list[tuple[int, ...]]:
    """Rows of the linear system M^T X M - X = 0 in the n^2 entries of X."""
    n = len(m)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                mki = m[k][i]
                if not mki:
                    continue
                for l in range(n):
                    if m[l][j]:
                        row[k * n + l] += mki * m[l][j]
            row[i * n + j] -= 1
            if any(row):
                rows.append(tuple(row))
    return rows


def antisymmetry_rows(n: int) -> list[tuple[int, ...]]:
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [0] * (n * n)
            row[i * n + j] += 1
            row[j * n + i] += 1
            rows.append(tuple(row))
    return rows


def symmetry_rows(n: int) -> list[tuple[int, ...]]:
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [0] * (n * n)
            row[i * n + j] += 1
            row[j * n + i] -= 1
            rows.append(tuple(row))
    return rows


def invariant_alternating_space(gen: GeneratorPair) -> list[Matrix]:
    n = gen.degree
    # The sparse antisymmetry rows go first; they clear half the unknowns
    # cheaply before the dense invariance rows enter the elimination.
    rows = antisymmetry_rows(n) + invariance_rows(gen.a) + invariance_rows(gen.b)
    return kernel_basis(rows, (n, n))


def symmetric_invariant_dimension(gen: GeneratorPair) -> int:
    """Dimension of invariant symmetric forms (0 exactly when the symmetric
    space attached to the pair carries no invariant quadratic form)."""
    n = gen.degree
    rows = symmetry_rows(n) + invariance_rows(gen.a) + invariance_rows(gen.b)
    return len(kernel_basis(rows, (n, n)))


def kernel_symplectic_form(gen: GeneratorPair, v: Vector | None = None) -> Matrix:
    """The invariant alternating form from the kernel: primitive, Omega(v, e_n) > 0."""
    basis = invariant_alternating_space(gen)
    assert len(basis) == 1, f"alternating space has dimension {len(basis)}"
    omega = basis[0]
    if v is None:
        v = transvection_vector(gen)
    n = gen.degree
    v_en = sum(v[i] * omega[i][n - 1] for i in range(n))
    assert v_en != 0
    if v_en < 0:
        omega = tuple(tuple(-x for x in row) for row in omega)
    return omega


# -- witness search --------------------------------------------------------------


def canonical_search(
    pair: QualifiedPair, max_depth: int
) -> tuple[Optional[Word], tuple[tuple[int, int], ...], tuple[Word, ...]]:
    """(canonical witness or None, per-depth word counts, every passing word
    of the minimal length), testing the levels 1 .. max_depth in order."""
    gen = build_generators(pair)
    v = transvection_vector(gen)
    per_depth = []
    for depth in range(1, max_depth + 1):
        words = [
            Word(letters)
            for letters in product(range(4), repeat=depth)
            if all(y != inverse_letter(x) for x, y in zip(letters, letters[1:]))
        ]
        per_depth.append((depth, len(words)))
        hits = []
        for word in words:
            m = evaluate_word(word, gen)
            mv = mat_vec(m, v)
            if mv[-1] in (1, -1, 2, -2) and linearly_independent(
                (v, mv, mat_vec(unimodular_inverse(m), v))
            ):
                hits.append(word)
        if hits:
            return hits[0], tuple(per_depth), tuple(hits)
    return None, tuple(per_depth), ()


@dataclass(frozen=True)
class ReferenceResult:
    found: bool
    word: Optional[Word]
    nodes: int


def reference_search(pair: QualifiedPair, max_depth: int) -> ReferenceResult:
    """First-hit recursive search, as plain as possible.

    Checks each node before its children (the empty word included), walks
    children in canonical order skipping only the letter that would cancel,
    multiplies complete matrices at every step and inverts with the generic
    routine.  Stops at the first passing word in preorder, which need not be
    the canonical witness; use it to cross-check existence and depth bounds.
    """
    gen = build_generators(pair)
    v = transvection_vector(gen)
    n = gen.degree
    counter = [0]

    def passes(m: Matrix) -> bool:
        counter[0] += 1
        mv = mat_vec(m, v)
        if mv[n - 1] not in (1, -1, 2, -2):
            return False
        miv = mat_vec(unimodular_inverse(m), v)
        return linearly_independent((miv, v, mv))

    def walk(m: Matrix, path: list[int], last: Optional[int]):
        if passes(m):
            return tuple(path)
        if len(path) == max_depth:
            return None
        for y in range(4):
            if last is not None and y == inverse_letter(last):
                continue
            path.append(y)
            hit = walk(mat_mul(m, gen.letter_matrix(y)), path, y)
            if hit is not None:
                return hit
            path.pop()
        return None

    hit = walk(identity_matrix(n), [], None)
    if hit is None:
        return ReferenceResult(found=False, word=None, nodes=counter[0])
    return ReferenceResult(found=True, word=Word(hit), nodes=counter[0])
