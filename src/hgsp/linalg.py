"""Exact dense linear algebra over the integers.

Matrices are tuples of row tuples and vectors are plain tuples, so every
value is hashable and safe to share across worker processes.  Rank,
determinant and solving all run one routine, Bareiss fraction-free
elimination on integer rows; solving finishes with an exact integer back
substitution, so no rational number is ever formed.  A companion matrix
A sends e_j to e_(j+1) for j < n - 1, so A is fixed by its last column and
A^-1 by its first, and four O(n) steps act with them on ints of any size:
A x, r^T A, A^-1 x and r^T A^-1.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .poly import IntPoly

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


class NonUnimodularError(ValueError):
    """An integer matrix whose determinant is not a unit."""

    def __init__(self, determinant: int):
        self.determinant = determinant
        super().__init__(f"matrix is not unimodular (determinant {determinant})")


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if len(a[0]) != len(v):
        raise ValueError("shape mismatch in matrix-vector product")
    return tuple([sum(map(mul, row, v)) for row in a])


def companion_matrix(p: IntPoly) -> Matrix:
    """Companion matrix with ones on the subdiagonal and -coefficients in the
    last column, so the characteristic polynomial is p itself.

    For x^2 - 3x + 1 this is ((0, -1), (1, 3)).
    """
    n = _companion_degree(p)
    return tuple(
        tuple(int(i == j + 1) for j in range(n - 1)) + (-c,)
        for i, c in enumerate(p.coeffs[:n])
    )


def inverse_first_column(p: IntPoly) -> Vector:
    """First column of the inverse of companion_matrix(p), the preimage of
    e_0: -(c_1, ..., c_(n-1), 1) / c_0, integral exactly when c_0 = +-1
    (NonUnimodularError otherwise).  For x^2 - 3x + 1 this is (3, -1)."""
    n = _companion_degree(p)
    c0 = p.constant_term
    if c0 not in (1, -1):
        raise NonUnimodularError(-c0 if n % 2 else c0)
    return tuple([-c0 * c for c in p.coeffs[1:]])


def companion_step(last: Vector, x: Vector) -> Vector:
    """A x in O(n) for the companion matrix A with last column `last`:
    (A x)_0 = last_0 x_(n-1) and (A x)_i = x_(i-1) + last_i x_(n-1)."""
    t = x[-1]
    return (last[0] * t,) + tuple([xi + ci * t for xi, ci in zip(x, last[1:])])


def companion_row_step(last: Vector, r: Vector) -> Vector:
    """r^T A in O(n) for the companion matrix A with last column `last`:
    (r_1, ..., r_(n-1), r . last)."""
    return r[1:] + (sum(map(mul, r, last)),)


def inverse_step(first: Vector, x: Vector) -> Vector:
    """A^-1 x in O(n) for the companion inverse with first column `first`
    and e_0 .. e_(n-2) after it: (A^-1 x)_i = x_(i+1) + first_i x_0, x_n = 0."""
    t = x[0]
    return tuple([xi + ci * t for xi, ci in zip(x[1:], first)]) + (first[-1] * t,)


def inverse_row_step(first: Vector, r: Vector) -> Vector:
    """r^T A^-1 in O(n) for the companion inverse A^-1 with first column
    `first`: (r . first, r_0, ..., r_(n-2))."""
    return (sum(map(mul, r, first)),) + r[:-1]


def _companion_degree(p: IntPoly) -> int:
    if not p.is_monic():
        raise ValueError("companion matrix requires a monic polynomial")
    if p.degree < 1:
        raise ValueError("companion matrix requires degree >= 1")
    return p.degree


# -- fraction-free elimination ----------------------------------------------


def _bareiss_echelon(rows: Sequence[Sequence[int]], ncols: int):
    """Forward eliminate; return (echelon rows, pivot columns, swap parity).

    The one-step Bareiss update keeps every intermediate entry an integer
    minor of the input, so all the divisions below are exact.
    """
    work = [list(r) for r in rows]
    for r in work:
        if len(r) != ncols:
            raise ValueError("ragged constraint rows")
    pivot_cols: list[int] = []
    rank = 0
    prev = 1
    swaps = 0
    for c in range(ncols):
        sel = None
        for i in range(rank, len(work)):
            if work[i][c]:
                sel = i
                break
        if sel is None:
            continue
        if sel != rank:
            work[rank], work[sel] = work[sel], work[rank]
            swaps += 1
        piv_row = work[rank]
        piv = piv_row[c]
        for i in range(rank + 1, len(work)):
            row = work[i]
            t = row[c]
            if t:
                for j in range(c + 1, ncols):
                    row[j] = (piv * row[j] - t * piv_row[j]) // prev
            elif prev != 1 or piv != 1:
                for j in range(c + 1, ncols):
                    if row[j]:
                        row[j] = piv * row[j] // prev
            row[c] = 0
        pivot_cols.append(c)
        prev = piv
        rank += 1
        if rank == len(work):
            break
    return work[:rank], pivot_cols, swaps


def rank(rows: Sequence[Sequence[int]], ncols: int | None = None) -> int:
    rows = [tuple(r) for r in rows]
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    return len(_bareiss_echelon(rows, ncols)[1])


def linearly_independent(vectors: Sequence[Sequence[int]]) -> bool:
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return True
    if len({len(v) for v in vectors}) != 1:
        raise ValueError("vectors of unequal length")
    return rank(vectors) == len(vectors)


def determinant(a: Matrix) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    ech, pivots, swaps = _bareiss_echelon(a, n)
    if len(pivots) < n:
        return 0
    d = ech[n - 1][pivots[n - 1]]
    return -d if swaps % 2 else d


# -- solving -------------------------------------------------------------------


def solve_scaled(a: Matrix, rhs: Sequence[Sequence[int]]) -> tuple[int, list[Vector]]:
    """Solve a x = y for every column y of rhs without leaving the integers.

    Returns (det a, xs) where each x in xs is det(a) times the solution, an
    integer vector by Cramer's rule; for singular a it returns (0, []).  One
    Bareiss pass triangularizes [a | rhs]; the back substitution then solves
    U x = det(a) y', where every division is exact because its quotient is an
    entry of the integer vector x.
    """
    n = len(a)
    width = n + len(rhs[0])
    ech, pivots, swaps = _bareiss_echelon(
        [tuple(row) + tuple(y) for row, y in zip(a, rhs)], width
    )
    if pivots[:n] != list(range(n)):
        return 0, []
    det = -ech[n - 1][n - 1] if swaps % 2 else ech[n - 1][n - 1]
    xs = []
    for k in range(n, width):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = ech[i]
            s = det * row[k]
            for j in range(i + 1, n):
                s -= row[j] * x[j]
            x[i] = s // row[i]
        xs.append(tuple(x))
    return det, xs

