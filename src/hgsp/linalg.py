"""Exact dense linear algebra over the integers.

Matrices are tuples of row tuples and vectors are plain tuples, so every
value is hashable and immutable.  The one system the library solves is
square (the Krylov system of the invariant form): solve_scaled runs
Bareiss fraction-free elimination on it and an exact integer back
substitution, so no rational number is ever formed.
Independence of three vectors is their Gram determinant, in closed form.
A companion matrix A sends e_j to e_(j+1) for j < n - 1, so A is fixed by
its last column and A^-1 by its first, and four O(n) steps act with them
on ints of any size: A x, r^T A, A^-1 x and r^T A^-1.
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


def dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


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


# -- independence and solving -------------------------------------------------


def linearly_independent(x: Vector, y: Vector, z: Vector) -> bool:
    """Whether x, y, z are independent: their Gram determinant, by
    Cauchy-Binet the sum of the squares of the 3 x 3 minors, is nonzero."""
    if not len(x) == len(y) == len(z):
        raise ValueError("vectors of unequal length")
    xx, xy, xz = dot(x, x), dot(x, y), dot(x, z)
    yy, yz, zz = dot(y, y), dot(y, z), dot(z, z)
    return xx * (yy * zz - yz * yz) - xy * (xy * zz - yz * xz) + xz * (xy * yz - yy * xz) != 0


def solve_scaled(a: Matrix, y: Vector) -> tuple[int, Vector]:
    """Solve a x = y for square a without leaving the integers.

    Returns (det a, det(a) x), an integer vector by Cramer's rule, or
    (0, ()) for singular a.  One Bareiss pass triangularizes [a | y]: the
    one-step update keeps every entry an integer minor of the input, so
    its divisions are exact, and a column with no pivot left makes a
    singular.  The back substitution then solves U x' = det(a) y', y' the
    eliminated right side, for x' = det(a) x; every division is exact
    because its quotient is an entry of the integer vector x'.
    """
    n = len(a)
    work = [list(row) + [yi] for row, yi in zip(a, y)]
    prev, sign = 1, 1
    for c in range(n):
        sel = next((i for i in range(c, n) if work[i][c]), None)
        if sel is None:
            return 0, ()
        if sel != c:
            work[c], work[sel], sign = work[sel], work[c], -sign
        piv_row, piv = work[c], work[c][c]
        for row in work[c + 1 :]:
            t = row[c]
            for j in range(c + 1, n + 1):
                row[j] = (piv * row[j] - t * piv_row[j]) // prev
        prev = piv
    det = sign * prev
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = work[i]
        x[i] = (det * row[n] - dot(row[i + 1 : n], x[i + 1 :])) // row[i]
    return det, tuple(x)
