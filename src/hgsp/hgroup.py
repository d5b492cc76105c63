"""Group data attached to a qualified pair.

The group is generated by the companion matrices A of f and B of g.  The
element A^-1 B is a transvection; its direction vector v = (A^-1 B - I) e_n
has i-th entry equal to the coefficient of x^i in f - g.  The full group
preserves a unique (up to scale) nondegenerate alternating bilinear form,
recovered here from one Krylov solve: since A^-1 B - I = v e_n^T, every
invariant alternating form Omega has (A^k v)^T Omega = mu e_n^T A^-k, so
K^T Omega = mu R with K = [v, Av, ..., A^(n-1) v].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .linalg import (
    Matrix,
    Vector,
    companion_inverse,
    companion_matrix,
    determinant,
    mat_vec,
    solve_scaled,
    transpose,
)
from .pairs import QualifiedPair


class InvariantFormError(ValueError):
    pass


class DegenerateFormError(InvariantFormError):
    def __init__(self) -> None:
        super().__init__("invariant alternating form is degenerate")


@dataclass(frozen=True)
class GeneratorPair:
    """Companion matrices of f and g with their inverses, all unimodular."""

    a: Matrix
    b: Matrix
    a_inv: Matrix
    b_inv: Matrix
    degree: int


@dataclass(frozen=True)
class SymplecticForm:
    """The invariant alternating form, primitive integer, Omega(v, e_n) > 0."""

    omega: Matrix
    degree: int

    def pairing(self, x: Vector, y: Vector) -> int:
        return sum(
            xi * sum(wij * yj for wij, yj in zip(row, y))
            for xi, row in zip(x, self.omega)
        )


def build_generators(pair: QualifiedPair) -> GeneratorPair:
    return GeneratorPair(
        a=companion_matrix(pair.f),
        b=companion_matrix(pair.g),
        a_inv=companion_inverse(pair.f),
        b_inv=companion_inverse(pair.g),
        degree=pair.degree,
    )


def transvection_vector(gen: GeneratorPair) -> Vector:
    """v = (A^-1 B - I) e_n, the direction of the transvection A^-1 B."""
    c_en = mat_vec(gen.a_inv, tuple(row[-1] for row in gen.b))
    return c_en[:-1] + (c_en[-1] - 1,)


# -- invariant form -----------------------------------------------------------


def preserves_form(omega: Matrix, last_columns: Sequence[Vector]) -> bool:
    """M^T omega M == omega for every companion matrix M with one of
    last_columns, for alternating omega, in O(n^2) (the identity is stated
    in invariant_symplectic_form)."""
    if any(lo[1:] != hi[:-1] for hi, lo in zip(omega, omega[1:])):
        return False
    last = tuple(row[-1] for row in omega[:-1])
    return all(mat_vec(omega, c)[1:] == last for c in last_columns)


def invariant_symplectic_form(
    gen: GeneratorPair, v: Vector | None = None
) -> SymplecticForm:
    """The invariant alternating form, made unique by normalization.

    With u the transvection vector of gen, solve K^T Omega = R for
    K = [u, Au, ..., A^(n-1) u] and R the rows e_n^T A^-k, k = 0 .. n-1.
    When K is nonsingular (u is cyclic for A) every invariant alternating
    form is a multiple of this one, and the checks below (antisymmetry,
    invariance under A and B, nonzero determinant) show that it is one.

    Invariance is checked without forming M^T Omega M; indices run from 0
    here.  A is checked to be a companion matrix and B shares its first n-1
    columns, so each M of A, B sends e_j to e_(j+1) for j < n-1 and e_(n-1)
    to its last column c_M.  The (i, j) entry of M^T Omega M is then
    Omega[i+1][j+1] for i, j < n-1 and (Omega c_M)[i+1] for i < n-1,
    j = n-1; the rest follows by antisymmetry, with c_M^T Omega c_M = 0.
    So for alternating Omega, M^T Omega M = Omega exactly when

        Omega[i+1][j+1] = Omega[i][j]      for i, j < n-1 (shared by A, B),
        (Omega c_M)[i+1] = Omega[i][n-1]   for i < n-1,

    one matrix-vector product per generator (preserves_form).

    The result is divided by its content and its sign fixed so that
    Omega(v, e_n) > 0, with v defaulting to u.  Raises InvariantFormError
    when A is not a companion matrix, K is singular or a check fails,
    DegenerateFormError when the form or its pairing of v with e_n is
    degenerate.
    """
    n = gen.degree
    if any(ra[:-1] != rb[:-1] for ra, rb in zip(gen.a, gen.b)):
        raise InvariantFormError("A^-1 B does not fix e_1 .. e_(n-1)")
    if any(row[:-1] != tuple(int(i == j + 1) for j in range(n - 1))
           for i, row in enumerate(gen.a)):
        raise InvariantFormError("A is not a companion matrix")
    u = transvection_vector(gen)
    krylov = [u]
    rows = [tuple(1 if i == n - 1 else 0 for i in range(n))]
    a_inv_t = transpose(gen.a_inv)
    for _ in range(n - 1):
        krylov.append(mat_vec(gen.a, krylov[-1]))
        rows.append(mat_vec(a_inv_t, rows[-1]))
    det, cols = solve_scaled(krylov, rows)
    if det == 0:
        raise InvariantFormError("transvection vector is not cyclic for A")
    content = 0
    for col in cols:
        for x in col:
            content = gcd(content, x)
    omega = tuple(tuple(x // content for x in row) for row in zip(*cols))
    if omega != tuple(tuple(-x for x in col) for col in zip(*omega)):
        raise InvariantFormError("Krylov solution is not alternating")
    last_columns = [tuple(row[-1] for row in m) for m in (gen.a, gen.b)]
    if not preserves_form(omega, last_columns):
        raise InvariantFormError("Krylov solution is not invariant")
    if determinant(omega) == 0:
        raise DegenerateFormError()
    if v is None:
        v = u
    v_en = sum(v[i] * omega[i][n - 1] for i in range(n))
    if v_en == 0:
        raise DegenerateFormError()
    if v_en < 0:
        omega = tuple(tuple(-x for x in row) for row in omega)
    return SymplecticForm(omega=omega, degree=n)
