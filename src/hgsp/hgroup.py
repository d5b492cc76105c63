"""Group data attached to a qualified pair.

The group is generated by the companion matrices A of f and B of g; each
letter is a shift but for one column (GeneratorPair.columns) and acts in
O(n).  The element A^-1 B is a transvection; its direction vector
v = (A^-1 B - I) e_n has i-th entry equal to the coefficient of x^i in
f - g.  The full group preserves a unique (up to scale) nondegenerate
alternating bilinear form, recovered here from one column of one Krylov
solve.

Since A^-1 B - I = v e_n^T, every invariant alternating form Omega has
v^T Omega = mu e_n^T with mu = Omega(v, e_n), hence
(A^k v)^T Omega = mu e_n^T A^-k and K^T Omega = mu R, with
K = [v, Av, ..., A^(n-1) v] and R the rows e_n^T A^-k.  When K is
nonsingular, every such form is a multiple of (K^T)^-1 R, and as
det R = +-1, |det K det Omega| = |mu|^n: the form is nondegenerate exactly
when mu != 0, so no determinant is computed.  A sends e_j to
e_(j+1) for j < n, so A^T Omega A = Omega gives
Omega[i+1][j+1] = Omega[i][j]: Omega is Toeplitz, Omega[i][j] = t_(j-i),
and alternation makes t_(-k) = -t_k.  Its first column (-t_0, ..., -t_(n-1))
fixes all of it, so one right-hand side, R e_1, is solved instead of n.
Both Krylov sequences step in O(n), A x and r^T A^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Sequence

from .linalg import Matrix, Vector, companion_matrix, companion_step, dot, mat_vec
from .linalg import inverse_first_column, inverse_row_step, inverse_step, solve_scaled
from .pairs import QualifiedPair
from .poly import IntPoly


class InvariantFormError(ValueError):
    pass


class DegenerateFormError(InvariantFormError):
    def __init__(self) -> None:
        super().__init__("invariant alternating form is degenerate")


@dataclass(frozen=True)
class GeneratorPair:
    """The generators A and B, the companion matrices of f and g, which
    construction checks are monic of one degree with constant term +-1."""

    f: IntPoly
    g: IntPoly

    def __post_init__(self) -> None:
        if self.f.degree != self.g.degree:
            raise ValueError("f and g must have one degree")
        self.columns  # raises unless f and g are monic with constant term +-1

    @property
    def degree(self) -> int:
        return self.f.degree

    @cached_property
    def columns(self) -> tuple[Vector, Vector, Vector, Vector]:
        """In letter order: the last columns of A and B and the first
        columns of A^-1 and B^-1; each fixes its letter's matrix."""
        firsts = [inverse_first_column(p) for p in (self.f, self.g)]  # checks f and g
        lasts = [tuple([-c for c in p.coeffs[:-1]]) for p in (self.f, self.g)]
        return (*lasts, *firsts)

    @property
    def a(self) -> Matrix:
        return companion_matrix(self.f)

    @property
    def b(self) -> Matrix:
        return companion_matrix(self.g)


@dataclass(frozen=True)
class SymplecticForm:
    """The invariant alternating form, primitive integer, Omega(v, e_n) > 0."""

    omega: Matrix

    def pairing(self, x: Vector, y: Vector) -> int:
        return dot(x, mat_vec(self.omega, y))


def build_generators(pair: QualifiedPair) -> GeneratorPair:
    return GeneratorPair(pair.f, pair.g)


def transvection_vector(gen: GeneratorPair) -> Vector:
    """v = (A^-1 B - I) e_n, the direction of the transvection A^-1 B."""
    c_en = inverse_step(gen.columns[2], gen.columns[1])  # A^-1 times B's last column
    return c_en[:-1] + (c_en[-1] - 1,)


# -- invariant form -----------------------------------------------------------


def preserves_form(omega: Matrix, last_columns: Sequence[Vector]) -> bool:
    """M^T omega M == omega for every companion matrix M with one of
    last_columns, for alternating Toeplitz omega, in O(n^2) (the identity
    is stated in invariant_symplectic_form)."""
    last = tuple(row[-1] for row in omega[:-1])
    return all(mat_vec(omega, c)[1:] == last for c in last_columns)


def invariant_symplectic_form(
    gen: GeneratorPair, v: Vector | None = None
) -> SymplecticForm:
    """The invariant alternating form, made unique by normalization.

    With u the transvection vector of gen, solve K^T y = det(K) R e_1 (K, R
    and the Toeplitz argument are in the module docstring) and take
    Omega[i][j] = t_(j-i) with t_k = -y_k / gcd(y) and t_(-k) = -t_k.
    Alternation then needs only y_0 = 0.

    Invariance is checked without forming M^T Omega M; indices run from 0
    here.  A and B are companion matrices, so each M of A, B sends e_j to
    e_(j+1) for j < n-1 and e_(n-1) to its last column c_M.  The (i, j)
    entry of M^T Omega M is then Omega[i+1][j+1] for i, j < n-1 and
    (Omega c_M)[i+1] for i < n-1, j = n-1; the rest follows by
    antisymmetry, with c_M^T Omega c_M = 0.  So for alternating Omega,
    M^T Omega M = Omega exactly when

        Omega[i+1][j+1] = Omega[i][j]      for i, j < n-1 (shared by A, B),
        (Omega c_M)[i+1] = Omega[i][n-1]   for i < n-1;

    Omega is built Toeplitz, so preserves_form checks only the second.

    K is nonsingular and R unimodular, so y is never zero.  The result is
    divided by its content and its sign fixed so that Omega(v, e_n) > 0,
    with v defaulting to u.  Raises InvariantFormError when K is singular
    or a check fails, DegenerateFormError when mu = Omega(u, e_n), and with
    it det Omega, or Omega(v, e_n) is zero.
    """
    n = gen.degree
    last_a, last_b, first_a, _ = gen.columns
    u = transvection_vector(gen)
    krylov = [u]
    row = (0,) * (n - 1) + (1,)
    rhs = [row[0]]
    for _ in range(n - 1):
        krylov.append(companion_step(last_a, krylov[-1]))
        row = inverse_row_step(first_a, row)
        rhs.append(row[0])
    det, y = solve_scaled(krylov, rhs)
    if det == 0:
        raise InvariantFormError("transvection vector is not cyclic for A")
    if y[0] != 0:
        raise InvariantFormError("Krylov solution is not alternating")
    content = gcd(*y)
    neg = tuple([x // content for x in y])
    t = tuple([-x for x in neg])
    # row i is -t_i, ..., -t_1, then t_0, ..., t_(n-1-i)
    omega = tuple(neg[i:0:-1] + t[: n - i] for i in range(n))
    if not preserves_form(omega, (last_a, last_b)):
        raise InvariantFormError("Krylov solution is not invariant")
    last = t[::-1]  # Omega[i][n-1] = t_(n-1-i), so Omega(x, e_n) = x . last
    mu = dot(u, last)
    v_en = mu if v is None else dot(v, last)
    if mu == 0 or v_en == 0:
        raise DegenerateFormError()
    if v_en < 0:
        omega = tuple(tuple(-x for x in row) for row in omega)
    return SymplecticForm(omega=omega)
