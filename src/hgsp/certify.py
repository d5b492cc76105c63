"""Full verification of an arithmeticity witness.

Given a qualified pair and a word gamma, the certificate checks, in order:
the last entry c of gamma(v) lies in {+-1, +-2}; the vectors w1 = v,
w2 = gamma^-1(v), w3 = gamma(v) are linearly independent; the invariant
form pairs v trivially with e_1 .. e_{n-1} but not with e_n and satisfies
Omega(gamma v, v) = -c Omega(v, e_n); the three conjugates C1 = A^-1 B,
C2 = gamma^-1 C1 gamma, C3 = gamma C1 gamma^-1 are transvections; the
radical of the form restricted to W = span{w1, w2, w3} is spanned by a
single vector e fixed by every Ci; and in the basis {e, w1, w2} the
restrictions take the shapes

    C1|W = (1 0  0)      C2|W = (1 0 0)      C3|W = (1 l1 m1)
           (0 1 -c)             (0 1 0)             (0 l2 m2)
           (0 0  1)             (0 c 1)             (0 l3 m3)

with l1 nonzero and the lower right 2x2 block U of C3|W unipotent
(tr U = 2 and det U = 1).

No n x n matrix is ever multiplied.  The companion matrices A and B share
their first n - 1 columns, so B - A = x e_n^T for x its last column, and
C1 = A^-1 B = I + (A^-1 x) e_n^T = I + v e_n^T exactly.  Conjugating,

    C2 = I + w2 r2^T with r2^T = e_n^T gamma,
    C3 = I + w3 r3^T with r3^T = e_n^T gamma^-1,

and w2, w3, r2, r3 take one O(n) step per letter each.  A map
I + u r^T is a transvection (rank(C - I) = 1 and (C - I)^2 = 0) exactly
when u and r are nonzero and r . u = 0, since (u r^T)^2 = (r . u) u r^T,
and it sends b to b + (r . b) u.

Each Ci is I + u r^T with u one of w1, w2, w3, so it maps W into itself,
and in the basis {e, w1, w2} its restriction is I + a s^T, where a holds
the coordinates of u and s = (r . e, r . w1, r . w2).  For C1 and C2,
a = (0, 1, 0) and (0, 0, 1).  For C3, the radical vector gives
k e = G12 w1 - G02 w2 + G01 w3, with G the Gram matrix of the form on
w1, w2, w3 and k the signed content that e is divided by, so
a = (k, -G12, G02) / G01.  Hence {e, w1, w2} is a basis exactly when
G01 != 0, and e is fixed by every Ci exactly when r . e = 0 for all three
(each u is nonzero).  All of this runs in exact integer arithmetic on
G01 times the restrictions; the only rational division is by G01, in the
reported matrix entries.  The report carries one flag per check plus the
computed objects, and the verdict is their conjunction.

The form enters through the row v^T Omega, computed once.  Its entries are
Omega(v, e_j), so it gives omega_v_en and the prefix-zero check directly,
and since Omega is alternating, Omega(x, v) = -(v^T Omega) . x gives
Omega(w3, v) (the word relation, and G02) and G01 = Omega(w2, v) with one
dot product each.  G12 = Omega(w3, w2) stays a pairing: invariance turns
it into Omega(gamma^2 v, v) = -(v^T Omega) . gamma^2 v only when w2 and w3
are the word's true images of v, which the certificate does not assume of
the vectors it reads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .hgroup import build_generators, invariant_symplectic_form, transvection_vector
from .linalg import Matrix, Vector, dot, linearly_independent, mat_vec
from .pairs import QualifiedPair
from .words import Word, word_images, word_row_images

RatMatrix = tuple[tuple[Fraction, ...], ...]

CHECK_ORDER = (
    "last_entry",
    "independence",
    "omega_v_prefix_zero",
    "omega_v_last_nonzero",
    "omega_word_relation",
    "c1_transvection",
    "c2_transvection",
    "c3_transvection",
    "radical_dimension",
    "basis",
    "fixed_e",
    "c1_form",
    "c2_form",
    "c3_first_column",
    "l1_nonzero",
    "u_unipotent",
)


@dataclass(frozen=True)
class CertificateReport:
    pair_id: str
    word: str
    degree: int
    c: int
    omega_v_en: int
    last_entry_ok: bool
    independence_ok: bool
    omega_v_prefix_zero_ok: bool
    omega_v_last_nonzero_ok: bool
    omega_word_relation_ok: bool
    c1_transvection_ok: bool
    c2_transvection_ok: bool
    c3_transvection_ok: bool
    radical_dimension: Optional[int] = None
    radical_dimension_ok: Optional[bool] = None
    basis_ok: Optional[bool] = None
    e_vector: Optional[Vector] = None
    fixed_e_ok: Optional[bool] = None
    c1_restriction: Optional[RatMatrix] = None
    c2_restriction: Optional[RatMatrix] = None
    c3_restriction: Optional[RatMatrix] = None
    c1_form_ok: Optional[bool] = None
    c2_form_ok: Optional[bool] = None
    c3_first_column_ok: Optional[bool] = None
    l1: Optional[Fraction] = None
    l1_nonzero_ok: Optional[bool] = None
    u_unipotent_ok: Optional[bool] = None
    verdict: bool = False
    first_failure: Optional[str] = None

    def to_json(self) -> dict:
        """The fields in order, with tuples as lists and fractions as strings."""

        def plain(x):
            if isinstance(x, tuple):
                return [plain(y) for y in x]
            return str(x) if isinstance(x, Fraction) else x

        return {name: plain(x) for name, x in asdict(self).items()}


def _primitive(vec: Sequence[int]) -> tuple[int, Vector]:
    """(k, vec / k) for k the content of vec, signed so vec / k leads positive."""
    k = math.gcd(*vec)
    if next(x for x in vec if x) < 0:
        k = -k
    return k, tuple(x // k for x in vec)


def _transvection(u: Vector, r: Vector) -> bool:
    """Whether I + u r^T is a transvection: u, r nonzero and r . u = 0."""
    return any(u) and any(r) and dot(r, u) == 0


def _scaled_restriction(a: Sequence[int], r: Vector, basis: Sequence[Vector], d: int) -> Matrix:
    """d (I + u r^T)|W in the basis, for u with coordinates a / d in it."""
    s = [dot(r, b) for b in basis]
    return tuple(tuple(d * (i == j) + a[i] * s[j] for j in range(3)) for i in range(3))


def verify_witness(pair: QualifiedPair, word: Word) -> CertificateReport:
    gen = build_generators(pair)
    v = transvection_vector(gen)
    form = invariant_symplectic_form(gen, v)
    n = gen.degree
    unit = lambda j: tuple(1 if i == j else 0 for i in range(n))
    w1 = v
    w3, w2 = word_images(gen.columns, v, word.letters)
    r2, r3 = word_row_images(gen.columns, unit(n - 1), word.letters)
    c = w3[n - 1]

    checks: dict[str, Optional[bool]] = dict.fromkeys(CHECK_ORDER)
    checks["last_entry"] = c in (1, -1, 2, -2)
    checks["independence"] = linearly_independent(w1, w2, w3)

    v_omega = tuple([-x for x in mat_vec(form.omega, v)])  # v^T Omega, Omega alternating
    omega_v_en = v_omega[n - 1]
    omega_w3_v = -dot(v_omega, w3)
    checks["omega_v_prefix_zero"] = not any(v_omega[:-1])
    checks["omega_v_last_nonzero"] = omega_v_en != 0
    checks["omega_word_relation"] = omega_w3_v == -c * omega_v_en

    conjugates = ((v, unit(n - 1)), (w2, r2), (w3, r3))  # C1, C2, C3
    for name, (u, r) in zip(("c1", "c2", "c3"), conjugates):
        checks[name + "_transvection"] = _transvection(u, r)

    radical_dim: Optional[int] = None
    e_vec: Optional[Vector] = None
    restrictions: list[Optional[RatMatrix]] = [None, None, None]
    l1: Optional[Fraction] = None

    if checks["independence"]:
        # G_ij = Omega(w_j, w_i).  An alternating 3x3 Gram matrix has rank 0
        # or 2; when it is nonzero its radical is spanned by (G12, -G02, G01).
        coeffs = (form.pairing(w3, w2), -omega_w3_v, -dot(v_omega, w2))
        radical_dim = 1 if any(coeffs) else 3
        checks["radical_dimension"] = radical_dim == 1
        if checks["radical_dimension"]:
            k, e_vec = _primitive(
                tuple(dot(coeffs, col) for col in zip(w1, w2, w3))
            )
            d = coeffs[2]  # G01
            checks["basis"] = d != 0
            if checks["basis"]:
                checks["fixed_e"] = all(dot(r, e_vec) == 0 for _, r in conjugates)
                # d times the coordinates of w1, w2 and w3 in {e, w1, w2}
                coords = ((0, d, 0), (0, 0, d), (k, -coeffs[0], -coeffs[1]))
                s1, s2, s3 = (
                    _scaled_restriction(a, r, (e_vec, w1, w2), d)
                    for a, (_, r) in zip(coords, conjugates)
                )
                restrictions = [
                    tuple(tuple(Fraction(x, d) for x in row) for row in s)
                    for s in (s1, s2, s3)
                ]
                checks["c1_form"] = s1 == ((d, 0, 0), (0, d, -c * d), (0, 0, d))
                checks["c2_form"] = s2 == ((d, 0, 0), (0, d, 0), (0, c * d, d))
                checks["c3_first_column"] = (s3[0][0], s3[1][0], s3[2][0]) == (d, 0, 0)
                l1 = restrictions[2][0][1]
                checks["l1_nonzero"] = s3[0][1] != 0
                trace_u = s3[1][1] + s3[2][2]
                det_u = s3[1][1] * s3[2][2] - s3[1][2] * s3[2][1]
                checks["u_unipotent"] = trace_u == 2 * d and det_u == d * d

    verdict = all(checks.values())
    first_failure = next(
        (name for name in CHECK_ORDER if checks[name] is not True), None
    )

    return CertificateReport(
        pair_id=pair.pair_id,
        word=str(word),
        degree=n,
        c=c,
        omega_v_en=omega_v_en,
        radical_dimension=radical_dim,
        e_vector=e_vec,
        c1_restriction=restrictions[0],
        c2_restriction=restrictions[1],
        c3_restriction=restrictions[2],
        l1=l1,
        verdict=verdict,
        first_failure=first_failure,
        **{name + "_ok": checks[name] for name in CHECK_ORDER},
    )
