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
(tr U = 2 and det U = 1).  All of this runs in exact integer arithmetic:
the three restrictions come from one fraction-free solve of the 3x3 Gram
system of {e, w1, w2}, scaled by its determinant d, and rebuilding every
image from its coordinates shows whether it lies in W at all.  Fractions
appear only in the reported matrix entries.  The report carries one flag
per check plus the computed objects, and the verdict is their conjunction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .hgroup import (
    build_generators,
    invariant_symplectic_form,
    is_transvection,
    transvection_vector,
)
from .linalg import Matrix, Vector, linearly_independent, mat_mul, mat_vec, solve_scaled
from .pairs import QualifiedPair
from .words import Word, evaluate_word

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


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(x, y))


def _primitive(vec: Sequence[int]) -> Vector:
    g = math.gcd(*vec)
    sign = -1 if next(x for x in vec if x) < 0 else 1
    return tuple(sign * x // g for x in vec)


def _scaled_restrictions(
    basis: Sequence[Vector], maps: Sequence[Matrix]
) -> tuple[int, list[Optional[Matrix]]]:
    """(d, [d * M|span(basis) for M in maps]) for d the Gram determinant.

    The Gram system G x = B^T y, solved once for every image y, gives
    the coordinates of y's projection onto the span; y lies in the span
    exactly when B (d x) == d y, and a map with an image outside it gets
    None.  d is 0 exactly when the basis is dependent.
    """
    images = [mat_vec(m, b) for m in maps for b in basis]
    gram = tuple(tuple(_dot(x, y) for y in basis) for x in basis)
    d, xs = solve_scaled(gram, [[_dot(b, y) for y in images] for b in basis])
    if d == 0:
        return 0, [None] * len(maps)
    inside = [
        all(_dot(x, col) == d * yi for col, yi in zip(zip(*basis), y))
        for x, y in zip(xs, images)
    ]
    k = len(basis)
    return d, [
        tuple(zip(*xs[t : t + k])) if all(inside[t : t + k]) else None
        for t in range(0, len(xs), k)
    ]


def verify_witness(pair: QualifiedPair, word: Word) -> CertificateReport:
    gen = build_generators(pair)
    v = transvection_vector(gen)
    form = invariant_symplectic_form(gen, v)
    n = gen.degree
    gamma = evaluate_word(word, gen)
    gamma_inv = evaluate_word(word.inverse(), gen)
    w1 = v
    w2 = mat_vec(gamma_inv, v)
    w3 = mat_vec(gamma, v)
    c = w3[n - 1]

    checks: dict[str, Optional[bool]] = dict.fromkeys(CHECK_ORDER)
    checks["last_entry"] = c in (1, -1, 2, -2)
    checks["independence"] = linearly_independent((w1, w2, w3))

    unit = lambda j: tuple(1 if i == j else 0 for i in range(n))
    omega_v_en = form.pairing(v, unit(n - 1))
    checks["omega_v_prefix_zero"] = all(
        form.pairing(v, unit(j)) == 0 for j in range(n - 1)
    )
    checks["omega_v_last_nonzero"] = omega_v_en != 0
    checks["omega_word_relation"] = form.pairing(w3, v) == -c * omega_v_en

    c1 = mat_mul(gen.a_inv, gen.b)
    c2 = mat_mul(mat_mul(gamma_inv, c1), gamma)
    c3 = mat_mul(mat_mul(gamma, c1), gamma_inv)
    checks["c1_transvection"] = is_transvection(c1)
    checks["c2_transvection"] = is_transvection(c2)
    checks["c3_transvection"] = is_transvection(c3)

    radical_dim: Optional[int] = None
    e_vec: Optional[Vector] = None
    restrictions: list[Optional[RatMatrix]] = [None, None, None]
    l1: Optional[Fraction] = None

    if checks["independence"]:
        gram = [
            tuple(form.pairing(wj, wi) for wj in (w1, w2, w3))
            for wi in (w1, w2, w3)
        ]
        # An alternating 3x3 Gram matrix has rank 0 or 2; when it is nonzero
        # its radical is spanned by (G12, -G02, G01).
        coeffs = (gram[1][2], -gram[0][2], gram[0][1])
        radical_dim = 1 if any(coeffs) else 3
        checks["radical_dimension"] = radical_dim == 1
        if checks["radical_dimension"]:
            e_vec = _primitive(
                tuple(_dot(coeffs, col) for col in zip(w1, w2, w3))
            )
            d, scaled = _scaled_restrictions((e_vec, w1, w2), (c1, c2, c3))
            checks["basis"] = d != 0
            if checks["basis"]:
                checks["fixed_e"] = all(
                    mat_vec(m, e_vec) == e_vec for m in (c1, c2, c3)
                )
                restrictions = [
                    None if s is None
                    else tuple(tuple(Fraction(x, d) for x in row) for row in s)
                    for s in scaled
                ]
                s1, s2, s3 = scaled
                if None in scaled:
                    # Some image escapes W; report it on the form checks.
                    checks["c1_form"] = s1 is not None
                    checks["c2_form"] = s2 is not None
                    checks["c3_first_column"] = s3 is not None
                else:
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
