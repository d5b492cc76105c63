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

with l1 nonzero and the lower right 2x2 block of C3|W unipotent.  All of
this runs in exact rational arithmetic; the report carries one flag per
check plus the computed objects, and the verdict is their conjunction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .hgroup import (
    GeneratorPair,
    SymplecticForm,
    build_generators,
    invariant_symplectic_form,
    is_transvection,
    transvection_vector,
)
from .linalg import Vector, linearly_independent, mat_mul, mat_vec
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
        def frac(x):
            return str(x) if x is not None else None

        def frac_matrix(m):
            if m is None:
                return None
            return [[str(x) for x in row] for row in m]

        return {
            "pair_id": self.pair_id,
            "word": self.word,
            "degree": self.degree,
            "c": self.c,
            "omega_v_en": self.omega_v_en,
            "last_entry_ok": self.last_entry_ok,
            "independence_ok": self.independence_ok,
            "omega_v_prefix_zero_ok": self.omega_v_prefix_zero_ok,
            "omega_v_last_nonzero_ok": self.omega_v_last_nonzero_ok,
            "omega_word_relation_ok": self.omega_word_relation_ok,
            "c1_transvection_ok": self.c1_transvection_ok,
            "c2_transvection_ok": self.c2_transvection_ok,
            "c3_transvection_ok": self.c3_transvection_ok,
            "radical_dimension": self.radical_dimension,
            "radical_dimension_ok": self.radical_dimension_ok,
            "basis_ok": self.basis_ok,
            "e_vector": list(self.e_vector) if self.e_vector else None,
            "fixed_e_ok": self.fixed_e_ok,
            "c1_restriction": frac_matrix(self.c1_restriction),
            "c2_restriction": frac_matrix(self.c2_restriction),
            "c3_restriction": frac_matrix(self.c3_restriction),
            "c1_form_ok": self.c1_form_ok,
            "c2_form_ok": self.c2_form_ok,
            "c3_first_column_ok": self.c3_first_column_ok,
            "l1": frac(self.l1),
            "l1_nonzero_ok": self.l1_nonzero_ok,
            "u_unipotent_ok": self.u_unipotent_ok,
            "verdict": self.verdict,
            "first_failure": self.first_failure,
        }


def _coords_in_span(basis: Sequence[Vector], x: Vector) -> Optional[tuple[Fraction, ...]]:
    """Coordinates of x in the given (independent) vectors, or None if x is
    outside their span.  Plain rational elimination on the tall system."""
    n = len(x)
    k = len(basis)
    aug = [[Fraction(basis[j][i]) for j in range(k)] + [Fraction(x[i])] for i in range(n)]
    row = 0
    for col in range(k):
        sel = next((i for i in range(row, n) if aug[i][col]), None)
        if sel is None:
            return None  # basis not independent; caller checks that first
        aug[row], aug[sel] = aug[sel], aug[row]
        piv = aug[row][col]
        for i in range(n):
            if i != row and aug[i][col]:
                f = aug[i][col] / piv
                for j in range(col, k + 1):
                    aug[i][j] -= f * aug[row][j]
        row += 1
    # Any nonzero residue below the pivot rows means x is not in the span.
    for i in range(row, n):
        if aug[i][k]:
            return None
    return tuple(aug[r][k] / aug[r][r] for r in range(k))


def _restriction_matrix(
    basis: Sequence[Vector], images: Sequence[Vector]
) -> Optional[RatMatrix]:
    """Matrix of a map on span(basis), columns = coordinates of the images."""
    cols = []
    for img in images:
        coords = _coords_in_span(basis, img)
        if coords is None:
            return None
        cols.append(coords)
    k = len(basis)
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def _primitive(vec: Sequence[int]) -> Vector:
    from math import gcd

    g = 0
    for x in vec:
        g = gcd(g, x)
    out = [x // g for x in vec]
    first = next(x for x in out if x)
    if first < 0:
        out = [-x for x in out]
    return tuple(out)


def verify_witness(pair: QualifiedPair, word: Word) -> CertificateReport:
    gen = build_generators(pair)
    v = transvection_vector(gen)
    form = invariant_symplectic_form(gen, v)
    return _verify(pair, word, gen, v, form)


def _verify(
    pair: QualifiedPair,
    word: Word,
    gen: GeneratorPair,
    v: Vector,
    form: SymplecticForm,
) -> CertificateReport:
    n = gen.degree
    gamma = evaluate_word(word, gen)
    gamma_inv = evaluate_word(word.inverse(), gen)
    w1 = v
    w2 = mat_vec(gamma_inv, v)
    w3 = mat_vec(gamma, v)
    c = w3[n - 1]

    checks: dict[str, Optional[bool]] = {name: None for name in CHECK_ORDER}
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
    c1_w = c2_w = c3_w = None
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
            e_raw = tuple(
                coeffs[0] * w1[i] + coeffs[1] * w2[i] + coeffs[2] * w3[i]
                for i in range(n)
            )
            e_vec = _primitive(e_raw)
            basis = (e_vec, w1, w2)
            checks["basis"] = linearly_independent(basis)
            if checks["basis"]:
                checks["fixed_e"] = all(
                    mat_vec(m, e_vec) == e_vec for m in (c1, c2, c3)
                )
                c1_w = _restriction_matrix(basis, [mat_vec(c1, b) for b in basis])
                c2_w = _restriction_matrix(basis, [mat_vec(c2, b) for b in basis])
                c3_w = _restriction_matrix(basis, [mat_vec(c3, b) for b in basis])
                if c1_w is None or c2_w is None or c3_w is None:
                    # Some image escapes W; report it on the form checks.
                    checks["c1_form"] = c1_w is not None
                    checks["c2_form"] = c2_w is not None
                    checks["c3_first_column"] = c3_w is not None
                else:
                    expected_c1 = (
                        (Fraction(1), Fraction(0), Fraction(0)),
                        (Fraction(0), Fraction(1), Fraction(-c)),
                        (Fraction(0), Fraction(0), Fraction(1)),
                    )
                    expected_c2 = (
                        (Fraction(1), Fraction(0), Fraction(0)),
                        (Fraction(0), Fraction(1), Fraction(0)),
                        (Fraction(0), Fraction(c), Fraction(1)),
                    )
                    checks["c1_form"] = c1_w == expected_c1
                    checks["c2_form"] = c2_w == expected_c2
                    checks["c3_first_column"] = (
                        c3_w[0][0] == 1 and c3_w[1][0] == 0 and c3_w[2][0] == 0
                    )
                    l1 = c3_w[0][1]
                    checks["l1_nonzero"] = l1 != 0
                    u = (
                        (c3_w[1][1], c3_w[1][2]),
                        (c3_w[2][1], c3_w[2][2]),
                    )
                    u_minus_1 = (
                        (u[0][0] - 1, u[0][1]),
                        (u[1][0], u[1][1] - 1),
                    )
                    square = tuple(
                        tuple(
                            sum(u_minus_1[i][k] * u_minus_1[k][j] for k in range(2))
                            for j in range(2)
                        )
                        for i in range(2)
                    )
                    checks["u_unipotent"] = square == ((0, 0), (0, 0))

    verdict = all(checks[name] for name in CHECK_ORDER)
    first_failure = next(
        (name for name in CHECK_ORDER if checks[name] is not True), None
    ) if not verdict else None

    return CertificateReport(
        pair_id=pair.pair_id,
        word=str(word),
        degree=n,
        c=c,
        omega_v_en=omega_v_en,
        last_entry_ok=bool(checks["last_entry"]),
        independence_ok=bool(checks["independence"]),
        omega_v_prefix_zero_ok=bool(checks["omega_v_prefix_zero"]),
        omega_v_last_nonzero_ok=bool(checks["omega_v_last_nonzero"]),
        omega_word_relation_ok=bool(checks["omega_word_relation"]),
        c1_transvection_ok=bool(checks["c1_transvection"]),
        c2_transvection_ok=bool(checks["c2_transvection"]),
        c3_transvection_ok=bool(checks["c3_transvection"]),
        radical_dimension=radical_dim,
        radical_dimension_ok=checks["radical_dimension"],
        basis_ok=checks["basis"],
        e_vector=e_vec,
        fixed_e_ok=checks["fixed_e"],
        c1_restriction=c1_w,
        c2_restriction=c2_w,
        c3_restriction=c3_w,
        c1_form_ok=checks["c1_form"],
        c2_form_ok=checks["c2_form"],
        c3_first_column_ok=checks["c3_first_column"],
        l1=l1,
        l1_nonzero_ok=checks["l1_nonzero"],
        u_unipotent_ok=checks["u_unipotent"],
        verdict=verdict,
        first_failure=first_failure,
    )
