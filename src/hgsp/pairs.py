"""Enumeration and validation of qualified cyclotomic-product pairs.

A pair of monic integer polynomials (f, g) of the same even degree is
qualified when both are products of cyclotomic polynomials, they share no
factor, both have constant term 1, the pair is primitive (f and g are not
both polynomials in x^k for any k >= 2), and f != g.  Pairs are counted up
to scalar shift x -> -x and swapping f and g: (f, g) and (g, f) give the
same group <A, B>, and the embedded degree-6 tables count their 458
classes this way.

Each rule is stated once.  qualification_failures is the qualification
rule, and make_pair, which the package builds every QualifiedPair with,
runs it.  _orbit_minimum is the class key, used by canonical_representative.
vector_gcd is the gcd of v and gcd_obstruction the "gcd(v) > 2" test; the
search, the pre-search buckets and the CLI use them.

Enumeration walks each class once.  The factorizations are sorted by their
encoding, and each one's encoding and shifted encoding are read once per
call.  A class is listed as its orbit minimum, the member (f, g) whose pair
of encodings is least.  (f, g) <= (g, f) means j >= i for the i-th and j-th
factorizations, so the inner loop starts at i and only the two shifted
members (f', g') and (g', f') are compared, as tuples of encodings.
Before make_pair, a pair is skipped only for two failures that
qualification_failures also reports: a factorization with constant term -1,
or a common factor.  make_pair then applies the whole rule to the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cyclotomic import CycloFactorization, admissible_indices, totient
from .poly import IntPoly

#: The pair equivalence, scalar shift and swap, as the report and the
#: enumerate summary name it.
EQUIVALENCE = "shift-swap"


class NotQualifiedError(ValueError):
    def __init__(self, reasons: list[str]):
        self.reasons = tuple(reasons)
        super().__init__("; ".join(reasons))


@dataclass(frozen=True)
class QualifiedPair:
    """A qualified pair, with both factorizations and expansions on hand."""

    f_fac: CycloFactorization
    g_fac: CycloFactorization
    f: IntPoly
    g: IntPoly
    degree: int
    lc: int

    @property
    def pair_id(self) -> str:
        return f"{self.f_fac.text}|{self.g_fac.text}"

    @property
    def alpha(self) -> tuple[Fraction, ...]:
        return self.f_fac.parameters()

    @property
    def beta(self) -> tuple[Fraction, ...]:
        return self.g_fac.parameters()

    def is_mum(self) -> bool:
        """True when, up to scalar shift and swap, one of f, g is (x-1)^n.

        The maximally unipotent family is a property of the equivalence
        class, so the test accepts any orientation: f or g equal to
        (x - 1)^n or to its shift (x + 1)^n.
        """
        keys = (((1, self.degree),), ((2, self.degree),))
        return self.f_fac.factors in keys or self.g_fac.factors in keys


CLASS_KINDS = ("arithmetic_small_lc", "arithmetic_witness", "obstructed", "unknown")


@dataclass(frozen=True)
class PairClassification:
    """Result bucket for one pair.

    kind is one of CLASS_KINDS; the remaining fields are filled per kind.
    """

    kind: str
    gcd: Optional[int] = None
    witness: Optional[str] = None
    witness_length: Optional[int] = None
    searched_depth: Optional[int] = None


def qualification_failures(
    f_fac: CycloFactorization, g_fac: CycloFactorization
) -> list[str]:
    """Empty when (f_fac, g_fac) is qualified, else the list of violations."""
    reasons = []
    if f_fac.degree != g_fac.degree:
        reasons.append(f"degrees differ ({f_fac.degree} vs {g_fac.degree})")
    elif f_fac.degree % 2:
        reasons.append(f"degree {f_fac.degree} is odd")
    if f_fac.degree == 0 or g_fac.degree == 0:
        reasons.append("degree must be positive")
    if f_fac == g_fac:
        reasons.append("f and g are equal")
    common = f_fac.support & g_fac.support
    if common:
        reasons.append(
            "common cyclotomic factor " + ",".join(str(m) for m in sorted(common))
        )
    if f_fac.multiplicity(1) % 2:
        reasons.append("f has constant term -1 (odd multiplicity of index 1)")
    if g_fac.multiplicity(1) % 2:
        reasons.append("g has constant term -1 (odd multiplicity of index 1)")
    k = math.gcd(f_fac.exponent_gcd, g_fac.exponent_gcd)
    if k >= 2:
        reasons.append(f"imprimitive pair (both polynomials in x^{k})")
    return reasons


def make_pair(f_fac: CycloFactorization, g_fac: CycloFactorization) -> QualifiedPair:
    """The qualified pair (f_fac, g_fac); raises NotQualifiedError otherwise."""
    reasons = qualification_failures(f_fac, g_fac)
    if reasons:
        raise NotQualifiedError(reasons)
    f, g = f_fac.expansion, g_fac.expansion
    return QualifiedPair(f_fac, g_fac, f, g, degree=f.degree, lc=leading_coeff_diff(f, g))


def leading_coeff_diff(f: IntPoly, g: IntPoly) -> int:
    """Leading coefficient of f - g (the pair's lc invariant), sign included,
    read from the two coefficient tuples from the top."""
    a, b = f.coeffs, g.coeffs
    if len(a) != len(b):  # the longer one leads; its top entry is nonzero
        return a[-1] if len(a) > len(b) else -b[-1]
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return x - y
    raise ValueError("f - g is zero")


def enumerate_factorizations(degree: int) -> list[CycloFactorization]:
    """All cyclotomic factorizations of the given total degree, sorted."""
    if degree < 1:
        raise ValueError("degree must be positive")
    indices = admissible_indices(degree)
    out: list[CycloFactorization] = []

    def rec(pos: int, remaining: int, acc: list[tuple[int, int]]) -> None:
        if remaining == 0:
            out.append(CycloFactorization(acc))
            return
        if pos == len(indices):
            return
        m, d = indices[pos], totient(indices[pos])
        for k in range(remaining // d + 1):
            rec(pos + 1, remaining - k * d, acc + [(m, k)])  # k = 0 drops out

    rec(0, degree, [])
    out.sort(key=lambda fac: fac.factors)
    return out


def _orbit(
    f_fac: CycloFactorization, g_fac: CycloFactorization
) -> list[tuple[CycloFactorization, CycloFactorization]]:
    shifted = (f_fac.shifted, g_fac.shifted)
    return [(f_fac, g_fac), shifted, (g_fac, f_fac), shifted[::-1]]


def _orbit_minimum(
    f_fac: CycloFactorization, g_fac: CycloFactorization
) -> tuple[CycloFactorization, CycloFactorization]:
    """The orbit member with lexicographically least factorization encoding."""
    return min(_orbit(f_fac, g_fac), key=lambda fg: (fg[0].factors, fg[1].factors))


def canonical_representative(
    f_fac: CycloFactorization, g_fac: CycloFactorization
) -> QualifiedPair:
    """The class's orbit minimum, as a qualified pair."""
    return make_pair(*_orbit_minimum(f_fac, g_fac))


def mum_oriented(pair: QualifiedPair) -> QualifiedPair:
    """The shift/swap orbit member with f = (x-1)^n.

    Table-style presentation of a maximally unipotent class: alpha all
    zero.  Raises ValueError when the class is not maximally unipotent.
    """
    target = ((1, pair.degree),)
    for f_fac, g_fac in _orbit(pair.f_fac, pair.g_fac):
        if f_fac.factors == target:
            return make_pair(f_fac, g_fac)
    raise ValueError("pair is not maximally unipotent")


def enumerate_qualified_pairs(degree: int, *, mum_only: bool = False) -> list[QualifiedPair]:
    """All qualified pairs of the given degree, one per class under scalar
    shift and swap, listed by the canonical representative's encoding.

    In even degree qualification is invariant under shift and swap, so the
    ordered pairs that are their own orbit minimum and pass make_pair,
    walked in encoding order, are the classes in order (the walk is in the
    module docstring).  With mum_only, each maximally unipotent class is
    listed once, as its mum_oriented member.
    """
    facs = enumerate_factorizations(degree)
    keys = [fac.factors for fac in facs]
    shifted = [fac.shifted.factors for fac in facs]
    even = [fac.multiplicity(1) % 2 == 0 for fac in facs]  # constant term 1
    reps: list[QualifiedPair] = []
    for i, f_fac in enumerate(facs):
        if not even[i]:
            continue
        key_f, shift_f = keys[i], shifted[i]
        for j in range(i, len(facs)):
            g_fac = facs[j]
            if not even[j] or not f_fac.support.isdisjoint(g_fac.support):
                continue
            key = (key_f, keys[j])
            if key > (shift_f, shifted[j]) or key > (shifted[j], shift_f):
                continue
            try:
                reps.append(make_pair(f_fac, g_fac))
            except NotQualifiedError:
                continue
    if mum_only:
        reps = [mum_oriented(p) for p in reps if p.is_mum()]
        reps.sort(key=lambda p: (p.f_fac.factors, p.g_fac.factors))
    return reps


def vector_gcd(v: Sequence[int]) -> int:
    """gcd of the entries of v (0 for the zero vector)."""
    return math.gcd(*v)


def gcd_obstruction(v: Sequence[int]) -> Optional[int]:
    """gcd of the entries of v when it rules a witness out (> 2), else None.

    Every gamma in the group is integral with inverse integral, so the
    entries of gamma(v) keep the gcd of v as a common divisor; a gcd above
    2 leaves no room for a last entry in {+-1, +-2}.
    """
    if not any(v):
        raise ValueError("zero vector")
    g = vector_gcd(v)
    return g if g > 2 else None


def initial_classification(pair: QualifiedPair, v: Sequence[int]) -> PairClassification:
    """Pre-search bucket: small lc, gcd obstruction, or unknown."""
    if abs(pair.lc) <= 2:
        return PairClassification(kind="arithmetic_small_lc")
    g = gcd_obstruction(v)
    if g is not None:
        return PairClassification(kind="obstructed", gcd=g)
    return PairClassification(kind="unknown", searched_depth=0)
