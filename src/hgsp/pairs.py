"""Enumeration and validation of qualified cyclotomic-product pairs.

A pair of monic integer polynomials (f, g) of the same even degree is
qualified when both are products of cyclotomic polynomials, they share no
factor, both have constant term 1, the pair is primitive (f and g are not
both polynomials in x^k for any k >= 2), and f != g.  Pairs are counted up
to scalar shift x -> -x, optionally also up to swapping f and g; the
combined convention is the package default because it is the one the
embedded degree-6 tables are stated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .cyclotomic import (
    CycloFactorization,
    admissible_indices,
    exponent_gcd,
    totient,
)
from .poly import IntPoly

SHIFT = "shift"
SHIFT_SWAP = "shift-swap"
CONVENTIONS = (SHIFT, SHIFT_SWAP)

#: Dedup convention under which the degree-6 census has 458 classes
#: (shift alone gives 906).
DEFAULT_CONVENTION = SHIFT_SWAP


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


@dataclass(frozen=True)
class PairClassification:
    """Result bucket for one pair.

    kind is one of "arithmetic_small_lc", "arithmetic_witness", "obstructed"
    and "unknown"; the remaining fields are filled per kind.
    """

    kind: str
    gcd: Optional[int] = None
    witness: Optional[str] = None
    witness_length: Optional[int] = None
    searched_depth: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "gcd": self.gcd,
            "witness": self.witness,
            "witness_length": self.witness_length,
            "searched_depth": self.searched_depth,
        }


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
    k = math.gcd(exponent_gcd(f_fac.expand()), exponent_gcd(g_fac.expand()))
    if k >= 2:
        reasons.append(f"imprimitive pair (both polynomials in x^{k})")
    return reasons


def make_pair(f_fac: CycloFactorization, g_fac: CycloFactorization) -> QualifiedPair:
    reasons = qualification_failures(f_fac, g_fac)
    if reasons:
        raise NotQualifiedError(reasons)
    f = f_fac.expand()
    g = g_fac.expand()
    return QualifiedPair(
        f_fac=f_fac,
        g_fac=g_fac,
        f=f,
        g=g,
        degree=f.degree,
        lc=leading_coeff_diff(f, g),
    )


def leading_coeff_diff(f: IntPoly, g: IntPoly) -> int:
    """Leading coefficient of f - g (the pair's lc invariant), sign included."""
    d = f - g
    if d.is_zero():
        raise ValueError("f - g is zero")
    return d.leading_coefficient


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
        m = indices[pos]
        d = totient(m)
        k = 0
        while k * d <= remaining:
            if k:
                acc.append((m, k))
            rec(pos + 1, remaining - k * d, acc)
            if k:
                acc.pop()
            k += 1

    rec(0, degree, [])
    out.sort(key=lambda fac: fac.factors)
    return out


def _orbit(
    f_fac: CycloFactorization, g_fac: CycloFactorization, convention: str
) -> list[tuple[CycloFactorization, CycloFactorization]]:
    members = [(f_fac, g_fac), (f_fac.scalar_shift(), g_fac.scalar_shift())]
    if convention == SHIFT_SWAP:
        members += [(g, f) for f, g in list(members)]
    elif convention != SHIFT:
        raise ValueError(f"unknown convention {convention!r}")
    return members


def canonical_representative(
    f_fac: CycloFactorization,
    g_fac: CycloFactorization,
    convention: str = DEFAULT_CONVENTION,
) -> QualifiedPair:
    """The orbit member with lexicographically least factorization encoding."""
    best = min(_orbit(f_fac, g_fac, convention), key=lambda fg: (fg[0].factors, fg[1].factors))
    return make_pair(*best)


def mum_oriented(pair: QualifiedPair) -> QualifiedPair:
    """The shift/swap orbit member with f = (x-1)^n.

    Table-style presentation of a maximally unipotent class: alpha all
    zero.  Raises ValueError when the class is not maximally unipotent.
    """
    target = ((1, pair.degree),)
    for f_fac, g_fac in _orbit(pair.f_fac, pair.g_fac, SHIFT_SWAP):
        if f_fac.factors == target:
            return make_pair(f_fac, g_fac)
    raise ValueError("pair is not maximally unipotent")


def enumerate_qualified_pairs(
    degree: int,
    convention: str = DEFAULT_CONVENTION,
    mum_only: bool = False,
) -> list[QualifiedPair]:
    """All qualified pairs of the given degree, one per equivalence class.

    Classes are taken under scalar shift, plus swap when the convention says
    so, and listed by the canonical representative's encoding.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    facs = enumerate_factorizations(degree)
    expansions = {fac: fac.expand() for fac in facs}
    exp_gcds = {fac: exponent_gcd(expansions[fac]) for fac in facs}
    phi1_ok = [fac for fac in facs if fac.multiplicity(1) % 2 == 0]
    seen: set[tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]] = set()
    reps: list[QualifiedPair] = []
    for f_fac in phi1_ok:
        for g_fac in phi1_ok:
            if f_fac == g_fac or (f_fac.support & g_fac.support):
                continue
            if math.gcd(exp_gcds[f_fac], exp_gcds[g_fac]) >= 2:
                continue
            best = min(
                _orbit(f_fac, g_fac, convention),
                key=lambda fg: (fg[0].factors, fg[1].factors),
            )
            key = (best[0].factors, best[1].factors)
            if key in seen:
                continue
            seen.add(key)
            reps.append(make_pair(*best))
    reps.sort(key=lambda p: (p.f_fac.factors, p.g_fac.factors))
    if mum_only:
        reps = [mum_oriented(p) for p in reps if p.is_mum()]
        reps.sort(key=lambda p: (p.f_fac.factors, p.g_fac.factors))
    return reps


def initial_classification(pair: QualifiedPair, v: Iterable[int]) -> PairClassification:
    """Pre-search bucket: small lc, gcd obstruction, or unknown."""
    if abs(pair.lc) <= 2:
        return PairClassification(kind="arithmetic_small_lc")
    g = 0
    for entry in v:
        g = math.gcd(g, entry)
    if g > 2:
        return PairClassification(kind="obstructed", gcd=g)
    return PairClassification(kind="unknown", searched_depth=0)
