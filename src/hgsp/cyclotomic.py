"""Cyclotomic polynomials and products of them.

A factorization is a multiset of cyclotomic indices; expanding it gives a
monic integer polynomial, and reading off the primitive roots of unity gives
the rational parameter list (all a/m with gcd(a, m) = 1, one block per copy
of the m-th cyclotomic polynomial).  Both directions of that dictionary live
here, together with the scalar shift x -> -x on factorizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .poly import IntPoly


class NotCyclotomicProduct(ValueError):
    """A polynomial (or parameter list) that is not a product of cyclotomics."""


def totient(m: int) -> int:
    if m < 1:
        raise ValueError("totient needs a positive argument")
    result = m
    k = m
    p = 2
    while p * p <= k:
        if k % p == 0:
            result -= result // p
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        result -= result // k
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial, computed by exact division of x^m - 1."""
    if m < 1:
        raise ValueError("cyclotomic index must be positive")
    num = IntPoly((-1,) + (0,) * (m - 1) + (1,))
    for d in range(1, m):
        if m % d == 0:
            num, _ = divmod(num, cyclotomic_poly(d))
    return num


@lru_cache(maxsize=None)
def admissible_indices(degree: int) -> tuple[int, ...]:
    """All m with phi(m) <= degree.  phi(m) >= sqrt(m/2) bounds the scan."""
    if degree < 1:
        raise ValueError("degree must be positive")
    top = 2 * degree * degree + 1
    return tuple(m for m in range(1, top + 1) if totient(m) <= degree)


@dataclass(frozen=True, init=False)
class CycloFactorization:
    """A multiset of cyclotomic indices, stored as sorted (index, multiplicity).

    ``degree``, ``support``, ``expansion`` (the product polynomial), its
    ``exponent_gcd`` and ``shifted`` (the scalar shift x -> -x) are cached
    properties, computed once per instance, so callers keep no caches of
    their own.
    """

    factors: tuple[tuple[int, int], ...]

    def __init__(self, factors: Iterable[tuple[int, int]] = ()):
        merged: dict[int, int] = {}
        for m, k in factors:
            if m < 1:
                raise ValueError(f"bad cyclotomic index {m}")
            if k < 0:
                raise ValueError(f"negative multiplicity for index {m}")
            if k:
                merged[m] = merged.get(m, 0) + k
        object.__setattr__(
            self, "factors", tuple(sorted(merged.items()))
        )

    @cached_property
    def degree(self) -> int:
        return sum(k * totient(m) for m, k in self.factors)

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(m for m, _ in self.factors)

    def multiplicity(self, m: int) -> int:
        return dict(self.factors).get(m, 0)

    @cached_property
    def expansion(self) -> IntPoly:
        p = IntPoly((1,))
        for m, k in self.factors:
            for _ in range(k):
                p = p * cyclotomic_poly(m)
        return p

    @cached_property
    def exponent_gcd(self) -> int:
        """gcd of the exponents of the expansion's nonzero terms."""
        return math.gcd(*(e for e, c in enumerate(self.expansion.coeffs) if c))

    def parameters(self) -> tuple[Fraction, ...]:
        """Sorted list of a/m over primitive residues a mod m, with multiplicity."""
        out: list[Fraction] = []
        for m, k in self.factors:
            out.extend(_primitive_residues(m) * k)
        return tuple(sorted(out))

    @cached_property
    def shifted(self) -> "CycloFactorization":
        return CycloFactorization((shifted_index(m), k) for m, k in self.factors)

    # -- text form: "3^2,6" means Phi_3^2 * Phi_6 ---------------------------

    @property
    def text(self) -> str:
        return ",".join(f"{m}^{k}" if k > 1 else str(m) for m, k in self.factors)

    @classmethod
    def parse(cls, text: str) -> "CycloFactorization":
        items = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"bad factorization text {text!r}")
            base, caret, exp = chunk.partition("^")
            try:
                items.append((int(base), int(exp) if caret else 1))
            except ValueError:
                raise ValueError(f"bad factorization term {chunk!r}") from None
        if any(k < 1 for _, k in items):
            raise ValueError(f"multiplicities must be positive in {text!r}")
        return cls(items)

    def __str__(self) -> str:
        return self.text


def _primitive_residues(m: int) -> list[Fraction]:
    """The a/m with 0 <= a < m and gcd(a, m) = 1, ascending (just 0 for m = 1)."""
    return [Fraction(a, m) for a in range(m) if math.gcd(a, m) == 1]


def shifted_index(m: int) -> int:
    """Index map induced by x -> -x: Phi_m(-x) = +-Phi_{m'}(x)."""
    if m % 2 == 1:
        return 2 * m
    if m % 4 == 2:
        return m // 2
    return m


def factorization_from_poly(p: IntPoly) -> CycloFactorization:
    """Factor a monic polynomial into cyclotomics, or raise NotCyclotomicProduct."""
    if not p.is_monic():
        raise NotCyclotomicProduct("expected a monic polynomial")
    rest = p
    found: list[tuple[int, int]] = []
    for m in admissible_indices(max(p.degree, 1)):
        phi_m = cyclotomic_poly(m)
        k = 0
        while rest.degree >= phi_m.degree:  # rest stays monic
            q, r = divmod(rest, phi_m)
            if not r.is_zero():
                break
            rest = q
            k += 1
        if k:
            found.append((m, k))
        if rest.degree == 0:
            break
    if rest.coeffs != (1,):
        raise NotCyclotomicProduct(f"non-cyclotomic part remains: {rest}")
    return CycloFactorization(found)


def factorization_from_parameters(params: Sequence[Fraction]) -> CycloFactorization:
    """Inverse of CycloFactorization.parameters.

    The input must consist, for each denominator m present, of whole copies
    of the primitive residue block {a/m : gcd(a, m) = 1}; the value 0 stands
    for the 1st cyclotomic polynomial x - 1.
    """
    residues: dict[int, list[Fraction]] = {}
    for r in params:
        r = Fraction(r)
        if not 0 <= r < 1:
            raise NotCyclotomicProduct(f"parameter {r} outside [0, 1)")
        residues.setdefault(r.denominator, []).append(r)
    factors = []
    for m, block in sorted(residues.items()):
        full = _primitive_residues(m)
        if len(block) % len(full):
            raise NotCyclotomicProduct(
                f"parameters with denominator {m} do not fill whole primitive blocks"
            )
        mult = len(block) // len(full)
        if sorted(block) != sorted(full * mult):
            raise NotCyclotomicProduct(
                f"parameters with denominator {m} are not primitive residues"
            )
        factors.append((m, mult))
    return CycloFactorization(factors)


def parse_parameters(text: str) -> tuple[Fraction, ...]:
    """Parse "1/3,2/3,0,..." into a sorted tuple of fractions in [0, 1).

    Exponent forms such as "1e-9" are refused before they reach Fraction,
    which would build 10^k for any exponent k.
    """
    items = [t.strip() for t in text.split(",")]
    if not items or items == [""]:
        raise ValueError("empty parameter list")
    out = []
    for t in items:
        if "e" in t or "E" in t:
            raise ValueError(f"bad parameter {t!r}: exponent notation is not accepted")
        try:
            out.append(Fraction(t))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad parameter {t!r}") from None
    return tuple(sorted(out))
