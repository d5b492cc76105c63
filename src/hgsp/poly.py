"""Dense integer polynomials with exact arithmetic.

Coefficients are stored ascending from the constant term, so x^2 - 3x + 1
is ``IntPoly((1, -3, 1))``.  Everything stays in ZZ; there is no floating
point anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, init=False)
class IntPoly:
    """An integer polynomial, normalized to have no trailing zero coefficients."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "IntPoly":
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading_coefficient(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero() or other.is_zero():
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("negative power")
        result = IntPoly.one()
        for _ in range(k):
            result = result * self
        return result

    def __divmod__(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Long division, only for divisors with leading coefficient +-1.

        That restriction keeps the quotient and remainder inside ZZ, which
        is all the cyclotomic machinery ever needs.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.leading_coefficient not in (1, -1):
            raise ValueError("division requires a divisor with unit leading coefficient")
        rem = list(self.coeffs)
        dn = divisor.degree
        lead = divisor.leading_coefficient
        if len(rem) <= dn:
            return IntPoly.zero(), self
        quot = [0] * (len(rem) - dn)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + dn] * lead  # lead is +-1, so this is exact
            quot[k] = c
            if c:
                for j, d in enumerate(divisor.coeffs):
                    rem[k + j] -= c * d
        return IntPoly(quot), IntPoly(rem)

    def exact_div(self, divisor: "IntPoly") -> "IntPoly":
        q, r = divmod(self, divisor)
        if not r.is_zero():
            raise ValueError(f"inexact division, remainder {r}")
        return q

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = "x" if mag == 1 else f"{mag}*x"
            else:
                term = f"x^{k}" if mag == 1 else f"{mag}*x^{k}"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        text = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text


def parse_coefficients(text: str) -> IntPoly:
    """Parse comma-separated ascending integer coefficients, e.g. "1,-3,1"."""
    items = [t.strip() for t in text.split(",")]
    if not items or items == [""]:
        raise ValueError("empty coefficient list")
    try:
        return IntPoly(tuple(int(t) for t in items))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad coefficient list {text!r}: {exc}") from None
