"""Dense integer polynomials with exact arithmetic.

Coefficients are stored ascending from the constant term, so x^2 - 3x + 1
is ``IntPoly((1, -3, 1))``.  Everything stays in ZZ; there is no floating
point anywhere in this package.

``IntPoly`` offers what the cyclotomic layer and the generators use: the
degree, monic and constant-term queries, the product, long division and
the text form.  Division takes monic divisors only: every divisor the
package passes is a cyclotomic polynomial, and a monic divisor keeps the
quotient and remainder in ZZ with no division of coefficients.
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
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    # -- product and division ----------------------------------------------

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def __divmod__(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Long division by a monic divisor; any other raises ValueError."""
        if not divisor.is_monic():
            raise ValueError(f"division requires a monic divisor, got {divisor}")
        rem = list(self.coeffs)
        dn = divisor.degree
        if len(rem) <= dn:
            return IntPoly(), self
        quot = [0] * (len(rem) - dn)
        for k in range(len(quot) - 1, -1, -1):
            c = quot[k] = rem[k + dn]
            if c:
                for j, d in enumerate(divisor.coeffs):
                    rem[k + j] -= c * d
        return IntPoly(quot), IntPoly(rem)

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
