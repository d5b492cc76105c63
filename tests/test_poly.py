"""Integer polynomial arithmetic against straightforward oracles."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgsp.poly import IntPoly, parse_coefficients
from oracles import coefficient, poly_sum


def convolve(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook product, the oracle for IntPoly.__mul__."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=8)


def test_constructor_trims_trailing_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0, 0)).coeffs == ()
    assert IntPoly(()).is_zero()


def test_constructor_rejects_non_integers():
    with pytest.raises(TypeError):
        IntPoly((1.5, 2))
    with pytest.raises(TypeError):
        IntPoly((Fraction(1, 2),))


def test_degree_and_leading():
    p = IntPoly((1, -3, 1))
    assert p.degree == 2
    assert p.constant_term == 1
    assert IntPoly(()).degree == -1
    assert coefficient(IntPoly((0, 0, 5)), 2) == 5
    assert coefficient(IntPoly((0, 0, 5)), 7) == 0


def test_monic_detection():
    assert IntPoly((1, -3, 1)).is_monic()
    assert not IntPoly((1, -3, 2)).is_monic()
    assert not IntPoly(()).is_monic()


@given(coeff_lists, coeff_lists)
def test_mul_matches_convolution(a, b):
    assert (IntPoly(a) * IntPoly(b)).coeffs == tuple(convolve(a, b))


def test_divmod_exact():
    f = IntPoly((1, -6, 15, -20, 15, -6, 1))
    d = IntPoly((-1, 1))
    q, r = divmod(f, d)
    assert r.is_zero()
    assert q * d == f


def test_divmod_with_remainder():
    p = IntPoly((1, 0, 1))  # x^2 + 1
    d = IntPoly((1, 1))  # x + 1
    q, r = divmod(p, d)
    assert poly_sum(q * d, r) == p
    assert r.degree < d.degree
    assert not r.is_zero()


def test_divmod_requires_monic_divisor():
    for divisor in ((1, 2), (1, -1), ()):  # 2x + 1, -x + 1, zero
        with pytest.raises(ValueError, match="monic divisor"):
            divmod(IntPoly((1, 0, 1)), IntPoly(divisor))


@given(coeff_lists, coeff_lists)
def test_divmod_identity_monic(a, b):
    d = IntPoly(b + [1])  # force monic
    p = IntPoly(a)
    q, r = divmod(p, d)
    assert poly_sum(q * d, r) == p
    assert r.degree < d.degree


def test_parse_format_roundtrip():
    text = "1,-6,15,-20,15,-6,1"
    p = parse_coefficients(text)
    assert p.coeffs == (1, -6, 15, -20, 15, -6, 1)
    assert ",".join(str(c) for c in p.coeffs) == text


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        parse_coefficients("1,two,3")
    with pytest.raises(ValueError):
        parse_coefficients("")


def test_str_rendering():
    assert str(IntPoly((1, -3, 1))) == "x^2 - 3*x + 1"
    assert str(IntPoly(())) == "0"
    assert str(IntPoly((0, 1))) == "x"
    assert str(IntPoly((-1, 1))) == "x - 1"
