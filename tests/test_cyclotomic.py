"""Cyclotomic polynomials and the factorization <-> parameter dictionary."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgsp import cyclotomic
from hgsp.cyclotomic import (
    CycloFactorization,
    NotCyclotomicProduct,
    admissible_indices,
    cyclotomic_poly,
    factorization_from_parameters,
    factorization_from_poly,
    parse_parameters,
    shifted_index,
    totient,
)
from hgsp.pairs import enumerate_factorizations
from hgsp.poly import IntPoly


def slow_totient(m: int) -> int:
    return sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)


def x_power_minus_one(m: int) -> IntPoly:
    return IntPoly((-1,) + (0,) * (m - 1) + (1,))


@pytest.mark.parametrize("m", list(range(1, 60)))
def test_totient_against_gcd_count(m):
    assert totient(m) == slow_totient(m)


def test_cyclotomic_small_cases():
    assert cyclotomic_poly(1).coeffs == (-1, 1)
    assert cyclotomic_poly(2).coeffs == (1, 1)
    assert cyclotomic_poly(3).coeffs == (1, 1, 1)
    assert cyclotomic_poly(4).coeffs == (1, 0, 1)
    assert cyclotomic_poly(6).coeffs == (1, -1, 1)
    assert cyclotomic_poly(9).coeffs == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_poly(18).coeffs == (1, 0, 0, -1, 0, 0, 1)


@pytest.mark.parametrize("m", list(range(1, 43)))
def test_cyclotomic_product_identity(m):
    """prod over divisors d of m of Phi_d equals x^m - 1, for every index
    admissible up to degree 12 (the largest is 42)."""
    product = IntPoly((1,))
    for d in range(1, m + 1):
        if m % d == 0:
            product = product * cyclotomic_poly(d)
    assert product == x_power_minus_one(m)


@pytest.mark.parametrize("m", list(range(1, 40)))
def test_cyclotomic_degree_is_totient(m):
    assert cyclotomic_poly(m).degree == totient(m)


def test_constant_terms():
    assert cyclotomic_poly(1).constant_term == -1
    for m in range(2, 40):
        assert cyclotomic_poly(m).constant_term == 1


def test_admissible_indices_degree_six():
    idx = admissible_indices(6)
    assert idx == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18)
    assert all(totient(m) <= 6 for m in idx)
    assert all(totient(m) > 6 for m in range(19, 100) if m not in idx)


def test_admissible_indices_degree_four():
    assert admissible_indices(4) == (1, 2, 3, 4, 5, 6, 8, 10, 12)


def test_admissible_indices_are_computed_once_per_degree():
    assert admissible_indices(12) is admissible_indices(12)


def test_factorization_merges_and_sorts():
    fac = CycloFactorization(((6, 1), (3, 1), (3, 1)))
    assert fac.factors == ((3, 2), (6, 1))
    assert fac.degree == 6
    assert fac.multiplicity(3) == 2
    assert fac.multiplicity(5) == 0
    assert fac.support == frozenset({3, 6})


def test_factorization_rejects_bad_input():
    with pytest.raises(ValueError):
        CycloFactorization(((0, 1),))
    with pytest.raises(ValueError):
        CycloFactorization(((3, -1),))
    # zero multiplicities are dropped, not rejected
    assert CycloFactorization(((3, 0), (6, 1))).factors == ((6, 1),)


def test_expand_row_17():
    fac = CycloFactorization(((3, 2), (6, 1)))
    assert fac.expansion.coeffs == (1, 1, 2, 1, 2, 1, 1)
    swapped = CycloFactorization(((3, 1), (6, 2)))
    assert swapped.expansion.coeffs == (1, -1, 2, -1, 2, -1, 1)


def test_expand_phi1_sixth():
    fac = CycloFactorization(((1, 6),))
    assert fac.expansion.coeffs == (1, -6, 15, -20, 15, -6, 1)


def test_parameters_ordering_and_one_block():
    fac = CycloFactorization(((1, 2), (3, 1)))
    assert fac.parameters() == (
        Fraction(0),
        Fraction(0),
        Fraction(1, 3),
        Fraction(2, 3),
    )


def test_parameters_closed_under_complement():
    """Parameter multisets of index >= 3 blocks are symmetric under r -> 1 - r."""
    fac = CycloFactorization(((3, 2), (6, 1), (4, 1)))
    params = [r for r in fac.parameters() if r not in (Fraction(0), Fraction(1, 2))]
    assert sorted(params) == sorted(1 - r for r in params)


def test_scalar_shift_index_map():
    # odd m doubles, m = 2 mod 4 halves, multiples of 4 stay
    assert shifted_index(1) == 2
    assert shifted_index(2) == 1
    assert shifted_index(3) == 6
    assert shifted_index(6) == 3
    assert shifted_index(4) == 4
    assert shifted_index(12) == 12
    assert shifted_index(9) == 18
    assert shifted_index(18) == 9
    assert shifted_index(14) == 7


@pytest.mark.parametrize("m", list(range(1, 40)))
def test_shifted_index_involution(m):
    assert shifted_index(shifted_index(m)) == m


@pytest.mark.parametrize("m", list(range(1, 30)))
def test_index_map_matches_polynomial_shift(m):
    """Phi_m(-x) = +-Phi_{shifted}(x); for even degree exactly equal."""
    p = cyclotomic_poly(m)
    q = cyclotomic_poly(shifted_index(m))
    negated = IntPoly(tuple(-c if k % 2 else c for k, c in enumerate(p.coeffs)))
    if negated.coeffs[-1] < 0:
        negated = IntPoly(tuple(-c for c in negated.coeffs))
    assert negated == q


def test_scalar_shift_of_factorization():
    fac = CycloFactorization(((1, 4), (6, 1)))
    assert fac.shifted.factors == ((2, 4), (3, 1))
    assert fac.shifted.shifted == fac


def test_exponent_gcd():
    gcd_of = lambda *factors: CycloFactorization(factors).exponent_gcd
    assert gcd_of((9, 1)) == 3  # x^6 + x^3 + 1
    assert gcd_of((4, 1)) == 2
    assert gcd_of((3, 1)) == 1
    assert gcd_of((4, 1), (12, 1)) == 6  # (x^2 + 1)(x^4 - x^2 + 1) = x^6 + 1
    assert gcd_of((1, 1), (2, 1)) == 2  # x^2 - 1


def test_factorization_from_poly_roundtrip():
    """Every factorization of even degree 2 .. 12 factors back from its expansion."""
    facs = [fac for n in range(2, 13, 2) for fac in enumerate_factorizations(n)]
    assert len(facs) == 2336
    for fac in facs:
        assert factorization_from_poly(fac.expansion) == fac, fac.text


def test_factorization_from_poly_rejects_non_cyclotomic():
    with pytest.raises(NotCyclotomicProduct):
        factorization_from_poly(IntPoly((2, 1)))  # x + 2
    with pytest.raises(NotCyclotomicProduct):
        factorization_from_poly(IntPoly((-1, 0, 0, 1, 1)))


def test_factorization_from_parameters():
    params = parse_parameters("1/3,1/3,2/3,2/3,1/6,5/6")
    fac = factorization_from_parameters(params)
    assert fac.factors == ((3, 2), (6, 1))
    zero = factorization_from_parameters(parse_parameters("0,0,0,0,0,0"))
    assert zero.factors == ((1, 6),)


def test_factorization_from_parameters_rejects_partial_blocks():
    with pytest.raises(NotCyclotomicProduct):
        factorization_from_parameters((Fraction(1, 5), Fraction(2, 5)))
    with pytest.raises(NotCyclotomicProduct):
        factorization_from_parameters((Fraction(1, 3), Fraction(1, 3)))
    with pytest.raises(NotCyclotomicProduct):
        factorization_from_parameters((Fraction(3, 2),))


def test_parameters_roundtrip_through_dictionary():
    for factors in (((1, 2), (4, 2)), ((3, 3),), ((2, 2), (3, 1), (4, 1)), ((18, 1),)):
        fac = CycloFactorization(factors)
        assert factorization_from_parameters(fac.parameters()) == fac


def test_text_roundtrip():
    fac = CycloFactorization(((3, 2), (6, 1)))
    assert fac.text == "3^2,6"
    assert CycloFactorization.parse("3^2,6") == fac
    assert CycloFactorization.parse("1^6").factors == ((1, 6),)
    with pytest.raises(ValueError):
        CycloFactorization.parse("3^0")
    with pytest.raises(ValueError):
        CycloFactorization.parse("")


def test_parse_parameters_sorted_and_validated():
    assert parse_parameters("2/3,0,1/3") == (Fraction(0), Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(ValueError):
        parse_parameters("1/0")
    with pytest.raises(ValueError):
        parse_parameters("")


def test_parse_parameters_refuses_exponent_notation(monkeypatch):
    # refused before Fraction sees the text: Fraction("1e-100000000")
    # would build 10^(10^8)
    def plain_fraction(*args):
        assert not (isinstance(args[0], str) and "e" in args[0].lower())
        return Fraction(*args)

    monkeypatch.setattr(cyclotomic, "Fraction", plain_fraction)
    for text in ("1e-3", "0,5E-1", "2.5e0", "1e-100000000", " 1E+2 "):
        with pytest.raises(ValueError, match="exponent notation"):
            parse_parameters(text)
    assert parse_parameters(" 1/2 , 0,-3/4") == (Fraction(-3, 4), Fraction(0), Fraction(1, 2))
    assert parse_parameters("0.5") == (Fraction(1, 2),)


@given(
    st.lists(
        st.sampled_from([1, 2, 3, 4, 6, 7, 9, 14, 18]), min_size=1, max_size=4
    )
)
def test_expansion_self_reciprocal_up_to_sign(indices):
    """The expansion is palindromic up to the sign (-1)^(mult of index 1).

    Phi_1 = x - 1 is anti-palindromic and every other cyclotomic is
    palindromic, so the product's coefficient list reverses onto itself
    times (-1)^k with k the multiplicity of index 1.
    """
    fac = CycloFactorization(tuple((m, 1) for m in indices))
    p = fac.expansion
    sign = -1 if fac.multiplicity(1) % 2 else 1
    assert tuple(reversed(p.coeffs)) == tuple(sign * c for c in p.coeffs)


@given(
    st.lists(
        st.sampled_from([1, 2, 3, 4, 6, 7, 9, 14, 18]), min_size=1, max_size=4
    )
)
def test_expand_degree_additive(indices):
    fac = CycloFactorization(tuple((m, 1) for m in indices))
    assert fac.expansion.degree == fac.degree == sum(totient(m) for m in indices)
