"""Qualified pair enumeration, equivalence classes, census counts."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgsp import pairs as pairs_module
from hgsp.cyclotomic import CycloFactorization
from hgsp.pairs import (
    EQUIVALENCE,
    NotQualifiedError,
    canonical_representative,
    enumerate_factorizations,
    enumerate_qualified_pairs,
    initial_classification,
    leading_coeff_diff,
    make_pair,
    mum_oriented,
    qualification_failures,
)
from hgsp.poly import IntPoly
from oracles import all_ordered_pairs_census, poly_sum

PHI1_6 = CycloFactorization(((1, 6),))
ROW17_G = CycloFactorization(((3, 2), (6, 1)))


def test_factorization_count_degree_six():
    assert len(enumerate_factorizations(6)) == 78


def test_factorization_count_degree_four():
    assert len(enumerate_factorizations(4)) == 24


def test_factorizations_have_right_degree():
    for fac in enumerate_factorizations(6):
        assert fac.degree == 6


def test_make_pair_row_17():
    pair = make_pair(PHI1_6, ROW17_G)
    assert pair.degree == 6
    assert pair.lc == -7
    assert pair.pair_id == "1^6|3^2,6"
    assert pair.alpha == (Fraction(0),) * 6
    assert pair.is_mum()


def test_qualification_failures_catalogue():
    # equal pair
    assert "f and g are equal" in "\n".join(qualification_failures(PHI1_6, PHI1_6))
    # common factor
    f = CycloFactorization(((1, 4), (3, 1)))
    g = CycloFactorization(((3, 1), (4, 2)))
    assert any("common cyclotomic factor 3" in r for r in qualification_failures(f, g))
    # odd constant term via odd multiplicity of index 1
    f_odd = CycloFactorization(((1, 3), (2, 3)))
    reasons = qualification_failures(f_odd, CycloFactorization(((7, 1),)))
    assert any("constant term -1" in r for r in reasons)
    # degree mismatch
    reasons = qualification_failures(PHI1_6, CycloFactorization(((2, 4),)))
    assert any("degrees differ" in r for r in reasons)
    # imprimitive: both polynomials in x^3
    phi9 = CycloFactorization(((9, 1),))
    phi18 = CycloFactorization(((18, 1),))
    reasons = qualification_failures(phi9, phi18)
    assert reasons == ["imprimitive pair (both polynomials in x^3)"]
    assert qualification_failures(PHI1_6, ROW17_G) == []


def test_make_pair_rejects_with_reasons():
    with pytest.raises(NotQualifiedError) as err:
        make_pair(CycloFactorization(((9, 1),)), CycloFactorization(((18, 1),)))
    assert "imprimitive" in str(err.value)


def test_odd_degree_pairs_are_never_qualified():
    f = CycloFactorization(((1, 2), (2, 1)))  # degree 3, odd phi1 mult is 2.. degree 3
    g = CycloFactorization(((4, 1), (2, 1)))
    reasons = qualification_failures(f, g)
    assert any("odd" in r for r in reasons)


def test_leading_coeff_diff_signed():
    pair = make_pair(PHI1_6, ROW17_G)
    assert leading_coeff_diff(pair.f, pair.g) == -7
    with pytest.raises(ValueError):
        leading_coeff_diff(pair.f, pair.f)


coefficient_lists = st.lists(st.integers(-5, 5), max_size=8)


@given(coefficient_lists, coefficient_lists)
def test_leading_coeff_diff_is_that_of_the_difference(fs, gs):
    """Read from the coefficients, for any lengths, trailing zeros included."""
    f, g = IntPoly(fs), IntPoly(gs)
    if f == g:
        with pytest.raises(ValueError):
            leading_coeff_diff(f, g)
    else:
        assert leading_coeff_diff(f, g) == poly_sum(f, g, -1).coeffs[-1]
    with pytest.raises(ValueError):
        leading_coeff_diff(f, f)


def test_census_counts_degree_six():
    pairs = enumerate_qualified_pairs(6)
    assert len(pairs) == 458
    small = sum(1 for p in pairs if abs(p.lc) <= 2)
    assert small == 211
    assert len(pairs) - small == 247
    assert sum(1 for p in pairs if p.is_mum()) == 40


def test_census_counts_degree_four():
    assert len(enumerate_qualified_pairs(4)) == 58
    mums = enumerate_qualified_pairs(4, mum_only=True)
    assert len({p.pair_id for p in mums}) == len(mums) == 14


def test_census_rejects_unknown_convention():
    # classes are taken up to shift and swap only: the census takes no
    # convention, and mum_only is keyword-only, so a stray one is refused
    for convention in ("shift", "shift-swap"):
        with pytest.raises(TypeError):
            enumerate_qualified_pairs(6, convention)


def test_census_entries_unique_and_canonical():
    pairs = enumerate_qualified_pairs(6)
    ids = {p.pair_id for p in pairs}
    assert len(ids) == len(pairs)
    for p in pairs[::37]:
        rep = canonical_representative(p.f_fac, p.g_fac)
        assert rep.pair_id == p.pair_id


def _census_id(degree):
    """Case id: the equivalence, as the census summaries name it, and the degree."""
    return f"{EQUIVALENCE}-{degree}"


@pytest.mark.parametrize("degree", [4, 6], ids=_census_id)
def test_census_matches_brute_force_classes(degree):
    # every qualified ordered pair, mapped to its class representative
    facs = enumerate_factorizations(degree)
    classes = {
        canonical_representative(f, g).pair_id
        for f in facs for g in facs if not qualification_failures(f, g)
    }
    pairs = enumerate_qualified_pairs(degree)
    assert [p.pair_id for p in pairs] == sorted(
        classes, key=lambda pid: tuple(CycloFactorization.parse(s).factors for s in pid.split("|"))
    )


def test_census_qualifies_each_class_once(monkeypatch):
    calls = []
    real = qualification_failures

    def counting(f_fac, g_fac):
        calls.append((f_fac, g_fac))
        return real(f_fac, g_fac)

    monkeypatch.setattr(pairs_module, "qualification_failures", counting)
    reps = enumerate_qualified_pairs(6)
    assert len(set(calls)) == len(calls)
    assert [fg for fg in calls if not real(*fg)] == [(p.f_fac, p.g_fac) for p in reps]


def _pair_data(pairs):
    return [(p.pair_id, p.lc, p.f, p.g) for p in pairs]


@pytest.mark.parametrize("degree", [4, 6, 8], ids=_census_id)
@pytest.mark.parametrize("mum_only", [False, True])
def test_census_matches_the_all_ordered_pairs_oracle(degree, mum_only):
    assert _pair_data(enumerate_qualified_pairs(degree, mum_only=mum_only)) == _pair_data(
        all_ordered_pairs_census(degree, mum_only=mum_only)
    )


@pytest.mark.parametrize("degree", [6, 8], ids=_census_id)
def test_census_skips_only_unqualified_or_non_minimal_pairs(monkeypatch, degree):
    built = set()
    real = make_pair

    def recording(f_fac, g_fac):
        built.add((f_fac, g_fac))
        return real(f_fac, g_fac)

    monkeypatch.setattr(pairs_module, "make_pair", recording)
    enumerate_qualified_pairs(degree)
    facs = enumerate_factorizations(degree)
    skipped = [(f, g) for f in facs for g in facs if (f, g) not in built]
    assert len(skipped) > len(facs) ** 2 // 2
    for f, g in skipped:
        assert (
            pairs_module._orbit_minimum(f, g) != (f, g)
            or qualification_failures(f, g)
        ), (f.text, g.text)


def test_canonical_representative_orbit_invariance():
    pair = make_pair(PHI1_6, ROW17_G)
    rep = canonical_representative(pair.f_fac, pair.g_fac)
    # same class from the shifted pair and from the swapped pair
    shifted = canonical_representative(
        pair.f_fac.shifted, pair.g_fac.shifted
    )
    swapped = canonical_representative(pair.g_fac, pair.f_fac)
    assert rep.pair_id == shifted.pair_id == swapped.pair_id


def test_mum_only_returns_mum_orientation():
    mums = enumerate_qualified_pairs(6, mum_only=True)
    # the classes of (1^6, g) and (g, 1^6) are one, listed once
    assert len({p.pair_id for p in mums}) == len(mums) == 40
    for p in mums:
        assert p.f_fac.factors == ((1, 6),)
        assert p.alpha == (Fraction(0),) * 6


def test_mum_oriented():
    pair = make_pair(PHI1_6, ROW17_G)
    # reorder so the MUM member is hidden behind shift and swap
    scrambled = make_pair(ROW17_G.shifted, PHI1_6.shifted)
    assert scrambled.is_mum()
    oriented = mum_oriented(scrambled)
    assert oriented.pair_id == pair.pair_id
    non_mum = make_pair(
        CycloFactorization(((2, 4), (3, 1))), CycloFactorization(((1, 4), (4, 1)))
    )
    assert not non_mum.is_mum()
    with pytest.raises(ValueError):
        mum_oriented(non_mum)


def test_mum_class_detection_catches_all_orientations():
    g_shift = ROW17_G.shifted
    phi2_6 = PHI1_6.shifted
    for f_fac, g_fac in [
        (PHI1_6, ROW17_G),
        (ROW17_G, PHI1_6),
        (phi2_6, g_shift),
        (g_shift, phi2_6),
    ]:
        assert make_pair(f_fac, g_fac).is_mum()


def test_initial_classification_buckets():
    pairs = {p.pair_id: p for p in enumerate_qualified_pairs(6, mum_only=True)}
    # row 1: gcd obstruction
    row1 = pairs["1^6|2^6"]
    cls = initial_classification(row1, (-12, 0, -40, 0, -12, 0))
    assert cls.kind == "obstructed" and cls.gcd == 4
    # row 17: unknown before searching
    row17 = pairs["1^6|3^2,6"]
    cls = initial_classification(row17, (-7, 13, -21, 13, -7, 0))
    assert cls.kind == "unknown" and cls.searched_depth == 0
    # a small-lc pair
    small = next(p for p in enumerate_qualified_pairs(6) if abs(p.lc) <= 2)
    cls = initial_classification(small, (1, 0, 0, 0, 0, 0))
    assert cls.kind == "arithmetic_small_lc"


def test_lc_values_match_mum_table_members():
    """|lc| multiset over the MUM family, a strong census fingerprint."""
    mums = enumerate_qualified_pairs(6, mum_only=True)
    lcs = sorted(abs(p.lc) for p in mums)
    expected = sorted(
        [12, 11, 10, 9, 10, 9, 8, 8, 7, 9, 6, 8, 7, 8, 9, 8, 7, 7, 6, 5,
         8, 7, 6, 7, 6, 5, 7, 4, 6, 5, 6, 6, 3, 5, 4, 5, 7, 6, 5, 6]
    )
    assert lcs == expected


def test_default_convention_is_shift_swap():
    # the one equivalence, as the report and the enumerate summary name it
    assert EQUIVALENCE == "shift-swap"
