"""Internal consistency of the bundled table data."""

from math import gcd

from hgsp.cyclotomic import parse_parameters
from hgsp.fixtures import (
    CENSUS_TOTAL,
    DEPENDENT_EXAMPLES,
    OBSTRUCTED_ROWS,
    TABLE_A,
    TABLE_B_COUNT,
    TABLE_C_COUNT,
    TABLE_D,
    witness_rows,
)
from hgsp.hgroup import build_generators, transvection_vector


def test_row_counts():
    assert len(TABLE_A) == 40
    assert len(TABLE_D) == 64
    assert len(witness_rows()) == 18
    assert len(DEPENDENT_EXAMPLES) == 2
    assert CENSUS_TOTAL == 458
    assert TABLE_B_COUNT == 143
    assert TABLE_C_COUNT == 211
    assert TABLE_B_COUNT + TABLE_C_COUNT < CENSUS_TOTAL


def test_table_a_numbering_and_uniqueness():
    assert [row.number for row in TABLE_A] == list(range(1, 41))
    ids = {row.pair().pair_id for row in TABLE_A}
    assert len(ids) == 40


def test_table_a_v_matches_computed_vector():
    for row in TABLE_A:
        pair = row.pair()
        v = transvection_vector(build_generators(pair))
        assert v == row.v, row.number
        assert abs(pair.lc) == row.lc_abs, row.number


def test_table_a_beta_round_trips():
    for row in TABLE_A:
        pair = row.pair()
        listed = parse_parameters(",".join(row.beta))
        assert tuple(sorted(pair.beta)) == tuple(sorted(listed))


def test_obstructed_rows_have_the_stated_gcds():
    expected = dict(zip(OBSTRUCTED_ROWS, (4, 4, 9, 7, 3)))
    for row in TABLE_A:
        v = transvection_vector(build_generators(row.pair()))
        g = gcd(*v)
        if row.number in expected:
            assert g == expected[row.number], row.number
        else:
            assert g <= 2, row.number


def test_witnesses_only_on_unobstructed_rows():
    for row in TABLE_A:
        if row.number in OBSTRUCTED_ROWS:
            assert row.witness is None
        if row.witness is not None:
            assert row.number not in OBSTRUCTED_ROWS
            assert len(row.witness_word()) >= 1


def test_open_rows_partition():
    # "open" here means no recorded witness; the obstructed rows are a
    # subset of them (settled negatively rather than left undecided).
    open_numbers = {row.number for row in TABLE_A if not row.witness}
    witness_numbers = {row.number for row in witness_rows()}
    assert open_numbers & witness_numbers == set()
    assert open_numbers | witness_numbers == set(range(1, 41))
    assert set(OBSTRUCTED_ROWS) <= open_numbers
    assert len(open_numbers) == 40 - 18


def test_table_d_rows_are_qualified_large_lc():
    ids = set()
    for row in TABLE_D:
        pair = row.pair()
        ids.add(pair.pair_id)
        assert abs(pair.lc) >= 3, row.number
    assert len(ids) == 64


def test_dependent_examples_shape():
    four, six = DEPENDENT_EXAMPLES
    assert four.pair().degree == 4
    assert six.pair().degree == 6
    assert four.expected_c == 2
    assert six.expected_c == 1
    assert {ex.label for ex in DEPENDENT_EXAMPLES} == {
        "degree-4 dependent",
        "degree-6 dependent",
    }
