"""Certificate checker: tabulated witnesses pass, dependent examples fail."""

from fractions import Fraction

from hgsp.certify import (
    CHECK_ORDER,
    CertificateReport,
    _scaled_restrictions,
    verify_witness,
)
from hgsp.fixtures import DEPENDENT_EXAMPLES, TABLE_A, witness_rows
from hgsp.linalg import identity_matrix
from hgsp.words import Word


def test_every_tabulated_witness_passes():
    rows = witness_rows()
    assert len(rows) == 18
    for row in rows:
        report = verify_witness(row.pair(), row.witness_word())
        assert report.verdict, (row.number, report.first_failure)


def test_witness_c_values():
    expected = {
        17: -2, 18: 1, 19: -2, 20: -1, 22: 1, 23: -2, 25: -2, 26: -2,
        27: -1, 28: -2, 29: -2, 30: -2, 32: 1, 33: -1, 34: 1, 35: -1,
        36: -1, 40: -1,
    }
    for row in witness_rows():
        report = verify_witness(row.pair(), row.witness_word())
        assert report.c == expected[row.number], row.number


def test_dependent_examples_fail_at_independence():
    for ex in DEPENDENT_EXAMPLES:
        report = verify_witness(ex.pair(), Word.parse(ex.word))
        assert not report.verdict
        assert report.last_entry_ok
        assert report.c == ex.expected_c
        assert not report.independence_ok
        assert report.first_failure == "independence"


def test_check_order_is_the_report_schema():
    report = verify_witness(TABLE_A[16].pair(), TABLE_A[16].witness_word())
    for name in CHECK_ORDER:
        assert isinstance(getattr(report, name + "_ok"), bool)
    assert report.verdict == all(
        getattr(report, name + "_ok") for name in CHECK_ORDER
    )


def test_passing_report_has_no_first_failure():
    report = verify_witness(TABLE_A[16].pair(), TABLE_A[16].witness_word())
    assert report.verdict
    assert report.first_failure is None


def test_restriction_matrices_exact():
    # C1 is the transvection by v itself: identity except the middle column.
    row = TABLE_A[16]
    report = verify_witness(row.pair(), row.witness_word())
    c = report.c
    one = Fraction(1)
    zero = Fraction(0)
    assert report.c1_restriction == (
        (one, zero, zero),
        (zero, one, Fraction(-c)),
        (zero, zero, one),
    )
    assert report.c2_restriction == (
        (one, zero, zero),
        (zero, one, zero),
        (zero, Fraction(c), one),
    )


def test_c3_first_column_is_e1():
    for row in witness_rows()[:4]:
        report = verify_witness(row.pair(), row.witness_word())
        col = tuple(r[0] for r in report.c3_restriction)
        assert col == (Fraction(1), Fraction(0), Fraction(0))


def test_radical_dimension_one():
    report = verify_witness(TABLE_A[19].pair(), TABLE_A[19].witness_word())
    assert report.radical_dimension == 1


def test_omega_pairings_recorded():
    row = TABLE_A[16]
    report = verify_witness(row.pair(), row.witness_word())
    assert report.omega_v_en == 27
    assert report.omega_v_en != 0


def test_any_depth_one_word_usually_fails():
    # A alone fixes v, so the span of (v, A^-1 v, A v) collapses.
    row = TABLE_A[16]
    report = verify_witness(row.pair(), Word.parse("A"))
    assert not report.verdict


def test_to_json_round_trips_schema():
    import json

    row = TABLE_A[16]
    report = verify_witness(row.pair(), row.witness_word())
    blob = json.loads(json.dumps(report.to_json()))
    assert blob["pair_id"] == row.pair().pair_id
    assert blob["word"] == str(row.witness_word())
    assert blob["verdict"] is True
    assert blob["c"] == -2
    for name in CHECK_ORDER:
        assert blob[name + "_ok"] is True
    assert blob["first_failure"] is None
    assert blob["l1"] == "54"


def test_report_is_a_dataclass_instance():
    row = TABLE_A[16]
    report = verify_witness(row.pair(), row.witness_word())
    assert isinstance(report, CertificateReport)
    assert report.degree == 6
    assert report.pair_id == row.pair().pair_id


def test_scaled_restrictions_detect_an_image_outside_the_span():
    # basis 2e1, e2, e3 of a 3-space in Z^4: Gram determinant 4
    basis = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    ident = identity_matrix(4)
    # e2 -> e1 = (1/2)(2e1): inside, with a fractional coordinate
    to_e1 = tuple(tuple(1 if (i, j) in ((0, 0), (0, 1), (2, 2), (3, 3)) else 0
                        for j in range(4)) for i in range(4))
    # e3 -> e3 + e4 leaves the span
    escape = tuple(tuple(1 if i == j or (i, j) == (3, 2) else 0
                         for j in range(4)) for i in range(4))
    d, scaled = _scaled_restrictions(basis, (ident, to_e1, escape))
    assert d == 4
    assert scaled[0] == ((4, 0, 0), (0, 4, 0), (0, 0, 4))
    assert scaled[1] == ((4, 2, 0), (0, 0, 0), (0, 0, 4))
    assert scaled[2] is None
    # a dependent basis has Gram determinant 0
    dependent = ((1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0))
    assert _scaled_restrictions(dependent, (ident,)) == (0, [None])
