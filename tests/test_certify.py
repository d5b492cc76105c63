"""Certificate checker: tabulated witnesses pass, dependent examples fail,
and every report equals the matrix-product oracle's."""

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from hgsp import certify
from hgsp.certify import CHECK_ORDER, CertificateReport, _transvection, verify_witness
from hgsp.fixtures import DEPENDENT_EXAMPLES, TABLE_A, witness_rows
from hgsp.hgroup import build_generators, invariant_symplectic_form, transvection_vector
from hgsp.linalg import mat_vec
from hgsp.pairs import enumerate_qualified_pairs
from hgsp.words import Word
from oracles import is_transvection, matrix_certificate
from test_golden import certificate_cases
from test_words import _free_reduce


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


def _rank_one(u, r):
    """I + u r^T as a matrix."""
    n = len(u)
    return tuple(
        tuple((i == j) + u[i] * r[j] for j in range(n)) for i in range(n)
    )


def test_rank_one_transvection_predicate():
    cases = [
        ((0, 0, 0), (1, 2, 3), False),  # u = 0: C = I
        ((1, 2, 3), (0, 0, 0), False),  # r = 0: C = I
        ((1, 0, 0), (1, 0, 0), False),  # r . u = 1: rank one, not unipotent
        ((1, 2, 0), (2, -1, 5), True),  # r . u = 0: a transvection
    ]
    for u, r, expected in cases:
        assert _transvection(u, r) is expected, (u, r)
        assert is_transvection(_rank_one(u, r)) is expected, (u, r)


def _coordinates(basis, y):
    """Exact x with sum(x_i basis_i) == y, by elimination over Fractions;
    None when y lies outside the span of the (independent) basis."""
    rows = [[Fraction(x) for x in row] for row in zip(*basis, y)]
    k = len(basis)
    for col in range(k):
        pivot = next(i for i in range(col, len(rows)) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                rows[i] = [x - row[col] * p for x, p in zip(row, rows[col])]
    if any(row[k] for row in rows[k:]):
        return None
    return tuple(row[k] for row in rows[:k])


def _unit(j, n=6):
    return tuple(int(i == j) for i in range(n))


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


# Hand-made replacements for the vectors of C2 = I + w2 r2^T and
# C3 = I + w3 r3^T, each a function of v and the vector it replaces.
_BENDS = (
    None,
    ("r2", lambda v, r: _add(r, _unit(5))),
    ("r3", lambda v, r: _add(r, _unit(5))),
    ("r3", lambda v, r: _add(r, _unit(0))),
    ("w2", lambda v, w: _add(w, _unit(5))),
    ("r3", lambda v, r: (v[1], -v[0]) + (0,) * (len(v) - 2)),  # r3 . v = 0
)

_SHAPE_CHECKS = (
    "fixed_e", "c1_form", "c2_form", "c3_first_column", "l1_nonzero", "u_unipotent",
)


def test_shape_checks_fail_on_bent_rank_one_data(monkeypatch):
    # No real witness or sampled word fails these six checks, so bend the
    # vectors verify_witness reads.  The reported restrictions must equal an
    # exact solve of every image in {e, w1, w2}, and each check must equal
    # its definition on them.
    row = TABLE_A[16]
    pair, word = row.pair(), row.witness_word()
    gen = build_generators(pair)
    v = transvection_vector(gen)
    form = invariant_symplectic_form(gen, v)
    n = gen.degree
    real = {name: getattr(certify, name) for name in ("word_images", "word_row_images")}
    failed = set()
    for bend in _BENDS:
        vecs = {}

        def bent(function, names):
            def images(columns, x, letters):
                vecs.update(zip(names, real[function](columns, x, letters)))
                if bend is not None and bend[0] in names:
                    vecs[bend[0]] = bend[1](v, vecs[bend[0]])
                return tuple(vecs[name] for name in names)

            monkeypatch.setattr(certify, function, images)

        bent("word_images", ("w3", "w2"))
        bent("word_row_images", ("r2", "r3"))
        report = verify_witness(pair, word)
        assert report.radical_dimension_ok and report.basis_ok, bend
        w2, w3, e = vecs["w2"], vecs["w3"], report.e_vector
        # e spans the radical of the form on W
        assert _coordinates((v, w2, w3), e) is not None
        assert all(form.pairing(e, w) == 0 for w in (v, w2, w3))
        basis = (e, v, w2)
        restrictions, fixed = [], []
        for u, r in ((v, _unit(n - 1)), (w2, vecs["r2"]), (w3, vecs["r3"])):
            m = _rank_one(u, r)
            cols = [_coordinates(basis, mat_vec(m, b)) for b in basis]
            assert None not in cols  # every image stays in W
            restrictions.append(tuple(zip(*cols)))
            fixed.append(mat_vec(m, e) == e)
        m1, m2, m3 = restrictions
        assert (report.c1_restriction, report.c2_restriction, report.c3_restriction) == (m1, m2, m3)
        c = report.c
        expected = {
            "fixed_e": all(fixed),
            "c1_form": m1 == ((1, 0, 0), (0, 1, -c), (0, 0, 1)),
            "c2_form": m2 == ((1, 0, 0), (0, 1, 0), (0, c, 1)),
            "c3_first_column": (m3[0][0], m3[1][0], m3[2][0]) == (1, 0, 0),
            "l1_nonzero": m3[0][1] != 0,
            "u_unipotent": m3[1][1] + m3[2][2] == 2
            and m3[1][1] * m3[2][2] - m3[1][2] * m3[2][1] == 1,
        }
        assert {name: getattr(report, name + "_ok") for name in _SHAPE_CHECKS} == expected, bend
        assert report.verdict == (bend is None)
        failed.update(name for name, ok in expected.items() if not ok)
    assert failed == set(_SHAPE_CHECKS)


def _assert_same_report(pair, word):
    got = verify_witness(pair, word).to_json()
    want = matrix_certificate(pair, word).to_json()
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], (pair.pair_id, str(word), name)


def test_certificate_equals_the_matrix_oracle_on_the_golden_cases():
    cases = certificate_cases()
    assert len(cases) == 180
    for pair, word in cases:
        _assert_same_report(pair, word)


@lru_cache(maxsize=None)
def _sample_pairs(degree):
    """About twenty pairs spread over the census of one degree."""
    pairs = enumerate_qualified_pairs(degree)
    return pairs[:: max(1, len(pairs) // 20)]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((4, 6, 8)),
    st.integers(min_value=0, max_value=10 ** 6),
    st.lists(st.sampled_from([0, 1, 2, 3]), max_size=8).map(_free_reduce),
)
def test_certificate_equals_the_matrix_oracle_on_sampled_words(degree, index, word):
    pairs = _sample_pairs(degree)
    _assert_same_report(pairs[index % len(pairs)], word)
