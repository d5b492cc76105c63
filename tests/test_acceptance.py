"""Acceptance gate.

Each test is one criterion, run at its stated tolerance, and logs a single
ACCEPTANCE <n> <name>: PASS/FAIL line (live-logged, so the lines show up in
a plain pytest run).  Timed criteria measure wall clock and assert the
budget; the budgets are generous on purpose, the point is catching
regressions that change the complexity class, not benchmarking.
"""

import functools
import logging
import random
import time
from math import gcd

from hgsp.certify import verify_witness
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
from hgsp.hgroup import build_generators, invariant_symplectic_form, transvection_vector
from hgsp.linalg import mat_vec
from hgsp.pairs import canonical_representative, enumerate_qualified_pairs
from hgsp.search import SearchConfig, gcd_obstruction, search_witness
from hgsp.words import Word
from oracles import (
    determinant,
    invariant_alternating_space,
    mat_mul,
    reference_search,
    symmetric_invariant_dimension,
    transpose,
    unimodular_inverse,
)

log = logging.getLogger("acceptance")


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                log.info("ACCEPTANCE %d %s: FAIL", number, name)
                raise
            log.info("ACCEPTANCE %d %s: PASS", number, name)
            return result

        return wrapper

    return decorate


def census():
    return enumerate_qualified_pairs(6)


def canonical_id(pair):
    return canonical_representative(pair.f_fac, pair.g_fac).pair_id


@criterion(1, "enumeration-counts")
def test_criterion_01_enumeration_counts():
    start = time.monotonic()
    pairs = census()
    assert len(pairs) == CENSUS_TOTAL == 458
    assert sum(1 for p in pairs if p.is_mum()) == 40
    small = sum(1 for p in pairs if abs(p.lc) <= 2)
    assert small == TABLE_C_COUNT == 211

    table_d_ids = {canonical_id(row.pair()) for row in TABLE_D}
    candidates = [
        p for p in pairs
        if abs(p.lc) >= 3 and not p.is_mum() and p.pair_id not in table_d_ids
    ]
    assert len(candidates) == TABLE_B_COUNT == 143

    assert len(enumerate_qualified_pairs(4, mum_only=True)) == 14
    assert time.monotonic() - start < 60


@criterion(2, "table-fidelity")
def test_criterion_02_table_fidelity():
    census_ids = {p.pair_id for p in census()}
    for row in TABLE_A:
        pair = row.pair()
        assert pair.pair_id.startswith("1^6|")
        v = transvection_vector(build_generators(pair))
        listed = parse_parameters(",".join(row.beta))
        assert tuple(sorted(pair.beta)) == tuple(sorted(listed)), row.number
        assert abs(pair.lc) == row.lc_abs, row.number
        assert v == row.v, row.number
    for row in TABLE_D:
        pair = row.pair()
        assert canonical_id(pair) in census_ids, row.number
        assert abs(pair.lc) >= 3, row.number


@criterion(3, "certificate-suite")
def test_criterion_03_certificate_suite():
    start = time.monotonic()
    for row in witness_rows():
        report = verify_witness(row.pair(), row.witness_word())
        assert report.verdict, (row.number, report.first_failure)
    expected_c = {"degree-4 dependent": 2, "degree-6 dependent": 1}
    for ex in DEPENDENT_EXAMPLES:
        report = verify_witness(ex.pair(), Word.parse(ex.word))
        assert not report.verdict, ex.label
        assert report.last_entry_ok, ex.label
        assert not report.independence_ok, ex.label
        assert report.first_failure == "independence", ex.label
        assert report.c == expected_c[ex.label]
    assert time.monotonic() - start < 10


@criterion(4, "gcd-obstruction")
def test_criterion_04_gcd_obstruction():
    expected = dict(zip(OBSTRUCTED_ROWS, (4, 4, 9, 7, 3)))
    assert OBSTRUCTED_ROWS == (1, 8, 15, 37, 38)
    for row in TABLE_A:
        v = transvection_vector(build_generators(row.pair()))
        obstruction = gcd_obstruction(v)
        if row.number in expected:
            assert obstruction == expected[row.number], row.number
            assert gcd(*v) == expected[row.number], row.number
        else:
            assert obstruction is None, row.number


@criterion(5, "short-witness-search")
def test_criterion_05_short_witness_search():
    start = time.monotonic()
    for number in (20, 22, 25, 32, 33, 35):
        pair = TABLE_A[number - 1].pair()
        outcome = search_witness(pair, SearchConfig(max_depth=6))
        assert outcome.status == "found", number
        assert 3 <= len(outcome.word) <= 6, number
        report = verify_witness(pair, outcome.word)
        assert report.verdict, (number, report.first_failure)
    assert time.monotonic() - start < 30


@criterion(6, "negative-search-depth-12")
def test_criterion_06_negative_search_depth_12():
    for number in (2, 3, 4):
        pair = TABLE_A[number - 1].pair()
        start = time.monotonic()
        outcome = search_witness(pair, SearchConfig(max_depth=12))
        elapsed = time.monotonic() - start
        assert outcome.status == "not_found", number
        assert elapsed < 300, (number, elapsed)


@criterion(7, "symplectic-form-properties")
def test_criterion_07_symplectic_form_properties():
    start = time.monotonic()
    for pair in census():
        gen = build_generators(pair)
        v = transvection_vector(gen)
        space = invariant_alternating_space(gen)
        assert len(space) == 1, pair.pair_id
        assert symmetric_invariant_dimension(gen) == 0, pair.pair_id
        form = invariant_symplectic_form(gen, v)
        omega = form.omega
        assert determinant(omega) != 0, pair.pair_id
        row_v = tuple(
            sum(v[k] * omega[k][j] for k in range(6)) for j in range(6)
        )
        assert row_v[:5] == (0, 0, 0, 0, 0), pair.pair_id
        assert row_v[5] != 0, pair.pair_id
        for x in (gen.a, gen.b):
            assert mat_mul(mat_mul(transpose(x), omega), x) == omega, pair.pair_id
    assert time.monotonic() - start < 300


@criterion(8, "reference-oracle-equivalence")
def test_criterion_08_reference_oracle_equivalence():
    pairs = census()
    table_a_pairs = [row.pair() for row in TABLE_A]
    table_a_ids = {p.pair_id for p in table_a_pairs}
    rng = random.Random(60517)
    others = [p for p in pairs if p.pair_id not in table_a_ids]
    sample = rng.sample(others, 20)

    for pair in table_a_pairs + sample:
        ref = reference_search(pair, 6)
        eng = search_witness(pair, SearchConfig(max_depth=6))
        assert ref.found == (eng.status == "found"), pair.pair_id

    exhaustive = search_witness(
        TABLE_A[1].pair(), SearchConfig(max_depth=6)
    )
    assert exhaustive.nodes_per_depth == tuple(
        (d, 4 * 3 ** (d - 1)) for d in range(1, 7)
    )


@criterion(9, "transvection-vector-identity")
def test_criterion_09_transvection_vector_identity():
    for pair in census():
        gen = build_generators(pair)
        e_n = tuple(0 for _ in range(5)) + (1,)
        m = mat_mul(unimodular_inverse(gen.a), gen.b)
        moved = mat_vec(m, e_n)
        matrix_v = tuple(x - e for x, e in zip(moved, e_n))
        diff = [a - b for a, b in zip(pair.f.coeffs, pair.g.coeffs)]
        poly_v = tuple(diff[1:7])
        assert matrix_v == poly_v == transvection_vector(gen), pair.pair_id


@criterion(10, "workers-change-nothing")
def test_criterion_10_worker_determinism(no_process):
    # workers is checked and otherwise ignored: every search runs in this process
    pairs = census()
    rng = random.Random(91125)
    sample = rng.sample(pairs, 10)
    for pair in sample:
        outcomes = [
            search_witness(pair, SearchConfig(max_depth=8, workers=w))
            for w in (1, 2, 4, 8)
        ]
        statuses = {o.status for o in outcomes}
        words = {str(o.word) if o.word is not None else None for o in outcomes}
        nodes = {o.nodes_visited for o in outcomes}
        per_depth = {o.nodes_per_depth for o in outcomes}
        assert len(statuses) == 1, pair.pair_id
        assert len(words) == 1, pair.pair_id
        assert len(nodes) == 1, pair.pair_id
        assert len(per_depth) == 1, pair.pair_id
