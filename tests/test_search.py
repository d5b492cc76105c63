"""Witness search engine: outcomes, node counts, workers, reference parity."""

import pytest

from hgsp.certify import verify_witness
from hgsp.fixtures import TABLE_A
from hgsp.hgroup import build_generators, transvection_vector
from hgsp.linalg import mat_vec, unimodular_inverse
from hgsp.search import (
    FOUND,
    NOT_FOUND,
    OBSTRUCTED,
    NodeBudgetExceeded,
    SearchConfig,
    gcd_obstruction,
    reference_search,
    search_witness,
)
from hgsp.words import Word, evaluate_word


def table_pair(number):
    row = TABLE_A[number - 1]
    assert row.number == number
    return row.pair()


def test_gcd_obstruction_values():
    assert gcd_obstruction((-12, 0, -40, 0, -12, 0)) == 4
    assert gcd_obstruction((-9, 9, -27, 9, -9, 0)) == 9
    assert gcd_obstruction((-7, 13, -21, 13, -7, 0)) is None
    assert gcd_obstruction((2, 4, 6)) is None  # gcd 2 still leaves +-2
    with pytest.raises(ValueError):
        gcd_obstruction((0, 0, 0))


def test_candidate_check_row_17():
    pair = table_pair(17)
    gen = build_generators(pair)
    v = transvection_vector(gen)
    report = verify_witness(pair, Word.parse("A^2BA^-1B^4A"))
    assert report.last_entry_ok and report.independence_ok
    # B alone fails the last-entry test: Bv = (0,-7,13,-21,13,-7)
    assert mat_vec(gen.b, v) == (0, -7, 13, -21, 13, -7)
    assert not verify_witness(pair, Word.parse("B")).last_entry_ok


def test_candidate_check_dependent_example():
    from hgsp.fixtures import DEPENDENT_EXAMPLES

    ex = DEPENDENT_EXAMPLES[0]
    pair = ex.pair()
    gen = build_generators(pair)
    v = transvection_vector(gen)
    m = evaluate_word(Word.parse(ex.word), gen)
    # last entry of Mv is 2, yet the triple is dependent
    assert mat_vec(m, v)[-1] == 2
    report = verify_witness(pair, Word.parse(ex.word))
    assert report.last_entry_ok and not report.independence_ok


def test_search_row_20_depth_3():
    out = search_witness(table_pair(20), SearchConfig(max_depth=3))
    assert out.status == FOUND
    assert len(out.word) == 3
    assert str(out.word) == "B^2A"  # lexicographically least at depth 3
    assert out.nodes_per_depth == ((1, 4), (2, 12), (3, 36))
    assert out.nodes_visited == 52


def test_search_found_extras_consistent():
    pair = table_pair(20)
    out = search_witness(pair, SearchConfig(max_depth=3))
    gen = build_generators(pair)
    v = transvection_vector(gen)
    m = evaluate_word(out.word, gen)
    assert out.matrix == m
    assert out.gamma_v == mat_vec(m, v)
    assert out.gamma_inv_v == mat_vec(unimodular_inverse(m), v)
    assert out.gamma_v[-1] in (1, -1, 2, -2)


def test_search_row_1_obstructed():
    out = search_witness(table_pair(1), SearchConfig(max_depth=9))
    assert out.status == OBSTRUCTED
    assert out.gcd == 4
    assert out.nodes_visited == 0
    assert out.word is None


def test_search_row_2_not_found_depth_9():
    out = search_witness(table_pair(2), SearchConfig(max_depth=9))
    assert out.status == NOT_FOUND
    assert out.max_depth == 9
    assert out.nodes_visited == sum(4 * 3 ** (d - 1) for d in range(1, 10))


def test_node_counts_exact_per_depth():
    out = search_witness(table_pair(2), SearchConfig(max_depth=7))
    assert out.nodes_per_depth == tuple(
        (d, 4 * 3 ** (d - 1)) for d in range(1, 8)
    )


def test_worker_counts_do_not_change_results():
    pair = table_pair(22)
    outs = [
        search_witness(pair, SearchConfig(max_depth=8, workers=w))
        for w in (1, 2, 4)
    ]
    words = {str(o.word) for o in outs}
    assert len(words) == 1
    assert len({o.nodes_visited for o in outs}) == 1
    assert len({o.nodes_per_depth for o in outs}) == 1


def test_pivot_depth_does_not_change_results():
    pair = table_pair(35)
    a = search_witness(pair, SearchConfig(max_depth=6, workers=2, pivot_depth=2))
    b = search_witness(pair, SearchConfig(max_depth=6, workers=2, pivot_depth=5))
    c = search_witness(pair, SearchConfig(max_depth=6, workers=1))
    assert str(a.word) == str(b.word) == str(c.word)
    assert a.nodes_per_depth == b.nodes_per_depth == c.nodes_per_depth


def test_node_budget_stops_before_overrun():
    with pytest.raises(NodeBudgetExceeded) as err:
        search_witness(table_pair(2), SearchConfig(max_depth=9, node_budget=100))
    assert err.value.depth_completed == 3
    assert err.value.nodes_visited == 52


def test_budget_large_enough_is_harmless():
    out = search_witness(table_pair(20), SearchConfig(max_depth=3, node_budget=52))
    assert out.status == FOUND


def test_all_at_min_depth_collects_every_witness():
    pair = table_pair(20)
    out = search_witness(
        pair, SearchConfig(max_depth=3, all_at_min_depth=True)
    )
    assert out.status == FOUND
    assert out.words_at_depth is not None
    words = [str(w) for w in out.words_at_depth]
    assert words[0] == "B^2A"
    assert "B^3" in words  # the tabulated witness is among them
    assert words == sorted(words, key=lambda s: tuple(Word.parse(s)))
    for w in out.words_at_depth:
        report = verify_witness(pair, w)
        assert report.last_entry_ok and report.independence_ok


def test_found_results_pass_certificate():
    for number in (20, 25, 33, 35):
        pair = table_pair(number)
        out = search_witness(pair, SearchConfig(max_depth=6))
        assert out.status == FOUND
        report = verify_witness(pair, out.word)
        assert report.verdict, (number, report.first_failure)


def test_reference_search_agrees_on_existence():
    for number in (1, 2, 20, 22, 25, 33, 35):
        pair = table_pair(number)
        ref = reference_search(pair, 5)
        eng = search_witness(pair, SearchConfig(max_depth=5))
        assert ref.found == (eng.status == FOUND), number
        if ref.found:
            # both words are genuine witnesses even if different
            report = verify_witness(pair, ref.word)
            assert report.last_entry_ok and report.independence_ok


def test_reference_search_counts_nodes():
    # identity root plus every word enumerated before the hit
    ref = reference_search(table_pair(2), 2)
    assert not ref.found
    assert ref.nodes == 1 + 4 + 12


def test_obstructed_never_found():
    for row in TABLE_A:
        pair = row.pair()
        gen = build_generators(pair)
        v = transvection_vector(gen)
        if gcd_obstruction(v) is not None:
            out = search_witness(pair, SearchConfig(max_depth=4))
            assert out.status == OBSTRUCTED


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        search_witness(table_pair(20), SearchConfig(max_depth=0))
    with pytest.raises(ValueError):
        search_witness(table_pair(20), SearchConfig(max_depth=-1))
    with pytest.raises(ValueError):
        search_witness(table_pair(20), SearchConfig(max_depth=3, workers=0))
