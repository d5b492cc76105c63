"""Witness search engine: outcomes, node counts, workers, reference parity."""

import os
import random
import subprocess
import sys
from functools import lru_cache, reduce
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hgsp import search
from hgsp.certify import verify_witness
from hgsp.cyclotomic import CycloFactorization
from hgsp.fixtures import TABLE_A
from hgsp.hgroup import build_generators, transvection_vector
from hgsp.linalg import mat_vec
from hgsp.pairs import enumerate_qualified_pairs, make_pair
from hgsp.search import (
    _BLOCK_DEPTH,
    FOUND,
    NOT_FOUND,
    OBSTRUCTED,
    SearchConfig,
    _Block,
    _Engine,
    _size,
    _suffix,
    _width,
    gcd_obstruction,
    search_witness,
)
from hgsp.words import A, A_INV, B, B_INV, Word, inverse_letter

from oracles import (
    canonical_search,
    evaluate_word,
    letter_matrix,
    reference_search,
    unimodular_inverse,
)


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


def test_worker_counts_do_not_change_results(no_process):
    pair = table_pair(22)
    outs = [
        search_witness(pair, SearchConfig(max_depth=8, workers=w))
        for w in (1, 2, 4, 8)
    ]
    assert len({o.status for o in outs}) == 1
    assert len({str(o.word) for o in outs}) == 1
    assert len({o.nodes_visited for o in outs}) == 1
    assert len({o.nodes_per_depth for o in outs}) == 1


@pytest.mark.parametrize("number,max_depth,status,reached", [
    (20, 5, FOUND, 3),  # up to the witness's length
    (2, 4, NOT_FOUND, 4),  # up to max_depth
    (1, 9, OBSTRUCTED, 0),  # no level at all
])
def test_node_counts_follow_from_the_depth_reached(number, max_depth, status, reached):
    out = search_witness(table_pair(number), SearchConfig(max_depth=max_depth))
    assert out.status == status
    expected = tuple((d, 4 * 3 ** (d - 1)) for d in range(1, reached + 1))
    assert out.nodes_per_depth == expected
    assert out.nodes_visited == sum(count for _, count in expected)


def _pool_modules_after(code):
    """The process pool's modules loaded in a fresh interpreter after code."""
    code += "; import sys; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip()


def test_import_does_not_load_the_process_pool():
    assert _pool_modules_after("import hgsp") == "[]"


def test_deep_search_with_workers_does_not_load_the_process_pool():
    # depth 13 on two CPUs, with two workers asked for
    code = (
        "import os; os.cpu_count = lambda: 2; "
        "from hgsp import fixtures, search; "
        "cfg = search.SearchConfig(max_depth=13, workers=2); "
        "assert search.search_witness(fixtures.TABLE_A[1].pair(), cfg).status == 'not_found'"
    )
    assert _pool_modules_after(code) == "[]"


def _reduced(letters):
    return all(y != inverse_letter(x) for x, y in zip(letters, letters[1:]))


def test_all_at_min_depth_collects_every_witness():
    # the engine tests only B^2A and A^-1B^-2 of these: B^3 (the tabulated
    # witness) and B^-3 come back through the swaps of a final A for B and a
    # first A^-1 for B^-1
    pair = table_pair(20)
    out = search_witness(
        pair, SearchConfig(max_depth=3, all_at_min_depth=True)
    )
    assert out.status == FOUND
    assert [str(w) for w in out.words_at_depth] == ["B^2A", "B^3", "A^-1B^-2", "B^-3"]
    passing = []
    for letters in product(range(4), repeat=3):  # lexicographic
        if _reduced(letters):
            report = verify_witness(pair, Word(letters))
            if report.last_entry_ok and report.independence_ok:
                passing.append(Word(letters))
    assert out.words_at_depth == tuple(passing)


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


@pytest.fixture(scope="module")
def oracle_cases():
    """A seed-picked sample of the degree-4, 6 and 8 classes that need a
    witness (|lc| >= 3, no gcd obstruction), and the degree-12 class
    1^12|2^10,3, each with the canonical search oracle's answer to depth 5."""
    rng = random.Random(6021)
    cases = []
    for degree, k in ((4, 4), (6, 4), (8, 3)):
        pairs = [
            p for p in enumerate_qualified_pairs(degree)
            if abs(p.lc) >= 3
            and gcd_obstruction(transvection_vector(build_generators(p))) is None
        ]
        for pair in rng.sample(pairs, k):
            cases.append((pair, canonical_search(pair, 5)))
    degree12 = make_pair(CycloFactorization.parse("1^12"), CycloFactorization.parse("2^10,3"))
    cases.append((degree12, canonical_search(degree12, 5)))
    return cases


def test_engine_matches_canonical_oracle(oracle_cases):
    for pair, (word, per_depth, hits) in oracle_cases:
        first = search_witness(pair, SearchConfig(max_depth=5))
        every = search_witness(pair, SearchConfig(max_depth=5, all_at_min_depth=True))
        for out in (first, every):
            assert out.status == (FOUND if word else NOT_FOUND), pair.pair_id
            assert out.word == word, pair.pair_id
            assert out.nodes_per_depth == per_depth, pair.pair_id
        assert first.words_at_depth is None
        assert every.words_at_depth == (hits if word else None), pair.pair_id
    # the sample covers found and not-found classes, and ties at the minimal depth
    assert {w is None for _, (w, _, _) in oracle_cases} == {True, False}
    assert any(len(hits) > 1 for _, (_, _, hits) in oracle_cases)


@pytest.fixture(scope="module")
def deep_oracle_cases(oracle_cases):
    """Two classes of the sample with the oracle's answer to depth 6: one
    whose witnesses have length 6 and one with none."""
    by_id = {pair.pair_id: pair for pair, _ in oracle_cases}
    return [
        (by_id[pair_id], canonical_search(by_id[pair_id], 6))
        for pair_id in ("1^2,6|4^2", "3^3|14")
    ]


def test_engine_matches_canonical_oracle_at_depth_6(deep_oracle_cases):
    # a length-6 word is tested whole, as one 6-letter suffix block after the root
    (_, found), (_, missing) = deep_oracle_cases
    assert len(found[0]) == 6 and len(found[2]) > 1
    assert missing[0] is None
    for pair, (word, per_depth, hits) in deep_oracle_cases:
        first = search_witness(pair, SearchConfig(max_depth=6))
        every = search_witness(pair, SearchConfig(max_depth=6, all_at_min_depth=True))
        for out in (first, every):
            assert out.word == word, pair.pair_id
            assert out.nodes_per_depth == per_depth, pair.pair_id
        assert (every.words_at_depth or ()) == hits, pair.pair_id


# -- suffix blocks ---------------------------------------------------------------


def _block_engines():
    """Engines for rows 22 and 2, a degree-8 class and 1^12|2^12.  The
    entries of 1^12|2^12 stay below 2^35 to length 6, and pass 2^31 at
    length 6; with v scaled by 2^40 they pass 2^31 from length 1 on and
    2^63 from length 4 on, so its rows take fields of 72 bits and more."""
    degree8 = next(p for p in enumerate_qualified_pairs(8) if abs(p.lc) >= 3)
    degree12 = make_pair(CycloFactorization.parse("1^12"), CycloFactorization.parse("2^12"))
    engines = []
    for pair in (table_pair(22), table_pair(2), degree8, degree12):
        gen = build_generators(pair)
        engines.append((gen, _Engine(gen, transvection_vector(gen))))
    gen, wide = engines[-1]
    engines.append((gen, _Engine(gen, tuple(x << 40 for x in wide.v))))
    return engines


BLOCK_ENGINES = _block_engines()
# the scan states: a last letter, or an A after B^-1 (state 4); the root
# scans the blocks that follow B: neither is followed by B^-1
STATES = range(5)
BLOCK_KEYS = [(k, last) for k in range(1, _BLOCK_DEPTH + 1) for last in STATES]
WIDTHS = (32, 40, 64, 88)  # field widths, each a whole number of bytes


def _pruned_end(word):
    """Whether a tested word may not end here: in B or in B^-1 A."""
    return word[-1] == B or word[-2:] == (B_INV, A)


@lru_cache(maxsize=None)
def _suffixes(k, last):
    """The reduced suffixes of length k that may follow the state last (the
    letters B^-1 A for state 4) and do not give a word ending in B or in
    B^-1 A (so the empty suffix follows neither B nor state 4), in
    lexicographic order."""
    before = (B_INV, A) if last == 4 else (last,)
    return tuple(
        s for s in product(range(4), repeat=k)
        if _reduced(before + s) and not _pruned_end(before + s)
    )


@lru_cache(maxsize=None)
def _image(index, s):
    """L_s v for the engine BLOCK_ENGINES[index], one matrix-vector product
    per letter."""
    gen, engine = BLOCK_ENGINES[index]
    return mat_vec(letter_matrix(gen, s[0]), _image(index, s[1:])) if s else engine.v


def _plain_vectors(index, k, last):
    return [_image(index, s) for s in _suffixes(k, last)]


def _unpack(block):
    """w_s for each suffix of a block whose entries e have e + 2 below
    2^(width-1), read from the biased fields of its columns."""
    size = block.width // 8
    coords = [(c + block.bias).to_bytes(size * block.count, "little") for c in block.columns]
    return [
        tuple(int.from_bytes(data[j * size:(j + 1) * size], "little") - 2 ** (block.width - 1) - 2
              for data in coords)
        for j in range(block.count)
    ]


def test_suffix_positions_list_the_reduced_suffixes_in_order():
    for k in range(_BLOCK_DEPTH + 1):
        for last in STATES:
            suffixes = _suffixes(k, last)
            assert _size(k, last) == len(suffixes), (k, last)
            assert tuple(_suffix(k, last, j) for j in range(len(suffixes))) == suffixes
    # after the first letter, state 4 lists the suffixes that state A lists
    assert all(_suffixes(k, 4) == _suffixes(k, A) for k in range(1, _BLOCK_DEPTH + 1))
    assert _suffixes(0, 4) == () and _suffixes(0, A) == ((),)
    assert {_size(_BLOCK_DEPTH, last) for last in STATES} == {486}


def test_blocks_hold_the_reduced_suffixes_in_order():
    too_wide = set()
    for index, (_, engine) in enumerate(BLOCK_ENGINES):
        for width in WIDTHS:
            for k, last in [(0, last) for last in STATES] + BLOCK_KEYS:
                block = engine.block(k, last, width)
                vectors = _plain_vectors(index, k, last)
                assert block.width == width
                assert block.count == _size(k, last) == len(vectors), (k, last)
                # the signed packing of the vectors, whatever their size
                assert list(block.columns) == [
                    sum(w[i] << width * j for j, w in enumerate(vectors))
                    for i in range(len(engine.v))
                ], (k, last, width)
                # one bound, the same at every width
                assert block.bound == engine.block(k, last).bound
                assert all(
                    abs(w[i]) <= block.bound[i] for w in vectors for i in range(len(w))
                ), (k, last)
                if max(block.bound) + 2 < 2 ** (width - 1):
                    assert _unpack(block) == vectors, (k, last, width)
                else:
                    too_wide.add((index, width))
    # the widths at which some block's entries do not fit a field: 32 bits for
    # 1^12|2^12, every width to 64 bits for the scaled engine
    assert too_wide == {(3, 32)} | {(4, width) for width in (32, 40, 64)}
    # the first length whose entries reach 2^31 and 2^63: only 1^12|2^12 passes
    # 2^31, at length 6, and only its scaled engine passes 2^63
    assert [
        [min((k for k, last in BLOCK_KEYS if max(engine.block(k, last).bound) >= 2 ** e),
             default=None) for e in (31, 63)]
        for _, engine in BLOCK_ENGINES
    ] == [[None, None], [None, None], [None, None], [6, None], [1, 4]]


def test_scan_tests_exactly_the_words_not_pruned(monkeypatch):
    # with every block reporting every position, each word tested reaches the
    # confirm step; those are the reduced words that start with neither B^-1
    # nor A^-1 B and end in neither B nor B^-1 A, in lexicographic order, but
    # for the A^-1 B words in a block that follows the root or a first A^-1
    # (depth 7 or less), as the scan steps no B after a first A^-1 there
    tested = []
    monkeypatch.setattr(_Block, "candidates", lambda block, row: range(block.count))
    monkeypatch.setattr(_Engine, "_confirm", lambda engine, word, hits: tested.append(word))
    _, engine = BLOCK_ENGINES[1]
    for depth in range(1, _BLOCK_DEPTH + 3):
        tested.clear()
        engine.scan(engine.root, search._ROOT_LAST, depth, [], [], True)
        assert tested == [
            s for s in product(range(4), repeat=depth)
            if _reduced(s) and s[0] != B_INV and not _pruned_end(s)
            and (depth <= _BLOCK_DEPTH + 1 or s[:2] != (A_INV, B))
        ], depth
    assert len(tested) == 3888  # 44% of the 8748 reduced words of length 8


@st.composite
def reduced_words(draw, max_length):
    """A reduced word of 1 .. max_length letters."""
    letters = [draw(st.integers(0, 3))]
    for _ in range(draw(st.integers(0, max_length - 1))):
        letters.append(draw(st.sampled_from(
            [y for y in range(4) if y != inverse_letter(letters[-1])])))
    return tuple(letters)


SWAP_PAIRS = [table_pair(2), table_pair(17), table_pair(22),
              next(p for p in enumerate_qualified_pairs(8) if abs(p.lc) >= 3)]


@given(pair=st.sampled_from(SWAP_PAIRS), word=reduced_words(8))
@example(pair=SWAP_PAIRS[1], word=Word.parse("B^3AB^3A").letters)  # witnesses
@example(pair=SWAP_PAIRS[2], word=Word.parse("A^-1B^-4A^-1").letters)
def test_swapping_into_b_keeps_the_candidate_check(pair, word):
    # the pruning rests on this: uB passes iff uA does, and B^-1u iff A^-1u;
    # the last entry c of gamma(v) itself is the same, not just its test
    def check(letters):
        report = verify_witness(pair, Word(letters))
        return report.c, report.last_entry_ok, report.independence_ok

    for with_a, with_b in (
        (word[:-1] + (A,), word[:-1] + (B,)),
        ((A_INV,) + word[1:], (B_INV,) + word[1:]),
    ):
        if _reduced(with_a) and _reduced(with_b):
            assert check(with_a) == check(with_b), (with_a, with_b)


@given(pair=st.sampled_from(SWAP_PAIRS), word=reduced_words(8))
@example(pair=SWAP_PAIRS[1], word=Word.parse("B^3AB^3A").letters)  # witnesses
@example(pair=SWAP_PAIRS[2], word=Word.parse("A^-1B^-4A^-1").letters)
def test_t_inverse_ends_keep_the_candidate_check(pair, word):
    # the second pruning rule rests on this: with T = A^-1 B, u T^-1 = u B^-1 A
    # and T u = A^-1 B u have the last entry c and the span of u itself
    def check(letters):
        report = verify_witness(pair, Word(letters))
        return report.c, report.last_entry_ok, report.independence_ok

    for longer in (word + (B_INV, A), (A_INV, B) + word):
        if _reduced(longer):
            assert check(longer) == check(word), (word, longer)


def _bezout(w):
    """(g, c) with c . w = g = gcd of the entries of w."""
    g, coeffs = 0, [0] * len(w)
    for i, x in enumerate(w):
        a, b, x0, x1, y0, y1 = g, x, 1, 0, 0, 1
        while b:
            q, a, b = a // b, b, a % b
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        if a < 0:
            a, x0, y0 = -a, -x0, -y0
        coeffs = [x0 * c for c in coeffs]
        coeffs[i] = y0
        g = a
    return g, coeffs


@st.composite
def block_rows(draw, kind):
    """An engine, a block key, the block at a drawn width, its plain vectors
    and a row.  "hit": small entries moved so r . w_j = t for a drawn suffix
    j and target t; "wide": entries of up to 80 bits, so most rows do not
    fit the drawn width, moved the same way half the time; "edge": one
    entry set so that the load sum_i |r_i| bound[i] plus 2 is just under, at
    or just over 2^31, 2^39 or 2^63, the bounds of the 32-, 40- and 64-bit
    fields."""
    index = draw(st.integers(0, len(BLOCK_ENGINES) - 1))
    _, engine = BLOCK_ENGINES[index]
    k, last = draw(st.sampled_from(BLOCK_KEYS))
    width = draw(st.sampled_from(WIDTHS))
    block, vectors = engine.block(k, last, width), _plain_vectors(index, k, last)
    scale = 1 << draw(st.sampled_from((12, 24, 40, 52, 60, 64, 72))) if kind == "wide" else 1
    row = [scale * x for x in draw(st.lists(
        st.integers(-255, 255), min_size=len(engine.v), max_size=len(engine.v)))]
    if kind == "edge":
        limit = draw(st.sampled_from((2 ** 31, 2 ** 39, 2 ** 63))) - 2
        i = draw(st.sampled_from([i for i, b in enumerate(block.bound) if b]))
        rest = sum(abs(r) * b for j, (r, b) in enumerate(zip(row, block.bound)) if j != i)
        row[i] = draw(st.sampled_from((1, -1))) * max(
            0, (limit - rest) // block.bound[i] + draw(st.sampled_from((-1, 0, 1))))
    elif kind == "hit" or draw(st.booleans()):
        w = vectors[draw(st.integers(0, len(vectors) - 1))]
        target = draw(st.sampled_from((1, -1, 2, -2)))
        g, coeffs = _bezout(w)
        if target % g == 0:
            shift = (target - sum(a * b for a, b in zip(row, w))) // g
            row = [r + shift * c for r, c in zip(row, coeffs)]
    return engine, (k, last), block, vectors, tuple(row)


@pytest.mark.parametrize("kind", ["hit", "wide", "edge"])
@given(data=st.data())
def test_packed_block_test_matches_plain_dot_products(kind, data):
    engine, key, block, vectors, row = data.draw(block_rows(kind))
    dots = [sum(a * b for a, b in zip(row, w)) for w in vectors]
    hits = [j for j, d in enumerate(dots) if d in (1, -1, 2, -2)]
    load = block.load(row)
    if load + 2 < 2 ** (block.width - 1):
        # the bound leaves every field room: r . w_s + 2^(width-1) + 2 lies in [0, 2^width)
        assert all(0 <= d + 2 ** (block.width - 1) + 2 < 2 ** block.width for d in dots)
        assert block.candidates(row) == hits
    # the scan takes the narrowest field, in whole bytes and at least 32 bits,
    # whose packed test is exact
    fitting = engine.fitting(*key, row)
    width = fitting.width
    assert width % 8 == 0 and width >= 32 and load + 2 < 2 ** (width - 1)
    assert width == 32 or load + 2 >= 2 ** (width - 9)
    assert fitting is engine.block(*key, width)
    assert fitting.candidates(row) == hits


def test_field_width_rule():
    # the fewest whole bytes, at least four, with load + 2 < 2^(width-1)
    assert _width(0) == 32
    for width in range(32, 129, 8):
        assert _width(2 ** (width - 1) - 3) == width, width
        assert _width(2 ** (width - 1) - 2) == width + 8, width


# raw field bytes that make the shared top bytes 00 .. 00 80 of the good fields,
# or a whole good field, appear across two fields
FIELD_BYTES = (0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x7F, 0x80, 0xFF)
# dot products whose fields share those top bytes, or miss them by one step
NEAR_MISSES = (-4, -3, -2, -1, 0, 1, 2, 3, 4, 252, 253, 254, 255, 256)


@st.composite
def near_miss_fields(draw):
    """A width and the dot products of a one-column block with the row (1,):
    each a near miss of the pre-scan, or a field of drawn raw bytes (so the
    patterns straddle two fields), with every field inside [0, 2^width)."""
    width = draw(st.sampled_from((32, 40, 48, 64)))
    half = 2 ** (width - 1)
    dots = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            dots.append(draw(st.sampled_from(NEAR_MISSES)))
        else:
            raw = bytes(draw(st.lists(st.sampled_from(FIELD_BYTES),
                                      min_size=width // 8, max_size=width // 8)))
            dots.append(max(int.from_bytes(raw, "little"), 5) - half - 2)
    return width, dots


def _one_column_block(width, dots):
    bound = max(map(abs, dots))
    assert bound + 2 < 2 ** (width - 1)
    column = sum(d << width * j for j, d in enumerate(dots))
    return _Block(len(dots), (column,), (bound,), width)


@given(fields=near_miss_fields(), sign=st.sampled_from((1, -1)))
# 00 00 80 at offset 2, across two fields, and again in field 2^31 + 128
@example(fields=(32, [0x100 - 2 ** 31 - 2, 126, 2]), sign=1)
# 01 00 00 80 at offset 2: a good pattern across two fields, neither good
@example(fields=(32, [(1 << 16) - 2 ** 31 - 2, 0x8000 - 2 ** 31 - 2]), sign=1)
# only near misses: the pre-scan matches, and nothing is a candidate
@example(fields=(40, [0, 3, -3, 253, 254, -4]), sign=1)
def test_packed_block_test_at_the_pre_scans_near_misses(fields, sign):
    width, dots = fields
    block = _one_column_block(width, dots)
    hits = [j for j, d in enumerate(dots) if sign * d in (1, -1, 2, -2)]
    assert block.candidates((sign,)) == hits


def test_straddling_good_pattern_is_not_a_candidate():
    # the bytes of field 2^31 + 1 (01 00 00 80) at offset 2, across two fields
    block = _one_column_block(32, [(1 << 16) - 2 ** 31 - 2, 0x8000 - 2 ** 31 - 2])
    packed = block.columns[0] + block.bias
    assert packed.to_bytes(8, "little")[2:6] == block.good[1]
    assert block.candidates((1,)) == []


def test_packed_block_test_finds_a_witness_under_the_bound():
    # row 22's witness AB^4A: the prefix AB leaves the suffix B^3A, the
    # prefix A the suffix B^4A, and the root (as the depth-6 scan takes it)
    # the whole word; every prefix row fits its block at 32 bits
    _, engine = BLOCK_ENGINES[0]
    word = (A, B, B, B, B, A)
    for cut in (2, 1, 0):
        row = reduce(engine._step, word[:cut], engine.root)
        last, k = (word[cut - 1] if cut else B), len(word) - cut
        block = engine.fitting(k, last, row)
        assert block.width == 32
        assert _suffix(k, last, block.candidates(row)[0]) == word[cut:]


def test_forced_loads_take_wider_fields(monkeypatch, oracle_cases, deep_oracle_cases):
    # 1^12|2^12 at depth 8 takes 40-bit fields, and the scaled engine 80-bit
    # ones; no last entry of the scaled engine (a multiple of 2^40) can pass
    fitting, load, widths = _Engine.fitting, _Block.load, []

    def recording(engine, k, last, row):
        block = fitting(engine, k, last, row)
        widths.append(block.width)
        return block

    monkeypatch.setattr(_Engine, "fitting", recording)
    for (_, engine), width in zip(BLOCK_ENGINES[-2:], (40, 80)):
        widths.clear()
        hits = []
        engine.scan(engine.root, B, 8, [], hits, True)
        assert hits == [] and widths == [width] * 8
    monkeypatch.setattr(_Engine, "fitting", fitting)
    # a forced load gets the narrowest whole-byte field with load + 2 < 2^(width-1)
    _, engine = BLOCK_ENGINES[-1]
    for forced, width in ((2 ** 31 - 3, 32), (2 ** 31 - 2, 40), (2 ** 63 - 3, 64),
                          (2 ** 63 - 2, 72), (2 ** 63, 72), (2 ** 100, 104)):
        monkeypatch.setattr(_Block, "load", lambda block, row: forced)
        assert engine.fitting(1, A, engine.root).width == width, forced
    # real rows forced onto 72- or 104-bit fields, onto 104 bits on a fixed
    # pattern, or onto at least 40 bits: the outcome equals the canonical oracle's
    for forced in (
        lambda block, row: 2 ** 63,
        lambda block, row: 2 ** 100,
        lambda block, row: 2 ** 100 if sum(row) % 3 == 0 else load(block, row),
        lambda block, row: max(2 ** 31, load(block, row)),
    ):
        monkeypatch.setattr(_Block, "load", forced)
        for pair, (word, per_depth, every) in [oracle_cases[-1]] + deep_oracle_cases:
            depth = len(per_depth)
            out = search_witness(pair, SearchConfig(max_depth=depth, all_at_min_depth=True))
            assert out.word == word and out.nodes_per_depth == per_depth, pair.pair_id
            assert (out.words_at_depth or ()) == every, pair.pair_id
