"""Search-result cache: persistence, upgrade policy, settles logic."""

import json
import multiprocessing

import pytest

from hgsp.cache import (
    DEFAULT_FILENAME,
    ENV_VAR,
    CacheRecord,
    ResultCache,
    default_cache_path,
    outcome_record,
    record_for,
)
from hgsp.cli import main
from hgsp.cyclotomic import CycloFactorization
from hgsp.fixtures import TABLE_A
from hgsp.pairs import PairClassification, make_pair
from hgsp.search import SearchConfig, search_witness


def record(pair_id="1^6|3^2,6", kind="unknown", searched_depth=0, **kw):
    base = dict(
        pair_id=pair_id,
        degree=6,
        searched_depth=searched_depth,
        kind=kind,
        witness=None,
        witness_length=None,
        gcd=None,
        nodes=None,
    )
    base.update(kw)
    return CacheRecord(**base)


def test_round_trip_through_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    rec = record(kind="arithmetic_witness", witness="B^2A", witness_length=3,
                 searched_depth=3, nodes=52)
    cache.store(rec)

    fresh = ResultCache(path)
    got = fresh.lookup("1^6|3^2,6", max_depth=3)
    assert got == rec


def test_lookup_misses_when_not_settling(tmp_path):
    cache = ResultCache(tmp_path / "c.jsonl")
    cache.store(record(kind="unknown", searched_depth=6))
    assert cache.lookup("1^6|3^2,6", max_depth=6) is not None
    assert cache.lookup("1^6|3^2,6", max_depth=7) is None
    assert cache.lookup("absent|pair", max_depth=1) is None


def test_settles_semantics():
    assert record(kind="obstructed", gcd=4).settles(99)
    assert record(kind="arithmetic_witness", witness="B^2A",
                  witness_length=3).settles(3)
    assert not record(kind="arithmetic_witness", witness="B^2A",
                      witness_length=3).settles(2)
    assert record(kind="unknown", searched_depth=9).settles(9)
    assert not record(kind="unknown", searched_depth=9).settles(10)


def test_witness_record_beats_deeper_not_found(tmp_path):
    cache = ResultCache(tmp_path / "c.jsonl")
    cache.store(record(kind="arithmetic_witness", witness="B^2A",
                       witness_length=3, searched_depth=3))
    cache.store(record(kind="unknown", searched_depth=12))
    got = cache.lookup("1^6|3^2,6", max_depth=3)
    assert got is not None
    assert got.kind == "arithmetic_witness"


def test_deeper_not_found_replaces_shallower(tmp_path):
    cache = ResultCache(tmp_path / "c.jsonl")
    cache.store(record(kind="unknown", searched_depth=5))
    cache.store(record(kind="unknown", searched_depth=9))
    cache.store(record(kind="unknown", searched_depth=7))
    fresh = ResultCache(tmp_path / "c.jsonl")
    got = fresh.lookup("1^6|3^2,6", max_depth=9)
    assert got is not None
    assert got.searched_depth == 9


def test_each_store_and_discard_appends_one_line(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = ResultCache(path)
    deep = record(pair_id="zz|last", kind="unknown", searched_depth=5)
    shallow = record(pair_id="zz|last", kind="unknown", searched_depth=1)
    other = record(pair_id="aa|first", kind="unknown", searched_depth=1)
    written = []
    for rec in (deep, shallow, other):
        cache.store(rec)
        written.append(rec.to_json())
        # the outranked record is appended too; the reload merge drops it
        assert [json.loads(line) for line in path.read_text().splitlines()] == written
    cache.discard("aa|first")
    written.append({"pair_id": "aa|first", "discard": True})
    assert [json.loads(line) for line in path.read_text().splitlines()] == written
    assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]
    fresh = ResultCache(path)
    assert fresh.lookup("zz|last", max_depth=5) == deep
    assert fresh.lookup("aa|first", max_depth=1) is None


def _store_many(path, first, count, barrier):
    cache = ResultCache(path)
    barrier.wait()
    for k in range(first, first + count):
        cache.store(record(pair_id=f"pair|{k}", kind="unknown", searched_depth=k))


def test_two_processes_lose_no_records(tmp_path):
    path = tmp_path / "shared.jsonl"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    procs = [
        ctx.Process(target=_store_many, args=(path, first, 200, barrier))
        for first in (0, 200)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    cache = ResultCache(path)
    for k in range(400):
        got = cache.lookup(f"pair|{k}", max_depth=k)
        assert got is not None and got.searched_depth == k, k
    # a writer that reads the last byte while the other's line is still
    # landing may start with a newline: a blank line, skipped on load
    assert len([line for line in path.read_text().splitlines() if line]) == 400


def test_tombstone_drops_the_records_before_it(tmp_path):
    path = tmp_path / "c.jsonl"
    stale = record(kind="arithmetic_witness", witness="A", witness_length=1,
                   searched_depth=1)
    fresh = record(kind="unknown", searched_depth=2)
    cache = ResultCache(path)
    cache.store(stale)
    cache.discard(stale.pair_id)
    cache.store(fresh)
    # without the tombstone the witness would outrank the not-found record
    assert cache.lookup(fresh.pair_id, max_depth=2) == fresh
    assert ResultCache(path).lookup(fresh.pair_id, max_depth=2) == fresh


def test_torn_last_line_costs_only_its_record(tmp_path):
    path = tmp_path / "c.jsonl"
    kept = record(pair_id="aa|kept", kind="obstructed", gcd=4)
    torn = json.dumps(record(pair_id="bb|torn", kind="unknown", searched_depth=3).to_json())
    path.write_text(json.dumps(kept.to_json()) + "\n" + torn[: len(torn) // 2])
    cache = ResultCache(path)
    new = record(pair_id="cc|new", kind="unknown", searched_depth=4)
    cache.store(new)
    fresh = ResultCache(path)
    assert fresh.lookup("aa|kept", max_depth=1) == kept
    assert fresh.lookup("bb|torn", max_depth=1) is None
    assert fresh.lookup("cc|new", max_depth=4) == new


def test_lines_with_a_tool_version_still_load(tmp_path):
    # older files carry tool_version and created_at keys, which are ignored
    path = tmp_path / "c.jsonl"
    rec = record(kind="unknown", searched_depth=6)
    old_keys = {"tool_version": "0.1.0", "created_at": "2026-08-18T00:00:00+00:00"}
    path.write_text(json.dumps({**rec.to_json(), **old_keys}) + "\n")
    assert ResultCache(path).lookup(rec.pair_id, max_depth=6) == rec
    # a fresh line carries neither
    cache = ResultCache(path)
    cls = PairClassification(kind="unknown", searched_depth=7)
    cache.store(record_for(TABLE_A[16].pair(), cls))
    fresh = json.loads(path.read_text().splitlines()[-1])
    assert fresh["searched_depth"] == 7
    assert not set(old_keys) & set(fresh)


def test_corrupt_lines_are_ignored(tmp_path):
    path = tmp_path / "c.jsonl"
    good = record(kind="obstructed", gcd=4)
    path.write_text(json.dumps(good.to_json())
                    + "\nnot json at all\n[1, 2]\n{\"discard\": true}\n")
    cache = ResultCache(path)
    assert cache.lookup(good.pair_id, max_depth=1) == good


def test_lines_that_are_not_utf8_are_ignored(tmp_path):
    path = tmp_path / "c.jsonl"
    good = record(kind="obstructed", gcd=4)
    path.write_bytes(b"\xff\xfe\n" + json.dumps(good.to_json()).encode()
                     + b"\n\x80{\"pair_id\": \"x|y\"}\n")
    cache = ResultCache(path)
    assert cache.lookup(good.pair_id, max_depth=1) == good
    assert cache.lookup("x|y", max_depth=1) is None


@pytest.mark.parametrize("fields", [
    {"searched_depth": 1e999},  # a float, and not even a finite one
    {"kind": "arithmetic_witness", "witness": "A", "witness_length": "x"},
    {"kind": "arithmetic_witness", "witness": 5, "witness_length": 1},
    {"nodes": True},  # a bool is not an int
    {"kind": "arithmetic", "searched_depth": 20},  # not one of the four kinds
])
def test_lines_with_a_wrong_type_or_kind_are_ignored(tmp_path, fields):
    path = tmp_path / "c.jsonl"
    good = record(pair_id="1^6|3,8", searched_depth=6)
    bad = json.loads(json.dumps({**record(searched_depth=6).to_json(), **fields}))
    with pytest.raises(ValueError):
        CacheRecord.from_json(bad)
    path.write_text(json.dumps(good.to_json()) + "\n" + json.dumps(bad) + "\n")
    cache = ResultCache(path)
    assert cache.lookup(good.pair_id, max_depth=6) == good
    assert cache.lookup(bad["pair_id"], max_depth=1) is None


def test_default_cache_path_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "elsewhere.jsonl"))
    assert default_cache_path() == tmp_path / "elsewhere.jsonl"
    monkeypatch.delenv(ENV_VAR)
    monkeypatch.chdir(tmp_path)
    assert default_cache_path() == tmp_path / DEFAULT_FILENAME


def test_record_for_carries_classification(tmp_path):
    pair = TABLE_A[16].pair()
    cls = PairClassification(
        kind="arithmetic_witness",
        witness="A^2BA^-1B^4A",
        witness_length=9,
        searched_depth=9,
    )
    rec = record_for(pair, cls, nodes=12345)
    assert rec.pair_id == pair.pair_id
    assert rec.degree == 6
    assert rec.kind == "arithmetic_witness"
    assert rec.witness == "A^2BA^-1B^4A"
    assert rec.witness_length == 9
    assert rec.nodes == 12345
    # round trip through JSON keeps every field
    assert CacheRecord.from_json(json.loads(json.dumps(rec.to_json()))) == rec


def _pair(f, g):
    return make_pair(CycloFactorization.parse(f), CycloFactorization.parse(g))


def test_witness_record_settles_from_its_witness_not_its_stored_length(tmp_path):
    # the stored witness_length says 1, but the witness has 9 letters
    path = tmp_path / "c.jsonl"
    rec = record(pair_id="1^6|3^2,6", kind="arithmetic_witness", searched_depth=1,
                 witness="A^2BA^-1B^4A", witness_length=1)
    path.write_text(json.dumps(rec.to_json()) + "\n")
    cache = ResultCache(path)
    assert cache.lookup(rec.pair_id, max_depth=3) is None
    assert cache.lookup(rec.pair_id, max_depth=8) is None
    assert cache.lookup(rec.pair_id, max_depth=9) == rec


@pytest.mark.parametrize("witness", [None, "", "AA^-1", "X", "A^0", "(AB"])
def test_witness_lines_whose_witness_is_not_a_reduced_word_are_ignored(tmp_path, witness):
    path = tmp_path / "c.jsonl"
    good = record(pair_id="1^6|3,8", searched_depth=6)
    bad = record(kind="arithmetic_witness", witness=witness, witness_length=2,
                 searched_depth=2)
    with pytest.raises(ValueError):
        CacheRecord.from_json(bad.to_json())
    path.write_text(json.dumps(good.to_json()) + "\n" + json.dumps(bad.to_json()) + "\n")
    cache = ResultCache(path)
    assert cache.lookup(good.pair_id, max_depth=6) == good
    assert cache.lookup(bad.pair_id, max_depth=99) is None


# (f, g, stored fields, served): one case per clause of the served-record rule;
# 1^6|3,6^2 has |lc| > 2, gcd(v) = 1 and the witness B^2A, while "A" fails
# its certificate; 1^6|2^6 has gcd(v) = 4; 1^2,2^2,3|4,8 has |lc| <= 2
SERVE_CASES = {
    "degree-mismatch": ("1^6", "3,6^2", dict(degree=8, searched_depth=9), False),
    "unknown-trusted": ("1^6", "3,6^2", dict(searched_depth=9), True),
    "small-lc-large-lc": ("1^6", "3,6^2", dict(kind="arithmetic_small_lc", searched_depth=9),
                          False),
    "small-lc-small-lc": ("1^2,2^2,3", "4,8",
                          dict(kind="arithmetic_small_lc", searched_depth=9), True),
    "obstruction-gcd-match": ("1^6", "2^6", dict(kind="obstructed", gcd=4), True),
    "obstruction-gcd-mismatch": ("1^6", "2^6", dict(kind="obstructed", gcd=8), False),
    "witness-passes": ("1^6", "3,6^2", dict(kind="arithmetic_witness", witness="B^2A",
                                            witness_length=3, searched_depth=3), True),
    "witness-fails": ("1^6", "3,6^2", dict(kind="arithmetic_witness", witness="A",
                                           witness_length=1, searched_depth=1), False),
}


@pytest.mark.parametrize("f, g, fields, served", SERVE_CASES.values(), ids=SERVE_CASES)
def test_serve_applies_the_served_record_rule(tmp_path, f, g, fields, served):
    pair = _pair(f, g)
    rec = record(pair_id=pair.pair_id, **fields)
    path = tmp_path / "c.jsonl"
    line = json.dumps(rec.to_json()) + "\n"
    path.write_text(line)
    cache = ResultCache(path)
    assert cache.lookup(pair.pair_id, max_depth=3) == rec
    if served:
        assert cache.serve(pair, max_depth=3) == rec
        assert path.read_text() == line
        return
    assert cache.serve(pair, max_depth=3) is None
    # the failed record is dropped, on disk too, so it cannot outrank a rerun
    assert path.read_text() == line + json.dumps({"pair_id": pair.pair_id, "discard": True}) + "\n"
    assert cache.lookup(pair.pair_id, max_depth=3) is None
    assert ResultCache(path).lookup(pair.pair_id, max_depth=3) is None


def test_serve_misses_a_record_that_does_not_settle(tmp_path):
    pair = _pair("1^6", "3,6^2")
    path = tmp_path / "c.jsonl"
    cache = ResultCache(path)
    cache.store(record(pair_id=pair.pair_id, searched_depth=2))
    assert cache.serve(pair, max_depth=3) is None
    assert cache.lookup(pair.pair_id, max_depth=2) is not None
    assert len(path.read_text().splitlines()) == 1


# the cache line hgsp search has written for a found, a not_found and an
# obstructed search
STORED_LINES = [
    ("1^6", "3,6^2", 3, '{"pair_id": "1^6|3,6^2", "degree": 6, "searched_depth": 3, '
     '"kind": "arithmetic_witness", "witness": "B^2A", "witness_length": 3, "gcd": null, '
     '"nodes": 52}'),
    ("1^6", "2^4,3", 4, '{"pair_id": "1^6|2^4,3", "degree": 6, "searched_depth": 4, '
     '"kind": "unknown", "witness": null, "witness_length": null, "gcd": null, '
     '"nodes": 160}'),
    ("1^6", "2^6", 4, '{"pair_id": "1^6|2^6", "degree": 6, "searched_depth": 4, '
     '"kind": "obstructed", "witness": null, "witness_length": null, "gcd": 4, '
     '"nodes": 0}'),
]


@pytest.mark.parametrize("f, g, depth, line", STORED_LINES)
def test_outcome_record_stores_the_line_search_has_written(tmp_path, capsys, f, g, depth, line):
    pair = _pair(f, g)
    outcome = search_witness(pair, SearchConfig(max_depth=depth))
    rec = outcome_record(pair, outcome)
    ResultCache(tmp_path / "lib.jsonl").store(rec)
    assert (tmp_path / "lib.jsonl").read_text() == line + "\n"
    argv = ["search", "--f", f, "--g", g, "--max-depth", str(depth),
            "--cache", str(tmp_path / "cli.jsonl")]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["class"] == rec.kind
    assert (tmp_path / "cli.jsonl").read_text() == line + "\n"
