"""Command line interface, driven through main(argv)."""

import dataclasses
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from hgsp import cyclotomic
from hgsp.cache import ResultCache
from hgsp.certify import verify_witness
from hgsp.cli import CSV_COLUMNS, main
from hgsp.cyclotomic import CycloFactorization


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _refuse(*args, **kwargs):
    raise AssertionError("bad input must be refused before this runs")


def test_enumerate_jsonl_count_and_summary(capsys):
    rc, out, err = run(capsys, "enumerate", "--degree", "6")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 458
    records = [json.loads(line) for line in lines]
    assert all(r["pair_id"] for r in records)
    assert len({r["pair_id"] for r in records}) == 458
    assert "total 458, |lc| <= 2: 211, |lc| >= 3: 247" in err
    assert "convention shift-swap" in err


def test_enumerate_csv_header(capsys):
    rc, out, _ = run(capsys, "enumerate", "--degree", "4", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 58


def test_enumerate_mum_only(capsys):
    rc, out, _ = run(capsys, "enumerate", "--degree", "6", "--mum")
    assert rc == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 40
    assert all(r["pair_id"].startswith("1^6|") for r in records)


def test_enumerate_with_omega_adds_matrix(capsys):
    rc, out, _ = run(capsys, "enumerate", "--degree", "4", "--with-omega")
    assert rc == 0
    first = json.loads(out.strip().splitlines()[0])
    assert "omega" in first
    assert len(first["omega"]) == 4


def test_enumerate_output_file(tmp_path, capsys):
    target = tmp_path / "pairs.jsonl"
    rc, out, _ = run(capsys, "enumerate", "--degree", "4", "--output", str(target))
    assert rc == 0
    assert out == ""
    assert len(target.read_text().strip().splitlines()) == 58


@pytest.mark.parametrize("target", ["", "missing/pairs.jsonl"], ids=["directory", "no-parent"])
def test_enumerate_output_must_be_a_file_in_a_directory(tmp_path, monkeypatch, capsys, target):
    monkeypatch.setattr("hgsp.cli.enumerate_qualified_pairs", _refuse)
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--degree", "4", "--output", str(tmp_path / target)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = [x for x in captured.err.splitlines() if not x.startswith("usage:")]
    assert "must name a file in an existing directory" in line
    assert not (tmp_path / "missing").exists()


def _dangling_link(tmp_path):
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "missing" / "f")
    return link


def _unusable_path_error(capsys, link):
    """The one stderr line for a file that cannot be written, and stdout."""
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line == f"hgsp: {link}: No such file or directory"
    return captured.out


def test_enumerate_output_through_a_dangling_link(tmp_path, capsys):
    """The parent directory exists, so only opening the file fails."""
    link = _dangling_link(tmp_path)
    assert main(["enumerate", "--degree", "4", "--output", str(link)]) == 2
    assert _unusable_path_error(capsys, link) == ""
    assert not (tmp_path / "missing").exists()


def test_enumerate_rejects_odd_degree(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--degree", "5"])
    assert err.value.code == 2


def test_analyze_row_17_fields(capsys):
    rc, out, _ = run(capsys, "analyze", "--f", "1^6", "--g", "3^2,6")
    assert rc == 0
    assert "pair_id: 1^6|3^2,6" in out
    assert "f: 1^6 = 1,-6,15,-20,15,-6,1" in out
    assert "g: 3^2,6 = 1,1,2,1,2,1,1" in out
    assert "beta: 1/6,1/3,1/3,2/3,2/3,5/6" in out
    assert "lc: -7 (|lc| = 7)" in out
    assert "v: -7,13,-21,13,-7,0" in out
    assert "gcd(v): 1" in out
    assert "sv-criterion: inapplicable (|lc| = 7)" in out


def test_analyze_small_lc_verdict(capsys):
    rc, out, _ = run(capsys, "analyze", "--f", "1^2,2^2,3", "--g", "4,8")
    assert rc == 0
    assert "arithmetic by small leading coefficient (|lc| = 1)" in out


def test_analyze_obstructed_row(capsys):
    rc, out, _ = run(capsys, "analyze", "--f", "1^6", "--g", "2^6")
    assert rc == 0
    assert "gcd obstruction: no witness word exists (gcd 4)" in out


def test_analyze_accepts_coefficient_input(capsys):
    rc, out, _ = run(
        capsys,
        "analyze",
        "--f-coeffs", "1,-6,15,-20,15,-6,1",
        "--g-coeffs", "1,1,2,1,2,1,1",
    )
    assert rc == 0
    assert "pair_id: 1^6|3^2,6" in out


def test_analyze_rejects_mixed_input_styles(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--f", "1^6", "--beta", "1/6,1/3,1/3,2/3,2/3,5/6"])
    assert err.value.code == 2


def test_analyze_rejects_non_cyclotomic_coeffs(capsys):
    rc, _, err = run(capsys, "analyze", "--f-coeffs", "1,1,0,0,0,0,1",
                     "--g-coeffs", "1,1,2,1,2,1,1")
    assert rc == 1
    assert "non-cyclotomic part remains" in err


def test_analyze_unqualified_pair_lists_reasons(capsys):
    rc, _, err = run(capsys, "analyze", "--f", "1^6", "--g", "1^6")
    assert rc == 1
    assert "pair is not qualified" in err


def test_search_finds_and_reports_json(capsys):
    rc, out, _ = run(
        capsys, "search", "--f", "1^6", "--g", "3,6^2",
        "--max-depth", "3", "--no-cache",
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob["pair_id"] == "1^6|3,6^2"
    assert blob["status"] == "found"
    assert blob["word"] == "B^2A"
    assert blob["word_letters"] == ["B", "B", "A"]
    assert blob["nodes_visited"] == 52
    assert blob["class"] == "arithmetic_witness"


def test_search_not_found_exit_zero(capsys):
    rc, out, _ = run(
        capsys, "search", "--f", "1^6", "--g", "2^4,3",
        "--max-depth", "4", "--no-cache",
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob["status"] == "not_found"
    assert blob["word"] is None


def test_search_obstructed(capsys):
    rc, out, _ = run(
        capsys, "search", "--f", "1^6", "--g", "2^6",
        "--max-depth", "4", "--no-cache",
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob["status"] == "obstructed"
    assert blob["gcd"] == 4


@pytest.mark.parametrize("flag", ["--max-depth"])
def test_search_rejects_zero_counts(capsys, flag):
    # argparse rejects the value before any search or process starts
    with pytest.raises(SystemExit) as err:
        main(["search", "--f", "1^6", "--g", "3,6^2", "--no-cache", flag, "0"])
    assert err.value.code == 2
    assert f"argument {flag}: must be at least 1, got 0" in capsys.readouterr().err


def test_search_budget_exhaustion_exits_one(capsys):
    """search has no node budget and runs in one process: --node-budget and
    --threads are unknown options."""
    for flag, value in (("--node-budget", "100"), ("--threads", "2")):
        with pytest.raises(SystemExit) as err:
            main(["search", "--f", "1^6", "--g", "2^4,3", flag, value, "--no-cache"])
        assert err.value.code == 2
        usage, line = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage:")
        assert line == f"hgsp: error: unrecognized arguments: {flag} {value}"


def test_search_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    argv = ["search", "--f", "1^6", "--g", "3,6^2",
            "--max-depth", "3", "--cache", str(cache)]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert json.loads(out).get("cached") is not True
    assert cache.exists()

    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    blob = json.loads(out)
    assert blob["cached"] is True
    assert blob["witness"] == "B^2A"

    rc, out, _ = run(capsys, *argv + ["--force"])
    assert rc == 0
    assert json.loads(out).get("cached") is not True


def test_search_all_at_min_depth_skips_the_cache(tmp_path, capsys):
    # a cached record holds one witness, so it cannot answer for every word
    argv = ["search", "--f", "1^6", "--g", "3^2,6", "--max-depth", "8",
            "--cache", str(tmp_path / "cache.jsonl")]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert json.loads(out)["word"] == "B^3AB^3A"
    rc, out, _ = run(capsys, *argv, "--all-at-min-depth")
    assert rc == 0
    blob = json.loads(out)
    assert blob.get("cached") is not True
    assert blob["words_at_depth"] == [
        "B^3AB^3A", "B^3AB^4", "A^-1B^-3A^-1B^-3", "B^-4A^-1B^-3",
    ]


def test_two_searches_share_one_cache_at_once(tmp_path):
    # one process per pair is how a search uses more cores: each store is
    # one append, so neither run loses the other's record
    cache = tmp_path / "cache.jsonl"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    pairs = [("1^6", "3^2,6"), ("1^6", "2^4,3")]
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "hgsp", "search", "--f", f, "--g", g,
             "--max-depth", "10", "--cache", str(cache)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        for f, g in pairs
    ]
    outs = [proc.communicate(timeout=60) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    assert [json.loads(out)["status"] for out, _ in outs] == ["found", "not_found"]
    stored = ResultCache(cache)
    assert stored.lookup("1^6|3^2,6", 10).witness == "B^3AB^3A"
    assert stored.lookup("1^6|2^4,3", 10).kind == "unknown"
    for f, g in pairs:
        rc, out, err = _hgsp(["search", "--f", f, "--g", g, "--max-depth", "10",
                              "--cache", str(cache)])
        assert rc == 0, err
        assert json.loads(out)["cached"] is True


def test_search_cache_does_not_serve_stale_witness(tmp_path, capsys):
    # "A" is not a witness for 1^6|3,6^2 (its certificate fails at last_entry)
    # and gcd(v) = 1 there, not 9; no word up to depth 2 is a witness, so the
    # fresh not-found record must replace each stale one although a witness
    # or obstruction record outranks any searched depth
    stale = [
        {"kind": "arithmetic_witness", "witness": "A", "witness_length": 1, "gcd": None},
        {"kind": "obstructed", "witness": None, "witness_length": None, "gcd": 9},
    ]
    for fields in stale:
        cache = tmp_path / f"{fields['kind']}.jsonl"
        cache.write_text(json.dumps({
            "pair_id": "1^6|3,6^2", "degree": 6, "searched_depth": 1,
            "nodes": 4, "created_at": "", "tool_version": "", **fields,
        }) + "\n")
        argv = ["search", "--f", "1^6", "--g", "3,6^2",
                "--max-depth", "2", "--cache", str(cache)]
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        blob = json.loads(out)
        assert "cached" not in blob and blob["class"] == "unknown", fields
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        blob = json.loads(out)
        assert blob["cached"] is True and blob["kind"] == "unknown"
        last = json.loads(cache.read_text().splitlines()[-1])
        assert last["kind"] == "unknown" and last["searched_depth"] == 2
        assert ResultCache(cache).lookup("1^6|3,6^2", 2).to_json() == last


def test_search_cache_skips_a_line_that_is_not_utf8(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes(b"\xff\xfe")
    argv = ["search", "--f", "1^6", "--g", "3,6^2",
            "--max-depth", "3", "--cache", str(cache)]
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert json.loads(out)["word"] == "B^2A"
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and json.loads(out)["cached"] is True


def test_search_cache_skips_lines_with_a_wrong_type_or_kind(tmp_path, capsys):
    # a wrong type must not reach the settles test or the certificate, and
    # a record of an unknown kind must not be served
    for i, fields in enumerate([
        {"searched_depth": 1e999, "kind": "unknown"},
        {"kind": "arithmetic_witness", "witness": "A", "witness_length": "x"},
        {"kind": "arithmetic_witness", "witness": 5, "witness_length": 1},
        {"kind": "arithmetic", "searched_depth": 20},
    ]):
        cache = tmp_path / f"cache-{i}.jsonl"
        cache.write_text(json.dumps({
            "pair_id": "1^6|3,6^2", "degree": 6, "searched_depth": 1, **fields,
        }) + "\n")
        rc, out, err = run(capsys, "search", "--f", "1^6", "--g", "3,6^2",
                           "--max-depth", "3", "--cache", str(cache))
        assert rc == 0 and err == "", fields
        blob = json.loads(out)
        assert "cached" not in blob and blob["word"] == "B^2A", fields


def _search_refused_for_cache(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(["search", "--f", "1^6", "--g", "3,6^2", "--max-depth", "2", *argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = [x for x in captured.err.splitlines() if not x.startswith("usage:")]
    assert "is a directory or lies under a file" in line


def test_search_cache_path_that_is_a_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("hgsp.cli.search_witness", _refuse)
    _search_refused_for_cache(capsys, ["--cache", str(tmp_path)])
    monkeypatch.setenv("HGSP_CACHE", str(tmp_path))
    _search_refused_for_cache(capsys, [])


def test_search_cache_path_under_a_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("hgsp.cli.search_witness", _refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    _search_refused_for_cache(capsys, ["--cache", str(blocker / "c.jsonl")])
    _search_refused_for_cache(capsys, ["--cache", str(blocker / "sub" / "c.jsonl")])
    assert blocker.read_text() == ""


def test_search_cache_through_a_dangling_link(tmp_path, capsys):
    """Loading reads no file, and storing the result fails after it is
    printed."""
    link = _dangling_link(tmp_path)
    argv = ["search", "--f", "1^6", "--g", "3^2,6", "--max-depth", "2", "--cache", str(link)]
    assert main(argv) == 2
    out = _unusable_path_error(capsys, link)
    assert json.loads(out)["status"] == "not_found"
    assert not (tmp_path / "missing").exists()


def test_search_cache_creates_missing_directories(tmp_path, capsys):
    cache = tmp_path / "new" / "sub" / "c.jsonl"
    rc, out, _ = run(capsys, "search", "--f", "1^6", "--g", "3,6^2",
                     "--max-depth", "2", "--cache", str(cache))
    assert rc == 0 and json.loads(out)["status"] == "not_found"
    assert cache.exists()


def test_search_cache_serves_true_obstruction(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    argv = ["search", "--f", "1^6", "--g", "2^6",
            "--max-depth", "4", "--cache", str(cache)]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and json.loads(out)["status"] == "obstructed"
    rc, out, _ = run(capsys, *argv)
    blob = json.loads(out)
    assert rc == 0
    assert blob["cached"] is True and blob["kind"] == "obstructed" and blob["gcd"] == 4


def test_search_cache_checks_small_lc_and_degree(tmp_path, capsys):
    # 1^6|3,6^2 has |lc| > 2, so a small-lc record for it is false, and a
    # degree-8 record answers no degree-6 search; an unknown record is
    # otherwise trusted as "not found up to its depth"
    for fields in (
        {"degree": 6, "kind": "arithmetic_small_lc"},
        {"degree": 8, "kind": "unknown"},
    ):
        cache = tmp_path / f"{fields['kind']}.jsonl"
        cache.write_text(json.dumps({
            "pair_id": "1^6|3,6^2", "searched_depth": 9, **fields,
        }) + "\n")
        rc, out, err = run(capsys, "search", "--f", "1^6", "--g", "3,6^2",
                           "--max-depth", "3", "--cache", str(cache))
        assert rc == 0 and err == "", fields
        blob = json.loads(out)
        assert "cached" not in blob and blob["word"] == "B^2A", fields
        assert ResultCache(cache).lookup("1^6|3,6^2", 3).witness == "B^2A"


def test_search_cache_serves_small_lc_when_lc_is_small(tmp_path, capsys):
    argv = ["search", "--f", "1^2,2^2,3", "--g", "4,8", "--max-depth", "2"]
    rc, out, _ = run(capsys, *argv, "--no-cache")
    pair_id = json.loads(out)["pair_id"]
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps({
        "pair_id": pair_id, "degree": 6, "searched_depth": 9,
        "kind": "arithmetic_small_lc",
    }) + "\n")
    rc, out, _ = run(capsys, *argv, "--cache", str(cache))
    blob = json.loads(out)
    assert rc == 0
    assert blob["cached"] is True and blob["kind"] == "arithmetic_small_lc"


def test_search_cache_witness_answers_only_depths_it_reaches(tmp_path, capsys):
    # the stored witness_length of 1 understates the 9-letter witness, so
    # the record answers a depth-9 search but not a depth-3 one
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps({
        "pair_id": "1^6|3^2,6", "degree": 6, "searched_depth": 1,
        "kind": "arithmetic_witness", "witness": "A^2BA^-1B^4A", "witness_length": 1,
        "gcd": None, "nodes": None,
    }) + "\n")
    argv = ["search", "--f", "1^6", "--g", "3^2,6", "--cache", str(cache)]
    rc, out, _ = run(capsys, *argv, "--max-depth", "3")
    blob = json.loads(out)
    assert rc == 0 and "cached" not in blob and blob["status"] == "not_found"
    rc, out, _ = run(capsys, *argv, "--max-depth", "9")
    blob = json.loads(out)
    assert rc == 0 and blob["cached"] is True and blob["witness"] == "A^2BA^-1B^4A"


def test_search_refuses_a_found_word_whose_certificate_fails(tmp_path, monkeypatch, capsys):
    def failing(pair, word):
        report = verify_witness(pair, word)
        return dataclasses.replace(report, u_unipotent_ok=False, verdict=False,
                                   first_failure="u_unipotent")

    monkeypatch.setattr("hgsp.cli.verify_witness", failing)
    cache = tmp_path / "cache.jsonl"
    cache.write_text("")
    rc, out, err = run(capsys, "search", "--f", "1^6", "--g", "3,6^2",
                       "--max-depth", "3", "--cache", str(cache))
    assert rc == 1 and out == ""
    assert err == "search found B^2A, but its certificate fails at u_unipotent\n"
    assert cache.read_text() == ""


def test_verify_tabulated_witness_passes(capsys):
    rc, out, _ = run(
        capsys, "verify", "--f", "1^6", "--g", "3^2,6",
        "--word", "A^2BA^-1B^4A",
    )
    assert rc == 0
    assert "[ ok ] last_entry" in out
    assert "[ ok ] independence" in out
    assert "verdict: PASS" in out
    assert "[FAIL]" not in out


def test_verify_json_output(capsys):
    rc, out, _ = run(
        capsys, "verify", "--f", "1^6", "--g", "3^2,6",
        "--word", "A^2BA^-1B^4A", "--json",
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob["verdict"] is True
    assert blob["c"] == -2


def test_verify_dependent_example_fails(capsys):
    rc, out, _ = run(
        capsys, "verify",
        "--alpha", "1/2,1/2,1/2,1/2,1/6,5/6",
        "--beta", "1/9,2/9,4/9,5/9,7/9,8/9",
        "--word", "B^2A",
    )
    assert rc == 1
    assert "[ ok ] last_entry" in out
    assert "[FAIL] independence" in out
    assert "verdict: FAIL" in out


def test_verify_word_with_parentheses(capsys):
    rc, out, _ = run(
        capsys, "verify", "--f", "1^6", "--g", "18",
        "--word", "A^4B^4A(A^2B)^-1",
    )
    assert rc == 0
    assert "verdict: PASS" in out


def test_verify_malformed_word_is_usage_error(capsys):
    for word, message in (("A^", "missing exponent digits"),
                          ("A^\u00b2", "missing exponent digits"),
                          ("A^10000000000", "word longer than 1000 letters"),
                          ("(" * 3000 + "A" + ")" * 3000, "nested deeper than 50")):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--f", "1^6", "--g", "3^2,6", "--word", word])
        assert err.value.code == 2
        # the argparse usage line, then one bounded error line
        usage, line = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage:")
        assert len(line) <= 200 and message in line


def test_exponent_parameters_are_usage_error(monkeypatch, capsys):
    # Fraction("1e-100000000") would build 10^(10^8) before any range check
    def plain_fraction(*args):
        assert "e" not in str(args[0])
        return Fraction(*args)

    monkeypatch.setattr(cyclotomic, "Fraction", plain_fraction)
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--alpha", "0,0,0,0,0,0", "--beta", "1e-100000000"])
    assert err.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert "exponent notation is not accepted" in lines[-1]


@pytest.mark.parametrize("argv,message", [
    (["analyze", "--f", "1^6", "--g", "30030"], "cyclotomic index 30030"),
    (["analyze", "--f", "1^14", "--g", "2^14"], "degree 14"),
    (["analyze", "--alpha", "0,0,0,0,0,0", "--beta", "1/100000007"],
     "denominator 100000007"),
    (["analyze", "--f-coeffs", ",".join(["1"] * 15), "--g-coeffs", "1,1"],
     "degree 14"),
    (["enumerate", "--degree", "14"], "at most 12, got 14"),
], ids=["f-g-index", "f-g-degree", "alpha-beta", "coeffs", "enumerate"])
def test_input_above_max_degree_is_usage_error(monkeypatch, capsys, argv, message):
    # the index is refused before its totient is taken, and nothing is
    # expanded, factored or enumerated before the rejection
    monkeypatch.setattr(CycloFactorization, "expansion", property(_refuse))
    for name in ("factorization_from_parameters", "factorization_from_poly",
                 "enumerate_qualified_pairs"):
        monkeypatch.setattr(f"hgsp.cli.{name}", _refuse)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    (line,) = [
        line for line in capsys.readouterr().err.splitlines()
        if not line.startswith("usage:")
    ]
    assert message in line


def test_report_passes_by_default(capsys):
    rc, out, _ = run(capsys, "report")
    assert rc == 0
    assert "[PASS] table-a" in out
    assert "[PASS] table-d" in out
    assert "[PASS] counts" in out
    assert "[PASS] table-b-candidates" in out
    assert out.strip().endswith("result: PASS")


def test_report_json(capsys):
    rc, out, _ = run(capsys, "report", "--json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["passed"] is True
    assert {c["name"] for c in blob["checks"]} == {
        "table-a", "table-d", "counts", "table-b-candidates",
    }


def test_report_flipped_convention_fails(capsys):
    """report runs up to shift and swap only: --convention is an unknown
    option."""
    with pytest.raises(SystemExit) as err:
        main(["report", "--convention", "shift"])
    assert err.value.code == 2
    usage, line = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage:")
    assert line == "hgsp: error: unrecognized arguments: --convention shift"


@pytest.mark.parametrize("convention", ["shift", "shift-swap"])
def test_enumerate_takes_no_convention(monkeypatch, capsys, convention):
    """Classes are taken up to shift and swap only: --convention is an
    unknown option, refused before anything is enumerated."""
    monkeypatch.setattr("hgsp.cli.enumerate_qualified_pairs", _refuse)
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--degree", "4", "--convention", convention])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, line = captured.err.splitlines()
    assert usage.startswith("usage:")
    assert line == f"hgsp: error: unrecognized arguments: --convention {convention}"


def test_enumerate_ends_quietly_when_stdout_closes_early():
    # as in `hgsp enumerate --degree 8 | head -1`: the reader takes one of
    # the 2983 records and closes the pipe while the rest are being written
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "hgsp", "enumerate", "--degree", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert json.loads(proc.stdout.readline())["degree"] == 8
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141  # 128 + SIGPIPE, as the module docstring documents
    assert err == b""


def _hgsp(argv, *, stdout=subprocess.PIPE, stderr=subprocess.PIPE, unbuffered=False,
          cwd=None, limits=()):
    """Run `python -m hgsp argv` under the given resource limits and a
    timeout; return (exit code, stdout, stderr lines)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"

    def limit():
        for name, value in limits:
            resource.setrlimit(getattr(resource, name), (value, value))

    proc = subprocess.run(
        [sys.executable, "-m", "hgsp", *argv], stdout=stdout, stderr=stderr,
        env=env, cwd=cwd, preexec_fn=limit, timeout=30, text=True,
    )
    assert "Traceback" not in (proc.stderr or "")
    return proc.returncode, proc.stdout, (proc.stderr or "").splitlines()


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_write_that_fails_exits_2_naming_its_target(unbuffered):
    """A file that opens but cannot be written, or a stdout that cannot:
    one stderr line names the target, whether stdout is buffered or not."""
    rc, _, err = _hgsp(["enumerate", "--degree", "4", "--output", "/dev/full"], unbuffered=unbuffered)
    assert (rc, err) == (2, ["hgsp: /dev/full: No space left on device"])
    argvs = (
        ["enumerate", "--degree", "4"],
        ["report"],
        ["analyze", "--f", "1^6", "--g", "3^2,6"],
        ["verify", "--f", "1^6", "--g", "3^2,6", "--word", "A^2BA^-1B^4A"],
        ["search", "--f", "1^6", "--g", "3^2,6", "--max-depth", "2", "--no-cache"],
    )
    for argv in argvs:
        with open("/dev/full", "w") as full:
            rc, _, err = _hgsp(argv, stdout=full, unbuffered=unbuffered)
        assert (rc, err) == (2, ["hgsp: <stdout>: No space left on device"]), argv


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_stderr_that_cannot_be_written_exits_2(unbuffered):
    """A failed write to stderr cannot be told there, so exit code 2 alone
    reports it: after enumerate's records, in place of a domain failure's
    message, or after a failed --output's."""
    cases = (
        (["enumerate", "--degree", "4"], 58),
        (["analyze", "--f", "1^6", "--g", "1^6"], 0),
        (["enumerate", "--degree", "4", "--output", "/dev/full"], 0),
    )
    for argv, records in cases:
        with open("/dev/full", "w") as full:
            rc, out, _ = _hgsp(argv, stderr=full, unbuffered=unbuffered)
        assert (rc, len(out.splitlines())) == (2, records), argv


def test_a_cache_store_that_fails_exits_2_naming_the_cache(tmp_path):
    """The result is printed first; the append then fails (here past a
    file size limit) and names the cache file."""
    cache = tmp_path / "c.jsonl"
    cache.write_text("\n")
    rc, out, err = _hgsp(
        ["search", "--f", "1^6", "--g", "3^2,6", "--max-depth", "2", "--cache", str(cache)],
        limits=[("RLIMIT_FSIZE", 1)],
    )
    assert (rc, err) == (2, [f"hgsp: {cache}: File too large"])
    assert json.loads(out)["status"] == "not_found"
    assert cache.read_text() == "\n"


def _refused_cache(path):
    """A search with this cache path, capped at 400 MB of address space
    so that reading it without end fails the test instead of the machine."""
    rc, out, err = _hgsp(
        ["search", "--f", "1^6", "--g", "3^2,6", "--max-depth", "2", "--cache", str(path)],
        limits=[("RLIMIT_AS", 400 * 2**20)],
    )
    assert (rc, out, err) == (2, "", [f"hgsp: {path}: not a regular file"])


@needs_dev_full
@pytest.mark.parametrize("device", ["/dev/full", "/dev/zero"])
def test_search_cache_refuses_a_device(device):
    _refused_cache(device)


def test_search_cache_refuses_a_fifo(tmp_path):
    """Opening a FIFO with no writer would block: it is refused unopened."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    _refused_cache(fifo)
