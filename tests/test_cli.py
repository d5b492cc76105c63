"""Command line interface, driven through main(argv)."""

import json

import pytest

from hgsp.cli import CSV_COLUMNS, main
from hgsp.cyclotomic import CycloFactorization


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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


@pytest.mark.parametrize("flag", ["--threads", "--max-depth", "--node-budget"])
def test_search_rejects_zero_counts(capsys, flag):
    # argparse rejects the value before any search or process starts
    with pytest.raises(SystemExit) as err:
        main(["search", "--f", "1^6", "--g", "3,6^2", "--no-cache", flag, "0"])
    assert err.value.code == 2
    assert f"argument {flag}: must be at least 1, got 0" in capsys.readouterr().err


def test_search_budget_exhaustion_exits_one(capsys):
    rc, _, err = run(
        capsys, "search", "--f", "1^6", "--g", "2^4,3",
        "--max-depth", "9", "--node-budget", "100", "--no-cache",
    )
    assert rc == 1
    assert "node budget reached after depth 3 (52 words tested)" in err


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
        (line,) = cache.read_text().splitlines()
        assert json.loads(line)["kind"] == "unknown"


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
                          ("A^10000000000", "word longer than 1000 letters")):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--f", "1^6", "--g", "3^2,6", "--word", word])
        assert err.value.code == 2
        assert message in capsys.readouterr().err


def _refuse(*args, **kwargs):
    raise AssertionError("oversized input must be refused before this runs")


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
    monkeypatch.setattr(CycloFactorization, "expand", _refuse)
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
    rc, out, _ = run(capsys, "report", "--convention", "shift")
    assert rc == 1
    assert "result: FAIL" in out
