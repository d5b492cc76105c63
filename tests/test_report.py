"""Reproduction report: green on the shipped data, loud on perturbations."""

import dataclasses

from hgsp import fixtures
from hgsp.fixtures import TABLE_A, TABLE_D
from hgsp.report import build_report


def test_default_report_passes():
    report = build_report()
    assert report.passed
    assert len(report.checks) == 4
    assert [c.name for c in report.checks] == [
        "table-a", "table-d", "counts", "table-b-candidates",
    ]
    assert all(c.passed for c in report.checks)
    assert all(c.mismatches == () for c in report.checks)


def test_render_format():
    text = build_report().render()
    lines = text.splitlines()
    assert lines[0] == "reproduction report (convention: shift-swap)"
    assert "  [PASS] table-a: 40/40 rows match (beta, |lc|, v)" in lines
    assert lines[-1] == "result: PASS"


def test_perturbed_lc_is_caught(monkeypatch):
    rows = list(TABLE_A)
    rows[16] = dataclasses.replace(rows[16], lc_abs=99)
    monkeypatch.setattr(fixtures, "TABLE_A", rows)
    report = build_report()
    assert not report.passed
    check = next(c for c in report.checks if c.name == "table-a")
    assert not check.passed
    assert check.mismatches
    assert any("17" in m for m in check.mismatches)


def test_perturbed_v_is_caught(monkeypatch):
    rows = list(TABLE_A)
    wrong_v = tuple(x + 1 for x in rows[0].v)
    rows[0] = dataclasses.replace(rows[0], v=wrong_v)
    monkeypatch.setattr(fixtures, "TABLE_A", rows)
    report = build_report()
    check = next(c for c in report.checks if c.name == "table-a")
    assert not check.passed


def test_unknown_beta_is_caught(monkeypatch):
    rows = list(TABLE_A)
    rows[5] = dataclasses.replace(
        rows[5], beta=("1/7", "2/7", "3/7", "4/7", "5/7", "6/7")
    )
    monkeypatch.setattr(fixtures, "TABLE_A", rows)
    report = build_report()
    check = next(c for c in report.checks if c.name == "table-a")
    assert not check.passed


def test_missing_table_d_row_changes_residual(monkeypatch):
    monkeypatch.setattr(fixtures, "TABLE_D", TABLE_D[:-1])
    report = build_report()
    counts = {c.name: c for c in report.checks}
    assert counts["table-d"].passed  # 63 rows, all still present
    assert not counts["table-b-candidates"].passed  # 144 != 143
    assert not report.passed


def test_wrong_expected_counts_fail(monkeypatch):
    monkeypatch.setattr(fixtures, "CENSUS_TOTAL", 457)
    report = build_report()
    check = next(c for c in report.checks if c.name == "counts")
    assert not check.passed
    assert "458" in check.detail


def test_failing_render_marks_result(monkeypatch):
    monkeypatch.setattr(fixtures, "CENSUS_TOTAL", 1)
    text = build_report().render()
    assert "[FAIL] counts" in text
    assert text.splitlines()[-1] == "result: FAIL"


def test_to_json_shape():
    blob = build_report().to_json()
    assert blob["passed"] is True
    assert blob["convention"] == "shift-swap"
    assert len(blob["checks"]) == 4
    for check in blob["checks"]:
        assert set(check) == {"name", "passed", "detail", "mismatches"}
