"""Cross-checks of the computed degree-6 census against the embedded tables.

The report runs four checks: the 40 maximally-unipotent rows match the
embedded (beta, |lc|, v) triples bit for bit, the 64 open rows all appear
in the census with |lc| >= 3, the census totals come out as 458 with the
211/247 split by |lc|, and the residual candidate set for table "B"
(everything with |lc| >= 3 that sits in neither embedded table) has
exactly 143 members.  The census is taken up to scalar shift and swap
(pairs.EQUIVALENCE), the equivalence these numbers hold under.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from . import fixtures
from .cyclotomic import parse_parameters
from .hgroup import build_generators, transvection_vector
from .pairs import (
    EQUIVALENCE,
    NotQualifiedError,
    QualifiedPair,
    canonical_representative,
    enumerate_qualified_pairs,
    mum_oriented,
)


@dataclass(frozen=True)
class ReportCheck:
    name: str
    passed: bool
    detail: str
    mismatches: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ReproductionReport:
    checks: tuple[ReportCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> dict:
        return {
            "convention": EQUIVALENCE,
            "passed": self.passed,
            "checks": [check.to_json() for check in self.checks],
        }

    def render(self) -> str:
        lines = [f"reproduction report (convention: {EQUIVALENCE})"]
        for check in self.checks:
            flag = "PASS" if check.passed else "FAIL"
            lines.append(f"  [{flag}] {check.name}: {check.detail}")
            for item in check.mismatches:
                lines.append(f"         - {item}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _check_table_a(census: Sequence[QualifiedPair]) -> ReportCheck:
    table_a = fixtures.TABLE_A
    mums = [mum_oriented(p) for p in census if p.is_mum()]
    by_beta = {tuple(sorted(p.beta)): p for p in mums}
    mismatches = []
    matched = 0
    for row in table_a:
        key = tuple(sorted(parse_parameters(",".join(row.beta))))
        pair = by_beta.pop(key, None)
        if pair is None:
            mismatches.append(f"row {row.number}: beta {','.join(row.beta)} not in census")
            continue
        ok = True
        if abs(pair.lc) != row.lc_abs:
            mismatches.append(
                f"row {row.number}: |lc| expected {row.lc_abs}, computed {abs(pair.lc)}"
            )
            ok = False
        v = transvection_vector(build_generators(pair))
        if v != row.v:
            mismatches.append(f"row {row.number}: v expected {row.v}, computed {v}")
            ok = False
        if ok:
            matched += 1
    for pair in by_beta.values():
        mismatches.append(f"census pair {pair.pair_id} has no table row")
    return ReportCheck(
        name="table-a",
        passed=not mismatches,
        detail=f"{matched}/{len(table_a)} rows match (beta, |lc|, v)",
        mismatches=tuple(mismatches),
    )


def _check_table_d(census_ids: set[str]) -> tuple[ReportCheck, set[str]]:
    table_d = fixtures.TABLE_D
    mismatches = []
    present = 0
    d_ids: set[str] = set()
    for row in table_d:
        try:
            as_given = fixtures.parameter_pair(row.alpha, row.beta)
            pair = canonical_representative(as_given.f_fac, as_given.g_fac)
        except NotQualifiedError as exc:
            mismatches.append(f"row {row.number}: not a qualified pair ({exc})")
            continue
        d_ids.add(pair.pair_id)
        if pair.pair_id not in census_ids:
            mismatches.append(f"row {row.number}: {pair.pair_id} not in census")
            continue
        if abs(pair.lc) < 3:
            mismatches.append(f"row {row.number}: |lc| = {abs(pair.lc)} < 3")
            continue
        present += 1
    check = ReportCheck(
        name="table-d",
        passed=not mismatches,
        detail=f"{present}/{len(table_d)} rows present with |lc| >= 3",
        mismatches=tuple(mismatches),
    )
    return check, d_ids


def _check_counts(census: Sequence[QualifiedPair]) -> ReportCheck:
    expected_total, expected_small = fixtures.CENSUS_TOTAL, fixtures.TABLE_C_COUNT
    total = len(census)
    small = sum(1 for p in census if abs(p.lc) <= 2)
    large = total - small
    expected_large = expected_total - expected_small
    mismatches = []
    if total != expected_total:
        mismatches.append(f"total: expected {expected_total}, computed {total}")
    if small != expected_small:
        mismatches.append(f"|lc| <= 2: expected {expected_small}, computed {small}")
    if large != expected_large:
        mismatches.append(f"|lc| >= 3: expected {expected_large}, computed {large}")
    return ReportCheck(
        name="counts",
        passed=not mismatches,
        detail=f"total {total}, small-lc {small}, large-lc {large}",
        mismatches=tuple(mismatches),
    )


def _check_residual(census: Sequence[QualifiedPair], d_ids: set[str]) -> ReportCheck:
    expected_residual = fixtures.TABLE_B_COUNT
    residual = [
        p
        for p in census
        if abs(p.lc) >= 3 and not p.is_mum() and p.pair_id not in d_ids
    ]
    n_a, n_d = len(fixtures.TABLE_A), len(fixtures.TABLE_D)
    detail = (
        f"{len(residual)} candidates "
        f"({len(census)} total - small-lc - {n_a} - {n_d})"
    )
    mismatches = []
    if len(residual) != expected_residual:
        mismatches.append(
            f"candidate count: expected {expected_residual}, computed {len(residual)}"
        )
    return ReportCheck(
        name="table-b-candidates",
        passed=not mismatches,
        detail=detail,
        mismatches=tuple(mismatches),
    )


def build_report() -> ReproductionReport:
    """Run all four checks against a fresh degree-6 enumeration.

    The tables and expected counts are read from ``fixtures`` on each call.
    """
    census = enumerate_qualified_pairs(6)
    check_a = _check_table_a(census)
    check_d, d_ids = _check_table_d({p.pair_id for p in census})
    check_counts = _check_counts(census)
    check_residual = _check_residual(census, d_ids)
    return ReproductionReport(checks=(check_a, check_d, check_counts, check_residual))
