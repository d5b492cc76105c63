"""Cross-checks of the computed degree-6 census against the embedded tables.

The report runs four checks: the 40 maximally-unipotent rows match the
embedded (beta, |lc|, v) triples bit for bit, the 64 open rows all appear
in the census with |lc| >= 3, the census totals come out as 458 with the
211/247 split by |lc|, and the residual candidate set for table "B"
(everything with |lc| >= 3 that sits in neither embedded table) has
exactly 143 members.

The expected numbers hold under the default equivalence convention
(scalar shift plus swap).  Running the report under the shift-only
convention makes the count checks fail and the itemized mismatch lines
then show the alternate totals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from . import fixtures
from .cyclotomic import factorization_from_parameters, parse_parameters
from .hgroup import build_generators, transvection_vector
from .pairs import (
    DEFAULT_CONVENTION,
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
    convention: str
    checks: tuple[ReportCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> dict:
        return {
            "convention": self.convention,
            "passed": self.passed,
            "checks": [check.to_json() for check in self.checks],
        }

    def render(self) -> str:
        lines = [f"reproduction report (convention: {self.convention})"]
        for check in self.checks:
            flag = "PASS" if check.passed else "FAIL"
            lines.append(f"  [{flag}] {check.name}: {check.detail}")
            for item in check.mismatches:
                lines.append(f"         - {item}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _check_table_a(
    census: Sequence[QualifiedPair], table_a: Sequence[fixtures.MumRow]
) -> ReportCheck:
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


def _check_table_d(
    census_ids: set[str], table_d: Sequence[fixtures.OpenRow], convention: str
) -> tuple[ReportCheck, set[str]]:
    mismatches = []
    present = 0
    d_ids: set[str] = set()
    for row in table_d:
        try:
            pair = _row_representative(row, convention)
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


def _row_representative(row: fixtures.OpenRow, convention: str) -> QualifiedPair:
    f_fac = factorization_from_parameters(parse_parameters(",".join(row.alpha)))
    g_fac = factorization_from_parameters(parse_parameters(",".join(row.beta)))
    return canonical_representative(f_fac, g_fac, convention)


def _check_counts(
    census: Sequence[QualifiedPair],
    expected_total: int,
    expected_small: int,
) -> ReportCheck:
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


def _check_residual(
    census: Sequence[QualifiedPair],
    d_ids: set[str],
    expected_residual: int,
    table_sizes: tuple[int, int],
) -> ReportCheck:
    residual = [
        p
        for p in census
        if abs(p.lc) >= 3 and not p.is_mum() and p.pair_id not in d_ids
    ]
    n_a, n_d = table_sizes
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


def build_report(
    convention: str = DEFAULT_CONVENTION,
    table_a: Optional[Sequence[fixtures.MumRow]] = None,
    table_d: Optional[Sequence[fixtures.OpenRow]] = None,
    expected_total: int = fixtures.CENSUS_TOTAL,
    expected_small: int = fixtures.TABLE_C_COUNT,
    expected_residual: int = fixtures.TABLE_B_COUNT,
) -> ReproductionReport:
    """Run all four checks against a fresh degree-6 enumeration.

    The table arguments default to the embedded fixtures and exist so
    tests can feed perturbed copies through the same code path.
    """
    if table_a is None:
        table_a = fixtures.TABLE_A
    if table_d is None:
        table_d = fixtures.TABLE_D
    census = enumerate_qualified_pairs(6, convention)
    census_ids = {p.pair_id for p in census}
    check_a = _check_table_a(census, table_a)
    check_d, d_ids = _check_table_d(census_ids, table_d, convention)
    check_counts = _check_counts(census, expected_total, expected_small)
    check_residual = _check_residual(
        census, d_ids, expected_residual, (len(table_a), len(table_d))
    )
    return ReproductionReport(
        convention=convention,
        checks=(check_a, check_d, check_counts, check_residual),
    )
