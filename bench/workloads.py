"""The benchmark's workloads: inputs from a seed, one timed pass, and the gate.

Each workload has three parts.  ``setup`` turns the seed into the inputs the
library receives.  ``run_pass`` does one fixed amount of work through hgsp's
public functions, wrapping each call in a tracer span, and returns the CPU
time of every item it finished plus the raw outputs.  ``check`` compares those
outputs with the expected values and returns (operations checked, failures).
The passes of one run all do the same work, so every count a pass makes
repeats exactly.

Workloads (why each exists is in bench/README.md):

- ``deep-negative``: serial depth-12 searches on Table A rows that have no
  witness up to depth 12, one row per pass, rows in seed order.
- ``deep-negative-2w``: the same searches through the two-worker pool.
- ``census``: gcd gate, cache lookup, search, cache store and certificate
  for every |lc| >= 3 degree-6 class at depth 8, then a warm cache rerun.
- ``tables``: the reproduction report, generators and invariant forms for
  every degree-6 class and a sample of degree-8 classes, the Table A
  certificates and the dependent controls.  No search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hgsp import (
    SearchConfig,
    build_generators,
    build_report,
    enumerate_qualified_pairs,
    fixtures,
    gcd_obstruction,
    invariant_symplectic_form,
    search_witness,
    transvection_vector,
    verify_witness,
)
from hgsp.cache import ResultCache, record_for
from hgsp.pairs import PairClassification
from hgsp.words import Word
from tracing import cpu_seconds

#: Table A rows with no witness up to depth 12 (each tests 1,062,880 words).
NOT_FOUND_POOL = (2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 16, 21, 24, 31, 39)


@dataclass(frozen=True)
class Size:
    """How much work one pass does; ``FULL`` is what the benchmark runs."""

    deep_depth: int
    census_depth: int
    degree6_forms: int  # 0 means every degree-6 class
    degree8_forms: int


FULL = Size(deep_depth=12, census_depth=8, degree6_forms=0, degree8_forms=48)
TINY = Size(deep_depth=5, census_depth=3, degree6_forms=12, degree8_forms=2)

# Census outcomes at the depths the benchmark uses: found, not_found,
# obstructed and words tested.  Depth 8 is the ROADMAP baseline; depth 3 is
# the self-test size, recorded from the same code.
CENSUS_EXPECTED = {
    8: {"classes": 247, "found": 125, "not_found": 110, "obstructed": 12, "words": 1_651_192},
    3: {"classes": 247, "found": 64, "not_found": 171, "obstructed": 12, "words": 11_428},
}


def reduced_words(depth: int) -> int:
    """Reduced words of exactly this length in A, B and their inverses."""
    return 4 * 3 ** (depth - 1)


def expected_values(workload: str, size: Size) -> dict:
    if workload.startswith("deep-negative"):
        depths = range(1, size.deep_depth + 1)
        return {
            "status": "not_found",
            "words": sum(reduced_words(d) for d in depths),
            "per_depth": {d: reduced_words(d) for d in depths},
        }
    if workload == "census":
        return dict(CENSUS_EXPECTED[size.census_depth])
    return {
        "degree6_classes": fixtures.CENSUS_TOTAL,
        "degree8_classes": 2983,
        "degree8_large_lc": 1747,
        "control_failure": "independence",
    }


def _search(pair, cfg: SearchConfig, tracer):
    with tracer.span("search") as attrs:
        outcome = search_witness(pair, cfg)
        attrs["status"] = outcome.status
        attrs["words"] = outcome.nodes_visited
        attrs["per_depth"] = dict(outcome.nodes_per_depth)
    return outcome


def _enumerate(degree: int, tracer):
    with tracer.span("pairs.enumerate") as attrs:
        pairs = enumerate_qualified_pairs(degree)
        attrs["classes"] = len(pairs)
    return pairs


def _generators(pair, tracer):
    with tracer.span("hgroup.generators"):
        return build_generators(pair)


def _certify(pair, word, tracer):
    with tracer.span("certify") as attrs:
        report = verify_witness(pair, word)
        attrs["verdict"] = report.verdict
    return report


# -- deep-negative ------------------------------------------------------------


class DeepNegative:
    """One depth-12 not-found search per pass, rows in seed order."""

    def __init__(self, workers: int):
        self.workers = workers

    def setup(self, seed: int, size: Size, tracer) -> dict:
        rows = random.Random(seed).sample(NOT_FOUND_POOL, len(NOT_FOUND_POOL))
        return {
            "rows": [(n, fixtures.TABLE_A[n - 1].pair()) for n in rows],
            "cfg": SearchConfig(max_depth=size.deep_depth, workers=self.workers),
        }

    def run_pass(self, inputs: dict, index: int, tracer, workdir: Path):
        number, pair = inputs["rows"][index % len(inputs["rows"])]
        t0 = cpu_seconds()
        outcome = _search(pair, inputs["cfg"], tracer)
        item = cpu_seconds() - t0
        return [item], {"row": number, "outcome": outcome}

    def check(self, outputs: dict, expected: dict) -> tuple[int, list[str]]:
        out = outputs["outcome"]
        got = {
            "status": out.status,
            "words": out.nodes_visited,
            "per_depth": dict(out.nodes_per_depth),
        }
        if got != expected:
            return 1, [f"row {outputs['row']}: expected {expected}, got {got}"]
        return 1, []


# -- census -------------------------------------------------------------------


def _classification(outcome) -> PairClassification:
    kind = {"found": "arithmetic_witness", "obstructed": "obstructed"}.get(
        outcome.status, "unknown"
    )
    return PairClassification(
        kind=kind,
        gcd=outcome.gcd,
        witness=str(outcome.word) if outcome.word else None,
        witness_length=len(outcome.word) if outcome.word else None,
        searched_depth=len(outcome.word) if outcome.word else outcome.max_depth,
    )


class Census:
    """The classification pipeline over every |lc| >= 3 degree-6 class."""

    workers = 1

    def setup(self, seed: int, size: Size, tracer) -> dict:
        classes = [p for p in _enumerate(6, tracer) if abs(p.lc) >= 3]
        random.Random(seed).shuffle(classes)
        return {"classes": classes, "cfg": SearchConfig(max_depth=size.census_depth)}

    def run_pass(self, inputs: dict, index: int, tracer, workdir: Path):
        cfg = inputs["cfg"]
        path = workdir / f"census-cache-{index}.jsonl"
        with tracer.span("cache.load"):
            cache = ResultCache(path)
        items, rows = [], []
        for pair in inputs["classes"]:
            t0 = cpu_seconds()
            gen = _generators(pair, tracer)
            gate = gcd_obstruction(transvection_vector(gen))
            with tracer.span("cache.lookup") as attrs:
                cold_hit = cache.lookup(pair.pair_id, cfg.max_depth)
                attrs["hit"] = cold_hit is not None
            outcome = _search(pair, cfg, tracer)
            cls = _classification(outcome)
            with tracer.span("cache.store"):
                cache.store(record_for(pair, cls, nodes=outcome.nodes_visited))
            verdict = None
            if outcome.word is not None:
                verdict = _certify(pair, outcome.word, tracer).verdict
            items.append(cpu_seconds() - t0)
            rows.append((pair, gate, cold_hit, outcome, cls, verdict))
        with tracer.span("cache.load") as attrs:
            attrs["file_bytes"] = path.stat().st_size
            warm = ResultCache(path)
        warm_hits = []
        for pair, *_ in rows:
            with tracer.span("cache.lookup") as attrs:
                hit = warm.lookup(pair.pair_id, cfg.max_depth)
                attrs["hit"] = hit is not None
            warm_hits.append(hit)
        path.unlink()
        return items, {"rows": rows, "warm": warm_hits}

    def check(self, outputs: dict, expected: dict) -> tuple[int, list[str]]:
        failures = []
        attempted = 1
        counts = {"classes": 0, "found": 0, "not_found": 0, "obstructed": 0, "words": 0}
        for (pair, gate, cold_hit, outcome, cls, verdict), warm in zip(
            outputs["rows"], outputs["warm"]
        ):
            attempted += 2
            counts["classes"] += 1
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
            counts["words"] += outcome.nodes_visited
            if cold_hit is not None or (gate is not None) != (outcome.status == "obstructed"):
                failures.append(f"{pair.pair_id}: cold hit {cold_hit}, gcd gate {gate}, "
                                f"search {outcome.status}")
            if outcome.word is not None:
                attempted += 1
                if verdict is not True:
                    failures.append(f"{pair.pair_id}: certificate fails for {outcome.word}")
            if warm is None or (warm.kind, warm.witness, warm.gcd) != (cls.kind, cls.witness, cls.gcd):
                failures.append(f"{pair.pair_id}: warm lookup {warm} differs from {cls}")
        if counts != expected:
            failures.append(f"census totals: expected {expected}, got {counts}")
        return attempted, failures


# -- tables -------------------------------------------------------------------


def _mat_mul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _transpose(x):
    return [list(col) for col in zip(*x)]


def _nonsingular(m) -> bool:
    """Exact rank test by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in m]
    n = len(rows)
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(c + 1, n):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return True


def form_ok(gen, v, omega) -> bool:
    """A^T Omega A = Omega, B^T Omega B = Omega, det Omega != 0 and
    v^T Omega proportional to e_n^T with a nonzero factor."""
    om = [list(row) for row in omega]
    for m in (gen.a, gen.b):
        if _mat_mul(_mat_mul(_transpose(m), om), m) != om:
            return False
    v_omega = [sum(v[i] * om[i][j] for i in range(len(v))) for j in range(len(v))]
    return not any(v_omega[:-1]) and v_omega[-1] != 0 and _nonsingular(om)


class Tables:
    """The algebra layers without search: report, forms and certificates."""

    workers = 1

    def setup(self, seed: int, size: Size, tracer) -> dict:
        return {
            "witnesses": [(row.pair(), row.witness_word()) for row in fixtures.witness_rows()],
            "controls": [(ex.pair(), Word.parse(ex.word)) for ex in fixtures.DEPENDENT_EXAMPLES],
            "seed": seed,
            "size": size,
        }

    def _forms(self, pairs, tracer, items, forms) -> None:
        for pair in pairs:
            t0 = cpu_seconds()
            gen = _generators(pair, tracer)
            v = transvection_vector(gen)
            with tracer.span("hgroup.form"):
                form = invariant_symplectic_form(gen, v)
            items.append(cpu_seconds() - t0)
            forms.append((pair, gen, v, form))

    def run_pass(self, inputs: dict, index: int, tracer, workdir: Path):
        size = inputs["size"]
        items, forms = [], []
        with tracer.span("report.build"):
            report = build_report()
        degree6 = _enumerate(6, tracer)
        count6 = len(degree6)
        if size.degree6_forms:
            degree6 = random.Random(inputs["seed"]).sample(degree6, size.degree6_forms)
        self._forms(degree6, tracer, items, forms)
        certificates = [_certify(p, w, tracer) for p, w in inputs["witnesses"]]
        controls = [_certify(p, w, tracer) for p, w in inputs["controls"]]
        degree8 = _enumerate(8, tracer)
        sample = random.Random(inputs["seed"]).sample(degree8, size.degree8_forms)
        self._forms(sample, tracer, items, forms)
        return items, {
            "report": report,
            "degree6_classes": count6,
            "degree8": degree8,
            "forms": forms,
            "certificates": certificates,
            "controls": controls,
        }

    def check(self, outputs: dict, expected: dict) -> tuple[int, list[str]]:
        failures = []
        if not outputs["report"].passed:
            failures.append("reproduction report fails:\n" + outputs["report"].render())
        for pair, gen, v, form in outputs["forms"]:
            if not form_ok(gen, v, form.omega):
                failures.append(f"{pair.pair_id}: invariant form fails its identities")
        for r in outputs["certificates"]:
            if not r.verdict:
                failures.append(f"certificate {r.pair_id} {r.word}: fails at {r.first_failure}")
        for r in outputs["controls"]:
            if r.verdict or r.first_failure != expected["control_failure"]:
                failures.append(f"control {r.pair_id}: first failure {r.first_failure}")
        if outputs["degree6_classes"] != expected["degree6_classes"]:
            failures.append(f"degree 6: {outputs['degree6_classes']} classes")
        degree8 = outputs["degree8"]
        large = sum(1 for p in degree8 if abs(p.lc) >= 3)
        if (len(degree8), large) != (expected["degree8_classes"], expected["degree8_large_lc"]):
            failures.append(f"degree 8: {len(degree8)} classes, {large} with |lc| >= 3")
        attempted = (
            1 + len(outputs["forms"]) + len(outputs["certificates"])
            + len(outputs["controls"]) + 2
        )
        return attempted, failures


WORKLOADS = {
    "deep-negative": DeepNegative(workers=1),
    "deep-negative-2w": DeepNegative(workers=2),
    "census": Census(),
    "tables": Tables(),
}
