"""Fast self-test of the benchmark, at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks that:
- every workload prints every metric named in BENCHMARK.json, with its unit,
  traced and untraced, and passes its gate;
- each workload's gate fails when one expected value is perturbed;
- two seeds order rows and classes differently but test the same number of
  words.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracing import Tracer  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def bench(workload: str, seed: int, trace: int) -> tuple[int, str, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    lines = out.stdout.strip().splitlines()
    return out.returncode, out.stdout, json.loads(lines[-1]) if lines else {}


def check_metrics_print() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
           == sorted(workloads.WORKLOADS),
           "BENCHMARK.json names the workloads run.py runs")
    words = {}
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, text, result = bench(workload, 1, trace)
            expect(code == 0 and result.get("correct") is True and result["failed"] == 0,
                   f"{workload} trace {trace}: exit 0, gate passes")
            metrics = result.get("metrics", {})
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in metrics.items()}
            expect(got == wanted, f"{workload} trace {trace}: metrics and units match {key}")
            printed = all(
                any(line.split()[:1] == [name] and line.split()[-1] == unit
                    for line in text.splitlines())
                for name, unit in wanted.items()
            )
            expect(printed, f"{workload} trace {trace}: every metric printed with its unit")
            if trace and workload in ("deep-negative", "census"):
                words[workload] = metrics["search.words"]["value"]
    return words


def check_gate_perturbation() -> None:
    size = workloads.TINY
    perturb = {
        "deep-negative": ("words", 1),
        "census": ("found", 1),
        "tables": ("degree8_classes", 1),
    }
    for name, (key, delta) in perturb.items():
        workload = workloads.WORKLOADS[name]
        tracer = Tracer("selftest", enabled=False)
        inputs = workload.setup(1, size, tracer)
        workdir = BENCH_DIR / "out" / f"selftest-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        _, outputs = workload.run_pass(inputs, 0, tracer, workdir)
        workdir.rmdir()
        expected = workloads.expected_values(name, size)
        _, failures = workload.check(outputs, expected)
        expect(not failures, f"{name}: gate passes with the expected values")
        expected[key] += delta
        _, failures = workload.check(outputs, expected)
        expect(len(failures) == 1, f"{name}: gate fails once with {key} perturbed by {delta}")


def check_seeds(words_seed1: dict) -> None:
    other = 2
    tracer = Tracer("selftest", enabled=False)
    size = workloads.TINY
    deep = workloads.WORKLOADS["deep-negative"]
    rows1 = [n for n, _ in deep.setup(1, size, tracer)["rows"]]
    rows2 = [n for n, _ in deep.setup(other, size, tracer)["rows"]]
    expect(rows1 != rows2 and sorted(rows1) == sorted(rows2),
           f"deep-negative: seeds 1 and {other} order the rows differently")
    census = workloads.WORKLOADS["census"]
    ids1 = [p.pair_id for p in census.setup(1, size, tracer)["classes"]]
    ids2 = [p.pair_id for p in census.setup(other, size, tracer)["classes"]]
    expect(ids1 != ids2 and sorted(ids1) == sorted(ids2),
           f"census: seeds 1 and {other} order the same classes differently")
    for name, words in words_seed1.items():
        _, _, result = bench(name, other, 1)
        expect(result["metrics"]["search.words"]["value"] == words,
               f"{name}: search.words is the same for seeds 1 and {other} ({words:g})")


def main() -> int:
    words = check_metrics_print()
    check_gate_perturbation()
    check_seeds(words)
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
