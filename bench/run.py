"""hgsp benchmark: runs one workload (or all) and prints every metric.

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, in turn

Each workload runs in its own child process (bench/child.py), so its peak
memory and its search pool's CPU are counted apart from the others.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
per-layer metrics from the spans.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when every output passed its gate, 1 when one did not, and 2
when the run could not be made (for example, no ``src/hgsp`` to import).

Timed end-to-end metrics are CPU time (process_time plus getrusage of reaped
children); wall times go to the run record.  All measurement is in-process
only; nothing traces the whole machine or changes its settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("deep-negative", "deep-negative-2w", "census", "tables")
SETUP_REPEATS = 9  # set-ups per run; each pairs one timed import with one input build
CHILD_TIMEOUT_S = 170

# Times are CPU seconds of the workload process and its reaped children: on a
# virtual machine whose host takes the CPU away (steal time), wall time moved
# up to 50% between sets of runs while CPU time, which excludes steal, held.
# Wall times are kept in the run record.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "items_per_cpu_s": "1/s",
    "item_cpu_p50_ms": "ms",
    "item_cpu_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.process_time(); import hgsp; print(time.process_time() - t)"
)

MEASUREMENT_NOTE = (
    "in-process only: perf_counter, process_time and getrusage of the "
    "benchmark's own processes; serial workloads move their own thread between "
    "the allowed CPUs; nothing traces the whole machine or touches its settings"
)


class RunError(RuntimeError):
    """The run could not be made; no result is printed."""


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("words_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "cpu_per_wall")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: context for machine speed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def import_times() -> list[float]:
    """CPU time of `import hgsp` in fresh interpreters, one per set-up."""
    if not (SRC / "hgsp" / "__init__.py").is_file():
        raise RunError(f"no hgsp package under {SRC}")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60,
        )
        if out.returncode != 0:
            raise RunError("importing hgsp failed:\n" + out.stderr)
        times.append(float(out.stdout))
    return times


def run_child(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"), workload, str(seed),
        str(seconds), "1" if trace else "0", size, str(OUT_DIR),
    ]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload} did not finish in {CHILD_TIMEOUT_S} s") from exc
    if out.returncode != 0:
        raise RunError(f"{workload} child exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def end_to_end(child: dict, imports: list[float]) -> dict[str, float]:
    passes = [p for p in child["passes"] if not p["traced"]]
    items = [t for p in passes for t in p["items_s"]]
    cpus = [p["cpu_s"] for p in passes]
    return {
        "setup_s": statistics.median(a + b for a, b in zip(imports, child["setup_build_s"])),
        "cpu_s": statistics.median(cpus),
        "items_per_cpu_s": len(items) / sum(cpus),
        "item_cpu_p50_ms": 1000.0 * percentile(items, 50),
        "item_cpu_p95_ms": 1000.0 * percentile(items, 95),
        "peak_rss_mb": child["peak_rss_mb"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One measured run: record, metrics with units, and the gate's counts."""
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "calibration_before_s": calibration_s(),
        "measurement": MEASUREMENT_NOTE,
    }
    imports = import_times()
    child = run_child(workload, seed, seconds, trace, size)
    record["loadavg_after"] = os.getloadavg()
    record["calibration_after_s"] = calibration_s()
    record["passes"] = len(child["passes"])
    record["pass_wall_s"] = [p["wall_s"] for p in child["passes"]]
    record["run_id"] = child["run_id"]
    if trace:
        record["spans_file"] = os.path.relpath(child["spans_file"], ROOT)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in child["layers"].items()}
    else:
        metrics = {
            k: {"value": v, "unit": END_TO_END[k]}
            for k, v in end_to_end(child, imports).items()
        }
    return {
        "record": record,
        "metrics": metrics,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "failures": child["failures"],
    }


def print_run(result: dict) -> None:
    record = result["record"]
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']}, "
          f"{record['passes']} passes)")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':28s} {rate:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} checked outputs failed)")
    for failure in result["failures"]:
        print(f"  GATE FAIL: {failure}")
    print("run record: " + json.dumps(record))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny runs each workload at self-test size")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
            print_run(result)
            results.append(result)
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['record']['workload']}.{k}": m
                   for r in results for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
