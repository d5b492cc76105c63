"""One workload run in its own process; started by bench/run.py.

Usage: python3 bench/child.py WORKLOAD SEED SECONDS TRACE SIZE OUT_DIR

Sets the workload up several times (each set-up timed, the first one traced
when TRACE is 1), then runs whole passes for SECONDS, at least one.  With
TRACE 1 the passes alternate untraced and traced, so the difference of their
median CPU times is the tracing overhead.  Every pass goes through the gate.  Prints
one JSON object with the raw timings, the gate result and, for a traced run,
the per-layer metrics; writes the spans to OUT_DIR.

All measurement is in-process: perf_counter, process_time and getrusage.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from run import SETUP_REPEATS  # noqa: E402
from tracing import Tracer, cpu_seconds, layer_metrics  # noqa: E402


ROTATE_S = 0.05


def rotate_cpus(stop: threading.Event, tid: int) -> None:
    """Move thread `tid` to the next allowed CPU every ROTATE_S seconds.

    On a virtual machine the CPUs run at different speeds that change over
    minutes; a serial pass left on one CPU takes that CPU's speed, so runs
    disagree by whole speed steps.  Rotating gives every pass the mean speed.
    Only this process's own threads are moved.
    """
    cpus = sorted(os.sched_getaffinity(tid))
    i = 0
    while not stop.wait(ROTATE_S):
        i += 1
        os.sched_setaffinity(tid, {cpus[i % len(cpus)]})
    os.sched_setaffinity(tid, cpus)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run(name: str, seed: int, seconds: float, trace: bool, size: workloads.Size,
        out_dir: Path) -> dict:
    workload = workloads.WORKLOADS[name]
    expected = workloads.expected_values(name, size)
    run_id = f"{name}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id, enabled=False)

    setup_s = []
    for k in range(SETUP_REPEATS):
        tracer.enabled = trace and k == 0
        c0 = cpu_seconds()
        with tracer.span("setup"):
            inputs = workload.setup(seed, size, tracer)
        setup_s.append(cpu_seconds() - c0)

    workdir = out_dir / f"work-{run_id}"
    workdir.mkdir(parents=True)
    stop = threading.Event()
    rotation = None
    if workload.workers == 1 and len(os.sched_getaffinity(0)) > 1:
        rotation = threading.Thread(target=rotate_cpus, args=(stop, threading.get_native_id()))
        rotation.start()
    passes = []
    attempted, failures = 0, []
    min_passes = 2 if trace else 1
    start = time.perf_counter()
    try:
        # Start a pass only if it should end within SECONDS, judging by the
        # median pass so far, so a run stays within its time.
        while len(passes) < min_passes or (
            time.perf_counter() - start
            + statistics.median(p["wall_s"] for p in passes) <= seconds
        ):
            index = len(passes)
            tracer.enabled = trace and index % 2 == 1
            t0, c0 = time.perf_counter(), cpu_seconds()
            with tracer.span("pass"):
                items, outputs = workload.run_pass(inputs, index, tracer, workdir)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            checked, failed = workload.check(outputs, expected)
            attempted += checked
            failures.extend(failed)
            passes.append({"wall_s": wall, "cpu_s": cpu, "items_s": items,
                           "traced": tracer.enabled})
    finally:
        stop.set()
        if rotation is not None:
            rotation.join()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "run_id": run_id,
        "setup_build_s": setup_s,
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        traced = [p["cpu_s"] for p in passes if p["traced"]]
        untraced = [p["cpu_s"] for p in passes if not p["traced"]]
        result["layers"] = layer_metrics(tracer.spans, len(traced), workloads.FULL.deep_depth)
        result["layers"]["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(untraced)
        )
        spans_path = out_dir / f"spans-{run_id}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    return result


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, size, out_dir = argv
    sizes = {"full": workloads.FULL, "tiny": workloads.TINY}
    result = run(name, int(seed), float(seconds), trace == "1", sizes[size], Path(out_dir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
