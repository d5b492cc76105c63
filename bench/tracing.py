"""Spans recorded by the benchmark around its calls into hgsp.

A span has a name, start and end (``perf_counter``), the CPU time spent in
it (this process plus reaped children), its parent span and the run id that
all spans of one run share.  Spans stay in memory and are written out once,
when the run ends.  The library is not instrumented: every span wraps one
call made from the benchmark's own files, so a layer's time here is the
time of the calls into its public functions.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from pathlib import Path


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Tracer:
    """Records nested spans when enabled; otherwise only hands out scratch
    attribute dicts, so the untraced path costs one generator per call."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        attrs: dict = {}
        if not self.enabled:
            yield attrs
            return
        span_id = len(self.spans)
        record = {
            "run": self.run_id,
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        cpu0 = cpu_seconds()
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            record["cpu"] = cpu_seconds() - cpu0
            record["attrs"] = attrs
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration of each span minus the time its child spans cover.

    Children of one span run one after another in this process, so the part
    they cover is the sum of their durations.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], traced_passes: int, max_depth: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, per workload pass.

    Spans under the traced set-up count once; spans under the traced passes
    are summed and divided by the number of traced passes, so a count reads
    the same whatever the number of passes.  Percentiles pool every call.
    """
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def in_setup(span: dict) -> bool:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span["name"] == "setup"

    def per_pass(name: str, value) -> float:
        setup = passes = 0
        for s in spans:
            if s["name"] == name:
                if in_setup(s):
                    setup += value(s)
                else:
                    passes += value(s)
        return setup + passes / traced_passes

    def busy(name: str) -> float:
        return per_pass(name, lambda s: own[s["id"]])

    def calls(name: str, attr: str = "", equals=None) -> float:
        if not attr:
            return per_pass(name, lambda s: 1)
        return per_pass(name, lambda s: int(s["attrs"].get(attr) == equals))

    def total(name: str, attr: str) -> float:
        return per_pass(name, lambda s: s["attrs"].get(attr, 0))

    def call_ms(name: str, q: float) -> float:
        durations = [s["end"] - s["start"] for s in spans if s["name"] == name]
        return 1000.0 * percentile(durations, q)

    m: dict[str, float] = {}
    m["search.busy_s"] = busy("search")
    m["search.calls"] = calls("search")
    m["search.words"] = total("search", "words")
    m["search.words_per_s"] = _ratio(m["search.words"], m["search.busy_s"])
    for d in range(1, max_depth + 1):
        m[f"search.words_d{d}"] = per_pass(
            "search", lambda s: s["attrs"]["per_depth"].get(d, 0)
        )
    for status in ("found", "not_found", "obstructed"):
        m[f"search.{status}"] = calls("search", "status", status)
    m["search.found_ratio"] = _ratio(
        m["search.found"], m["search.calls"] - m["search.obstructed"]
    )
    m["search.call_p50_ms"] = call_ms("search", 50)
    m["search.call_p95_ms"] = call_ms("search", 95)
    m["search.cpu_per_wall"] = _ratio(
        per_pass("search", lambda s: s["cpu"]),
        per_pass("search", lambda s: s["end"] - s["start"]),
    )

    m["hgroup.generators_s"] = busy("hgroup.generators")
    m["hgroup.generators_calls"] = calls("hgroup.generators")
    m["hgroup.form_s"] = busy("hgroup.form")
    m["hgroup.form_calls"] = calls("hgroup.form")
    m["hgroup.form_call_p95_ms"] = call_ms("hgroup.form", 95)

    m["pairs.enumerate_s"] = busy("pairs.enumerate")
    m["pairs.classes"] = total("pairs.enumerate", "classes")

    m["certify.busy_s"] = busy("certify")
    m["certify.calls"] = calls("certify")
    m["certify.pass"] = calls("certify", "verdict", True)
    m["certify.fail"] = calls("certify", "verdict", False)
    m["certify.call_p50_ms"] = call_ms("certify", 50)
    m["certify.call_p95_ms"] = call_ms("certify", 95)

    m["cache.load_s"] = busy("cache.load")
    m["cache.lookup_s"] = busy("cache.lookup")
    m["cache.store_s"] = busy("cache.store")
    m["cache.store_calls"] = calls("cache.store")
    m["cache.store_p95_ms"] = call_ms("cache.store", 95)
    m["cache.hits"] = calls("cache.lookup", "hit", True)
    m["cache.misses"] = calls("cache.lookup", "hit", False)
    m["cache.hit_ratio"] = _ratio(m["cache.hits"], m["cache.hits"] + m["cache.misses"])
    m["cache.file_bytes"] = total("cache.load", "file_bytes")

    m["report.build_s"] = busy("report.build")
    return m
