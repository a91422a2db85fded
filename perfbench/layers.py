"""Per-layer metrics of the traced run, computed from recorded spans.

``busy_s`` is the summed duration of a layer's entry-point calls (nested
layers included); ``self_s`` subtracts the time their child spans cover.
Ratios whose denominator is zero on a workload read 0.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque

from spans import Span, self_times
from stats import percentile

#: Every per-layer metric, with its unit, in report order.
UNITS = {
    "cpu.engine.calls": "count",
    "cpu.engine.busy_s": "s",
    "cpu.engine.sim_instr": "count",
    "cpu.engine.instr_per_s": "instr/s",
    "cpu.decode.busy_s": "s",
    "mem.build.busy_s": "s",
    "mem.prewarm.calls": "count",
    "mem.prewarm.busy_s": "s",
    "mem.prewarm.distinct_ratio": "fraction",
    "workloads.trace_gen.calls": "count",
    "workloads.trace_gen.busy_s": "s",
    "workloads.trace_cache.hit_ratio": "fraction",
    "gpu.batch.cells": "count",
    "gpu.batch.busy_s": "s",
    "gpu.batch.vectorized_ratio": "fraction",
    "gpu.scalar.calls": "count",
    "gpu.scalar.busy_s": "s",
    "power.calls": "count",
    "power.busy_s": "s",
    "core.self_s": "s",
    "experiments.runner.self_s": "s",
    "resilience.selfcheck.busy_s": "s",
    "resilience.checkpoint.saves": "count",
    "resilience.checkpoint.busy_s": "s",
    "resilience.checkpoint.bytes_written": "bytes",
    "resilience.checkpoint.load_s": "s",
    "resilience.pool.cells": "count",
    "resilience.pool.wait_s": "s",
    "resilience.pool.worker_busy_s": "s",
    "resilience.pool.merge_busy_s": "s",
    "resilience.pool.retries": "count",
    "store.get.calls": "count",
    "store.get.hit_ratio": "fraction",
    "store.get.busy_s": "s",
    "store.put.calls": "count",
    "store.put.busy_s": "s",
    "serve.submit.p50_ms": "ms",
    "serve.queue_wait.p50_ms": "ms",
    "serve.run_cell.p50_ms": "ms",
    "serve.dedup_ratio": "fraction",
    "serve.client.polls_per_job": "count",
    "serve.client.retries": "count",
    "trace.overhead_frac": "fraction",
    "trace.accounted_frac": "fraction",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50_ms(seconds: "list[float]") -> float:
    return 1000.0 * percentile(seconds, 50) if seconds else 0.0


def _queue_waits(server: "list[Span]") -> "list[float]":
    """Admission-to-dispatch gap of every admitted served job.

    An admitted job's ``submit_idempotent`` span is matched, per cell and
    in order, with the next ``run_cell`` span of the same cell.
    """
    admitted = defaultdict(deque)
    for span in sorted(server, key=lambda s: s.end):
        if span.layer == "serve.submit" and span.attrs.get("outcome") == "admitted":
            admitted[repr(span.attrs.get("cell"))].append(span.end)
    waits = []
    for span in sorted(server, key=lambda s: s.start):
        if span.name == "run_cell":
            queue = admitted.get(repr(span.attrs["cell"]))
            if queue:
                waits.append(span.start - queue.popleft())
    return waits


def layer_metrics(spans: "list[Span]", server: "list[Span]" = (),
                  *, jobs: int = 0, client_retries: int = 0) -> dict:
    """Every metric of :data:`UNITS` except the ``trace.*`` pair.

    ``spans`` holds the benchmark process's and its pool workers' spans,
    ``server`` the served-jobs server's.
    """
    everything = list(spans) + list(server)
    selfs = self_times(everything)
    by_layer = defaultdict(list)
    for span in everything:
        by_layer[span.layer].append(span)

    def calls(layer: str) -> int:
        return len(by_layer[layer])

    def busy(layer: str) -> float:
        return sum(s.duration for s in by_layer[layer])

    def self_s(layer: str) -> float:
        return sum(selfs[(s.pid, s.sid)] for s in by_layer[layer])

    children = Counter(
        (s.pid, s.parent) for s in by_layer["workloads.trace_gen"]
        if s.parent is not None
    )
    lookups = by_layer["workloads.trace_cache"]
    misses = sum(1 for s in lookups if children[(s.pid, s.sid)])
    prewarm_keys = {s.attrs.get("key") for s in by_layer["mem.prewarm"]}
    engine_instr = sum(s.attrs.get("instr", 0) for s in by_layer["cpu.engine"])
    batch_cells = sum(s.attrs.get("cells", 0) for s in by_layer["gpu.batch"])
    vectorized = sum(s.attrs.get("vectorized", 0) for s in by_layer["gpu.batch"])
    saves = by_layer["resilience.checkpoint.save"]
    workers = by_layer["resilience.pool.worker"]
    gets = by_layer["store.get"]
    submits = [s for s in server if s.layer == "serve.submit"]
    polls = [s for s in spans if s.name == "ServeClient.poll"]
    return {
        "cpu.engine.calls": calls("cpu.engine"),
        "cpu.engine.busy_s": busy("cpu.engine"),
        "cpu.engine.sim_instr": engine_instr,
        "cpu.engine.instr_per_s": _ratio(engine_instr, busy("cpu.engine")),
        "cpu.decode.busy_s": busy("cpu.decode"),
        "mem.build.busy_s": busy("mem.build"),
        "mem.prewarm.calls": calls("mem.prewarm"),
        "mem.prewarm.busy_s": busy("mem.prewarm"),
        "mem.prewarm.distinct_ratio": _ratio(
            len(prewarm_keys), calls("mem.prewarm")
        ),
        "workloads.trace_gen.calls": calls("workloads.trace_gen"),
        "workloads.trace_gen.busy_s": busy("workloads.trace_gen"),
        "workloads.trace_cache.hit_ratio": _ratio(
            len(lookups) - misses, len(lookups)
        ),
        "gpu.batch.cells": batch_cells,
        "gpu.batch.busy_s": busy("gpu.batch"),
        "gpu.batch.vectorized_ratio": _ratio(vectorized, batch_cells),
        "gpu.scalar.calls": calls("gpu.scalar"),
        "gpu.scalar.busy_s": busy("gpu.scalar"),
        "power.calls": calls("power"),
        "power.busy_s": busy("power"),
        "core.self_s": self_s("core"),
        "experiments.runner.self_s": self_s("experiments.runner"),
        "resilience.selfcheck.busy_s": busy("resilience.selfcheck"),
        "resilience.checkpoint.saves": len(saves),
        "resilience.checkpoint.busy_s": busy("resilience.checkpoint.save"),
        "resilience.checkpoint.bytes_written": sum(
            s.attrs.get("bytes", 0) for s in saves
        ),
        "resilience.checkpoint.load_s": busy("resilience.checkpoint.load"),
        "resilience.pool.cells": sum(
            s.attrs.get("cells", 0) for s in by_layer["resilience.pool.wait"]
        ),
        "resilience.pool.wait_s": self_s("resilience.pool.wait"),
        "resilience.pool.worker_busy_s": busy("resilience.pool.worker"),
        "resilience.pool.merge_busy_s": busy("resilience.pool.merge"),
        "resilience.pool.retries": sum(
            1 for s in workers if s.attrs.get("attempt", 1) > 1
        ),
        "store.get.calls": len(gets),
        "store.get.hit_ratio": _ratio(
            sum(1 for s in gets if s.attrs.get("hit")), len(gets)
        ),
        "store.get.busy_s": busy("store.get"),
        "store.put.calls": calls("store.put"),
        "store.put.busy_s": busy("store.put"),
        "serve.submit.p50_ms": _p50_ms([s.duration for s in submits]),
        "serve.queue_wait.p50_ms": _p50_ms(_queue_waits(server)),
        "serve.run_cell.p50_ms": _p50_ms(
            [s.duration for s in server if s.name == "run_cell"]
        ),
        "serve.dedup_ratio": _ratio(
            sum(1 for s in submits
                if s.attrs.get("outcome") in ("deduplicated", "cached")),
            len(submits),
        ),
        "serve.client.polls_per_job": _ratio(len(polls), jobs),
        "serve.client.retries": client_retries,
    }


def self_time_by_layer(spans: "list[Span]") -> "dict[str, float]":
    """Summed self time of each layer over ``spans``."""
    selfs = self_times(spans)
    out: "dict[str, float]" = defaultdict(float)
    for span in spans:
        out[span.layer] += selfs[(span.pid, span.sid)]
    return dict(out)
