"""Perf-regression microbenchmarks for the cycle engines (``repro bench``).

The fast-path work (event-driven cycle skipping, unboxed hot loops, the
trace cache, shared-memory trace transport) is only worth keeping if it
*stays* fast, so this module pins it down with a small reproducible
harness:

* **engine cells** -- a memory-heavy CPU cell (``canneal``: long DRAM
  stalls, where idle-cycle skipping dominates), an ILP-heavy CPU cell
  (``blackscholes``: mostly-busy pipeline, where the unboxed loop
  dominates), and a GPU cell (``DCT``).  Each is run twice in-process --
  once on the fast path, once with the ``REPRO_NO_CYCLE_SKIP=1`` escape
  hatch -- timing *only* the engine (trace generation excluded), and the
  results are compared field-for-field so every bench run doubles as a
  cycle-exactness check;
* **trace cache** -- generation cost vs cached-fetch cost for one trace
  (the amortization the LRU buys every sweep);
* **sweep latency** -- a small multi-configuration sweep with the cache
  enabled vs disabled (the end-to-end win of sharing one trace across
  configurations).

Regression guarding compares **ratios**, never absolute instructions per
second: the fast/slow runs execute in the same process on the same
machine, so their quotient is machine-independent, while absolute
throughput moves with the CI runner's hardware.  Absolute numbers are
still reported (they are what a human reads), they just don't gate.  The
committed baseline lives at ``benchmarks/perf/BENCH_cycle_engine.json``;
``compare()`` applies a one-sided tolerance (a measured ratio may fall at
most ``tolerance`` below baseline -- being faster never fails).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

#: Default committed baseline location (relative to the repo root, which
#: is where CI and developers invoke ``repro bench``).
DEFAULT_BASELINE = os.path.join("benchmarks", "perf", "BENCH_cycle_engine.json")

#: Report schema version (bump on incompatible layout changes).
SCHEMA = 1

#: The reference cells (name -> (kind, config, workload)).
CELLS = {
    "cpu_mem": ("cpu", "BaseCMOS", "canneal"),
    "cpu_ilp": ("cpu", "BaseCMOS", "blackscholes"),
    "gpu": ("gpu", "BaseCMOS", "DCT"),
}

#: Ratio metrics gated against the baseline (dotted paths into the report).
#: ``obs.efficiency`` (obs-off time / obs-on time; 1.0 = free) guards the
#: telemetry spine's zero-overhead-when-off *and* bounded-overhead-when-on
#: claims; ``compare`` skips paths the committed baseline predates.
GUARDED = (
    "cells.cpu_mem.speedup",
    "cells.cpu_ilp.speedup",
    "cells.gpu.speedup",
    "trace_cache.amortization",
    "sweep.speedup",
    "batched_sweep.speedup",
    "obs.efficiency",
)


def _build_cu(design):
    """A fresh compute unit for ``design``, mirroring ``simulate_gpu``."""
    from repro.gpu.cu import ComputeUnit, CUConfig

    return ComputeUnit(
        CUConfig(
            freq_ghz=design.freq_ghz,
            fma_depth=design.fma_depth(),
            rf_cycles=design.rf_cycles(),
            rf_cache_enabled=design.rf_cache,
        )
    )


def _timed(build, run, repeats: int):
    """Best-of-``repeats`` engine wall time; returns (seconds, result, engine)."""
    best = None
    for _ in range(repeats):
        engine = build()
        t0 = time.perf_counter()
        result = run(engine)
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, result, engine)
    return best


def bench_cell(kind: str, config: str, workload: str,
               instructions: int, warmup: int, repeats: int = 2) -> dict:
    """Fast-vs-hatch engine timing for one reference cell.

    Times only ``engine.run(trace)`` -- the trace is generated (and cached)
    up front -- and checks the two result dataclasses are identical, so a
    speedup bought by breaking cycle exactness can never pass.
    """
    from repro.core.configs import cpu_config, gpu_config
    from repro.core.simulate import build_cpu_core
    from repro.workloads.gpu_profiles import gpu_kernel
    from repro.workloads.profiles import cpu_app
    from repro.workloads.trace_cache import cached_kernel, cached_trace

    if kind == "cpu":
        design = cpu_config(config)
        profile = cpu_app(workload)
        trace = cached_trace(profile, instructions, seed=0)
        build = lambda: build_cpu_core(design, profile)
        run = lambda core: core.run(trace, warmup=warmup)
        work = instructions
    else:
        design = gpu_config(config)
        profile = gpu_kernel(workload)
        trace = cached_kernel(profile, seed=0)
        build = lambda: _build_cu(design)
        run = lambda cu: cu.run(trace)
        work = profile.n_wavefronts * profile.stream_len

    hatch = "REPRO_NO_CYCLE_SKIP"
    t_fast, r_fast, engine = _timed(build, run, repeats)
    prior = os.environ.get(hatch)
    os.environ[hatch] = "1"
    try:
        t_slow, r_slow, _ = _timed(build, run, repeats)
    finally:
        if prior is None:
            del os.environ[hatch]
        else:
            os.environ[hatch] = prior

    return {
        "kind": kind,
        "config": config,
        "workload": workload,
        "instructions": work,
        "fast_instr_per_s": round(work / t_fast, 1),
        "slow_instr_per_s": round(work / t_slow, 1),
        "fast_s": round(t_fast, 6),
        "slow_s": round(t_slow, 6),
        "speedup": round(t_slow / t_fast, 4),
        "skipped_cycles": engine.skipped_cycles,
        "skip_events": engine.skip_events,
        "equivalent": dataclasses.asdict(r_fast) == dataclasses.asdict(r_slow),
    }


def _batch_hits(cached_trace, profile, instructions: int, count: int) -> float:
    t0 = time.perf_counter()
    for _ in range(count):
        cached_trace(profile, instructions, seed=0)
    return time.perf_counter() - t0


def bench_trace_cache(instructions: int) -> dict:
    """Generation cost vs cached-fetch cost for one CPU trace."""
    from repro.workloads.profiles import cpu_app
    from repro.workloads.trace_cache import reset_shared_cache, shared_cache

    profile = cpu_app("canneal")
    reset_shared_cache()
    from repro.workloads.trace_cache import cached_trace

    t0 = time.perf_counter()
    cached_trace(profile, instructions, seed=0)
    generate_s = time.perf_counter() - t0
    # Hits are microseconds; time a batch (best of 3) to defeat clock
    # granularity and scheduler jitter.
    hits = 32
    hit_s = min(
        _batch_hits(cached_trace, profile, instructions, hits)
        for _ in range(3)
    ) / hits
    hit_s = max(hit_s, 1e-9)
    stats = shared_cache().stats()
    return {
        "generate_ms": round(generate_s * 1e3, 3),
        "hit_ms": round(hit_s * 1e3, 6),
        "amortization": round(generate_s / hit_s, 1),
        "stats": stats,
    }


def bench_sweep_latency(instructions: int, warmup: int) -> dict:
    """A 3-configuration mini-sweep, trace cache enabled vs disabled.

    The N configurations of one figure share a single trace per workload;
    this measures what that sharing is worth end to end (simulation
    included, which is why the ratio is modest compared to the raw
    amortization factor).
    """
    from repro.core.configs import cpu_config
    from repro.core.simulate import simulate_cpu
    from repro.workloads.trace_cache import reset_shared_cache

    configs = ["BaseCMOS", "BaseHet", "AdvHet"]

    def sweep() -> float:
        t0 = time.perf_counter()
        for name in configs:
            simulate_cpu(
                cpu_config(name), "canneal",
                instructions=instructions, warmup=warmup,
            )
        return time.perf_counter() - t0

    reset_shared_cache(0)  # disabled: every cell regenerates
    cold_s = sweep()
    reset_shared_cache()
    warm_s = sweep()
    reset_shared_cache()
    return {
        "configs": len(configs),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 4),
    }


def bench_batched_sweep(repeats: int = 2) -> dict:
    """Batch=1 vs batch=N over the paper's full GPU matrix, traces cached.

    The batched engine's win is driver + lockstep-scoreboard amortization,
    so both arms run against a warm trace cache (and warm per-trace memos)
    and time only the simulate layer: batch=1 is the single-cell fast path
    with ``REPRO_NO_BATCH=1`` (the pre-batching engine), batch=N is one
    ``simulate_gpu_batch`` call over all cells.  Per-cell results are
    compared field-for-field, so the speedup cannot be bought by breaking
    batch exactness.
    """
    from repro.core.configs import GPU_MAIN_CONFIGS, gpu_config
    from repro.core.simulate import simulate_gpu, simulate_gpu_batch
    from repro.workloads.gpu_profiles import GPU_KERNELS

    cells = [(gpu_config(c), k) for c in GPU_MAIN_CONFIGS for k in GPU_KERNELS]
    warm = simulate_gpu_batch(cells)  # warm traces + timing-free memos
    work = sum(out.result.gpu.cu_result.instructions for out in warm)

    hatch = "REPRO_NO_BATCH"
    t_single = r_single = None
    t_batch = r_batch = None
    # Interleave the arms (as bench_obs_overhead does) so machine-state
    # drift hits both equally; best-of-N per arm cancels transients out
    # of the guarded ratio.  Three rounds minimum: the single arm walks
    # 80 python-level cells, so one noisy round skews it far more than
    # it skews the single fused batch call.
    for _ in range(max(repeats, 3)):
        prior = os.environ.get(hatch)
        os.environ[hatch] = "1"
        try:
            t0 = time.perf_counter()
            outs = [simulate_gpu(d, k) for d, k in cells]
            dt = time.perf_counter() - t0
        finally:
            if prior is None:
                del os.environ[hatch]
            else:
                os.environ[hatch] = prior
        if t_single is None or dt < t_single:
            t_single, r_single = dt, outs

        t0 = time.perf_counter()
        outs = simulate_gpu_batch(cells)
        dt = time.perf_counter() - t0
        if t_batch is None or dt < t_batch:
            t_batch, r_batch = dt, outs

    equivalent = all(
        out.error is None
        and dataclasses.asdict(out.result) == dataclasses.asdict(single)
        for out, single in zip(r_batch, r_single)
    )
    return {
        "cells": len(cells),
        "instructions": work,
        "single_instr_per_s": round(work / t_single, 1),
        "batch_instr_per_s": round(work / t_batch, 1),
        "single_s": round(t_single, 4),
        "batch_s": round(t_batch, 4),
        "speedup": round(t_single / t_batch, 4),
        "vectorized_cells": sum(int(out.vectorized) for out in r_batch),
        "equivalent": equivalent,
    }


def bench_obs_overhead(instructions: int, warmup: int,
                       repeats: int = 2) -> dict:
    """Engine timing with observability off vs on (the ≤5% band).

    Runs the ILP-heavy CPU cell (the worst case for instrumentation --
    no long stalls to hide behind) with the global obs flag off, then
    with it on (metrics registry live, event log active; no attached
    PipelineTracer, which is a separate opt-in with its own cost).  The
    guarded ``efficiency`` ratio is off-time / on-time: 1.0 means the
    spine is free, and the documented budget keeps it above 0.95.
    """
    from repro import obs
    from repro.core.configs import cpu_config
    from repro.core.simulate import build_cpu_core
    from repro.obs.metrics import get_registry
    from repro.workloads.profiles import cpu_app
    from repro.workloads.trace_cache import cached_trace

    design = cpu_config("BaseCMOS")
    profile = cpu_app("blackscholes")
    trace = cached_trace(profile, instructions, seed=0)
    build = lambda: build_cpu_core(design, profile)
    run = lambda core: core.run(trace, warmup=warmup)

    was_enabled = obs.enabled()
    t_off = t_on = None
    r_off = r_on = None
    try:
        # Interleave off/on samples so machine-state drift (turbo,
        # thermal, page cache) hits both sides equally; best-of-N per
        # side then cancels transient noise out of the ratio.
        for _ in range(max(repeats, 2)):
            obs.set_enabled(False)
            dt, result, _ = _timed(build, run, 1)
            if t_off is None or dt < t_off:
                t_off, r_off = dt, result
            obs.set_enabled(True)
            dt, result, _ = _timed(build, run, 1)
            if t_on is None or dt < t_on:
                t_on, r_on = dt, result
        get_registry().unmount("bench")
    finally:
        obs.set_enabled(was_enabled)
    return {
        "instructions": instructions,
        "off_s": round(t_off, 6),
        "on_s": round(t_on, 6),
        "overhead_ratio": round(t_on / t_off, 4),
        "efficiency": round(t_off / t_on, 4),
        "equivalent": dataclasses.asdict(r_off) == dataclasses.asdict(r_on),
    }


def run_bench(instructions: int = 30000, warmup: int = 5000,
              repeats: int = 2) -> dict:
    """The full benchmark report (the ``repro bench`` payload)."""
    report = {
        "schema": SCHEMA,
        "instructions": instructions,
        "warmup": warmup,
        "repeats": repeats,
        "cells": {
            name: bench_cell(kind, config, workload, instructions, warmup,
                             repeats=repeats)
            for name, (kind, config, workload) in CELLS.items()
        },
        "trace_cache": bench_trace_cache(instructions),
        "sweep": bench_sweep_latency(instructions, warmup),
        "batched_sweep": bench_batched_sweep(repeats=repeats),
        "obs": bench_obs_overhead(instructions, warmup, repeats=repeats),
    }
    return report


def _lookup(report: dict, path: str):
    node = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def compare(report: dict, baseline: dict, tolerance: float = 0.25) -> "list[str]":
    """Regression messages for ``report`` against ``baseline`` (empty = ok).

    Equivalence failures always regress; guarded ratios regress when the
    measured value falls more than ``tolerance`` below the baseline
    (one-sided: faster-than-baseline never fails).
    """
    problems = []
    for name, cell in report.get("cells", {}).items():
        if not cell.get("equivalent", False):
            problems.append(
                f"cells.{name}: fast-path result differs from escape-hatch "
                f"result (cycle exactness broken)"
            )
    ob = report.get("obs")
    if ob is not None and not ob.get("equivalent", True):
        problems.append(
            "obs: simulation result differs with observability enabled "
            "(instrumentation must never perturb the simulation)"
        )
    bs = report.get("batched_sweep")
    if bs is not None and not bs.get("equivalent", True):
        problems.append(
            "batched_sweep: batched results differ from single-cell "
            "results (batch exactness broken)"
        )
    for path in GUARDED:
        measured = _lookup(report, path)
        reference = _lookup(baseline, path)
        if measured is None or reference is None:
            continue
        floor = reference * (1.0 - tolerance)
        if measured < floor:
            problems.append(
                f"{path}: {measured:.3f} fell below {floor:.3f} "
                f"(baseline {reference:.3f}, tolerance {tolerance:.0%})"
            )
    return problems


def format_report(report: dict, problems: "list[str] | None" = None) -> str:
    """Human-readable summary of a bench report."""
    lines = ["cycle-engine benchmarks "
             f"(instructions={report['instructions']}, "
             f"warmup={report['warmup']}, best of {report['repeats']}):"]
    for name, cell in report["cells"].items():
        lines.append(
            f"  {name:<8} {cell['config']}/{cell['workload']:<14} "
            f"{cell['fast_instr_per_s']:>12,.0f} instr/s fast   "
            f"{cell['slow_instr_per_s']:>12,.0f} slow   "
            f"{cell['speedup']:.2f}x   "
            f"skipped={cell['skipped_cycles']:,} "
            f"({cell['skip_events']:,} events)   "
            f"{'exact' if cell['equivalent'] else 'MISMATCH'}"
        )
    tc = report["trace_cache"]
    lines.append(
        f"  trace cache: generate {tc['generate_ms']:.1f} ms vs hit "
        f"{tc['hit_ms']:.3f} ms ({tc['amortization']:,.0f}x amortized)"
    )
    sw = report["sweep"]
    lines.append(
        f"  {sw['configs']}-config sweep: cold {sw['cold_s']:.2f} s vs warm "
        f"{sw['warm_s']:.2f} s ({sw['speedup']:.2f}x)"
    )
    bs = report.get("batched_sweep")
    if bs is not None:
        lines.append(
            f"  batched sweep: {bs['cells']} cells  "
            f"{bs['single_instr_per_s']:>12,.0f} instr/s batch=1   "
            f"{bs['batch_instr_per_s']:>12,.0f} batch=N   "
            f"{bs['speedup']:.2f}x   "
            f"vectorized={bs['vectorized_cells']}   "
            f"{'exact' if bs['equivalent'] else 'MISMATCH'}"
        )
    ob = report.get("obs")
    if ob is not None:
        lines.append(
            f"  obs overhead: off {ob['off_s']:.3f} s vs on "
            f"{ob['on_s']:.3f} s ({(ob['overhead_ratio'] - 1) * 100:+.1f}%, "
            f"{'exact' if ob['equivalent'] else 'MISMATCH'})"
        )
    if problems:
        lines.append("regressions:")
        lines.extend(f"  FAIL {p}" for p in problems)
    elif problems is not None:
        lines.append("no regressions against baseline")
    return "\n".join(lines)


def load_baseline(path: str) -> "dict | None":
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def save_baseline(report: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
