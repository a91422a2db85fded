"""In-memory span recorder for the benchmark's traced run.

The traced run times the calls into each layer's public entry point from
the benchmark's own files: :func:`install` replaces every entry point
(and every module binding that imported it by name) with a wrapper that
records a span, and nothing under ``src/`` changes.  Spans stay in memory;
a forked pool worker and the served-jobs server each dump theirs to a
JSON file that the benchmark process reads back.

A span's *self time* is its duration minus the part of it that its child
spans cover (:func:`self_times`), so the self times of one thread's spans
partition the time under its root spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import sys
import threading
import time


@dataclasses.dataclass
class Span:
    """One timed call into a layer entry point."""

    sid: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: "int | None" = None
    pid: int = 0
    tid: int = 0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Forget every span and every open-span stack.

        A forked worker calls this first: it inherits the parent's spans
        and the forking thread's stack of open spans, neither of which is
        its own work.
        """
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        self.spans: "list[Span]" = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer: str, on_exit=None):
        """``fn`` wrapped to record a span per call.

        ``on_exit(span, args, kwargs, result)`` may add attributes once a
        call returns; a raising call keeps its span without them.
        """
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            with recorder._lock:
                sid = recorder._next
                recorder._next += 1
            span = Span(
                sid=sid, name=name, layer=layer, start=time.perf_counter(),
                parent=stack[-1] if stack else None, pid=os.getpid(),
                tid=threading.get_ident(),
            )
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with recorder._lock:
                    recorder.spans.append(span)
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path) -> None:
        with self._lock:
            docs = [dataclasses.asdict(span) for span in self.spans]
        with open(path, "w") as handle:
            json.dump(docs, handle)


def load_spans(path) -> "list[Span]":
    with open(path) as handle:
        return [Span(**doc) for doc in json.load(handle)]


def _union_length(intervals: "list[tuple[float, float]]") -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: "list[Span]") -> "dict[tuple[int, int], float]":
    """Self time of every span, keyed by ``(pid, sid)``.

    Child intervals are clipped to their parent's interval and merged
    before they are subtracted, so overlapping children count once.
    """
    children: "dict[tuple[int, int], list]" = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.pid, span.parent), []).append(span)
    out = {}
    for span in spans:
        kids = children.get((span.pid, span.sid), ())
        covered = _union_length([
            (max(k.start, span.start), min(k.end, span.end))
            for k in kids if k.end > span.start and k.start < span.end
        ])
        out[(span.pid, span.sid)] = span.duration - covered
    return out


# ---------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------

def _geometry(cache) -> tuple:
    """A hashable description of one cache's organisation."""
    if hasattr(cache, "fast"):
        return ("asym", _geometry(cache.fast), _geometry(cache.slow))
    return (cache.size_bytes, cache.assoc, cache.line_bytes)


def _prewarm_attrs(span, args, kwargs, _result) -> None:
    hierarchy, base, size = args[0], args[1], args[2]
    into_l1 = kwargs.get("into_l1", args[3] if len(args) > 3 else False)
    geometry = tuple(
        _geometry(c) for c in (hierarchy.il1, hierarchy.dl1, hierarchy.l2,
                               hierarchy.l3)
    )
    span.attrs["key"] = repr((geometry, base, size, bool(into_l1)))


def _engine_attrs(span, args, _kwargs, _result) -> None:
    span.attrs["instr"] = len(args[1])


def _gpu_batch_attrs(span, args, _kwargs, result) -> None:
    span.attrs["cells"] = len(args[0])
    span.attrs["vectorized"] = sum(bool(o.vectorized) for o in result)


def _pool_attrs(span, args, _kwargs, _result) -> None:
    span.attrs["cells"] = len(args[1])


def _checkpoint_save_attrs(span, args, _kwargs, _result) -> None:
    span.attrs["bytes"] = os.path.getsize(args[0].path)


def _store_get_attrs(span, _args, _kwargs, result) -> None:
    span.attrs["hit"] = result is not None


def _submit_attrs(span, args, _kwargs, result) -> None:
    spec = args[1]
    span.attrs["outcome"] = result[2]
    if isinstance(spec, dict):
        span.attrs["cell"] = [
            str(spec.get("run_kind", spec.get("kind", "cpu"))),
            spec.get("config"), spec.get("workload"),
            list(spec.get("extra", ())),
        ]


def _run_cell_attrs(span, args, kwargs, _result) -> None:
    extra = kwargs.get("extra", args[4] if len(args) > 4 else ())
    span.attrs["cell"] = [args[1], args[2], args[3], list(extra)]


#: (module, attribute, span name, layer, on_exit) of every module-level
#: entry point.  Bindings other modules imported by name are found and
#: replaced by identity, so ``from X import f`` callers are traced too.
FUNCTIONS = [
    ("repro.workloads.generator", "generate_trace", "generate_trace",
     "workloads.trace_gen", None),
    ("repro.workloads.gpu_generator", "generate_kernel", "generate_kernel",
     "workloads.trace_gen", None),
    ("repro.workloads.trace_cache", "cached_trace", "cached_trace",
     "workloads.trace_cache", None),
    ("repro.workloads.trace_cache", "cached_kernel", "cached_kernel",
     "workloads.trace_cache", None),
    ("repro.cpu.soa", "decode_trace", "decode_trace", "cpu.decode", None),
    ("repro.gpu.gpu", "run_gpu", "run_gpu", "gpu.scalar", None),
    ("repro.gpu.gpu", "run_gpu_batch", "run_gpu_batch", "gpu.batch",
     _gpu_batch_attrs),
    ("repro.power.model", "cpu_energy", "cpu_energy", "power", None),
    ("repro.power.model", "gpu_energy", "gpu_energy", "power", None),
    ("repro.core.simulate", "simulate_cpu", "simulate_cpu", "core", None),
    ("repro.core.simulate", "simulate_cpu_batch", "simulate_cpu_batch",
     "core", None),
    ("repro.core.simulate", "simulate_gpu", "simulate_gpu", "core", None),
    ("repro.core.simulate", "simulate_gpu_batch", "simulate_gpu_batch",
     "core", None),
    ("repro.resilience.selfcheck", "validate_result", "validate_result",
     "resilience.selfcheck", None),
]

#: (module, class, method, span name, layer, on_exit) of every method
#: entry point; patched on the class so every instance is traced.
METHODS = [
    ("repro.cpu.core", "OutOfOrderCore", "run", "OutOfOrderCore.run",
     "cpu.engine", _engine_attrs),
    ("repro.core.hetcore", "CpuDesign", "build_hierarchy",
     "build_hierarchy", "mem.build", None),
    ("repro.mem.hierarchy", "MemoryHierarchy", "prewarm_region",
     "prewarm_region", "mem.prewarm", _prewarm_attrs),
    ("repro.core.dvfs", "HetCoreDvfs", "simulate_at", "simulate_at",
     "core", None),
    ("repro.experiments.runner", "SweepRunner", "cpu_sweep", "cpu_sweep",
     "experiments.runner", None),
    ("repro.experiments.runner", "SweepRunner", "gpu_sweep", "gpu_sweep",
     "experiments.runner", None),
    ("repro.experiments.runner", "SweepRunner", "dvfs_sweep", "dvfs_sweep",
     "experiments.runner", None),
    ("repro.experiments.runner", "SweepRunner", "run_cell", "run_cell",
     "experiments.runner", _run_cell_attrs),
    ("repro.experiments.runner", "SweepRunner", "merge_pool_outcome",
     "merge_pool_outcome", "resilience.pool.merge", None),
    ("repro.resilience.checkpoint", "SweepCheckpoint", "save",
     "SweepCheckpoint.save", "resilience.checkpoint.save",
     _checkpoint_save_attrs),
    ("repro.resilience.checkpoint", "SweepCheckpoint", "load",
     "SweepCheckpoint.load", "resilience.checkpoint.load", None),
    ("repro.resilience.pool", "SweepPool", "run", "SweepPool.run",
     "resilience.pool.wait", _pool_attrs),
    ("repro.store.cas", "ResultStore", "get", "ResultStore.get",
     "store.get", _store_get_attrs),
    ("repro.store.cas", "ResultStore", "put", "ResultStore.put",
     "store.put", None),
    ("repro.serve.service", "SimService", "submit_idempotent",
     "submit_idempotent", "serve.submit", _submit_attrs),
    ("repro.serve.client", "ServeClient", "submit", "ServeClient.submit",
     "serve.client", None),
    ("repro.serve.client", "ServeClient", "poll", "ServeClient.poll",
     "serve.client", None),
]

#: Modules imported before the binding scan, so every by-name import of
#: an entry point already exists when :func:`install` looks for it.
_PRELOAD = [
    "repro.cli", "repro.core", "repro.core.dvfs", "repro.cpu",
    "repro.gpu", "repro.workloads", "repro.resilience.pool",
    "repro.resilience.worker", "repro.resilience.shm",
    "repro.experiments.runner", "repro.store.cas", "repro.serve.service",
    "repro.serve.client", "repro.serve.http",
]


def _rebind(original, replacement) -> int:
    """Replace every ``repro.*`` module binding of ``original``."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def install(recorder: SpanRecorder, spans_dir: "str | None" = None):
    """Wrap every entry point; returns a callable that undoes it.

    With ``spans_dir`` set, each forked pool worker dumps its own spans
    there as ``worker-<pid>-<ns>.json`` when its attempt ends.
    """
    for name in _PRELOAD:
        importlib.import_module(name)
    undo = []
    for mod_name, attr, span_name, layer, on_exit in FUNCTIONS:
        original = getattr(importlib.import_module(mod_name), attr)
        wrapped = recorder.wrap(original, span_name, layer, on_exit)
        _rebind(original, wrapped)
        undo.append(lambda o=original, w=wrapped: _rebind(w, o))
    for mod_name, cls_name, attr, span_name, layer, on_exit in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, recorder.wrap(original, span_name, layer, on_exit))
        undo.append(lambda c=cls, a=attr, o=original: setattr(c, a, o))

    worker_mod = importlib.import_module("repro.resilience.worker")
    original_main = worker_mod.worker_main
    traced_main = recorder.wrap(
        original_main, "worker_main", "resilience.pool.worker",
        lambda span, args, _kw, _r: span.attrs.update(
            attempt=args[1].get("attempt", 1),
            cells=len(args[1].get("cells") or [None]),
        ),
    )
    def worker_main(conn, spec):
        recorder.reset()
        try:
            traced_main(conn, spec)
        finally:
            if spans_dir is not None:
                recorder.dump(os.path.join(
                    spans_dir, f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
                ))

    _rebind(original_main, worker_main)
    undo.append(lambda: _rebind(worker_main, original_main))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall
