"""The repository benchmark: host time of the paper's evaluation matrix.

Usage, from the repository root::

    python3 perfbench/run.py [--workload cpu-sweep|resume-matrix|served-jobs|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload starts with empty trace caches, store and checkpoint, runs
whole passes over its cell or job set until ``--seconds`` have gone (at
least one pass), checks every cell's simulated statistics against the
digests in ``golden.json``, prints each end-to-end metric by name with its
unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 1`` instead runs one untraced and one traced pass and reports
the per-layer metrics (see ``layers.py``).  All timings are host time;
simulated statistics are compared for identity and never timed.  The exit
status is 1 on any digest mismatch and 2 when the repository's sources
are missing.  See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from digest import Golden, cell_id
from layers import UNITS, layer_metrics, self_time_by_layer
from procs import become_subreaper, reap_all
from spans import SpanRecorder, install, load_spans
from stats import failure_accounting, median, percentile, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; removed when a run ends.
SCRATCH = ROOT / ".perfbench_tmp"

WORKLOADS = ("cpu-sweep", "resume-matrix", "served-jobs")
#: Pool width of ``resume-matrix``: one worker per core of a 2-vCPU host.
WORKERS = 2
#: Set-ups timed per run before the measured passes (``served-jobs``
#: adds each pass's own server launch to its samples).
SETUP_REPEATS = 5
SERVER_SETUP_REPEATS = 3
#: Closed-loop clients of ``served-jobs`` and their poll interval.
CLIENTS = 2
POLL_S = 0.025
TERMINAL = ("served", "failed", "shed", "cancelled")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    """One pass over a workload's cell or job set."""

    wall_s: float
    #: Submit-to-result host latency of every finished job or cell.
    latencies_s: "list[float]"
    #: One status per cell or job ("ok"/"served" or a failure).
    statuses: "list[str]"
    #: Digest checks, run after tracing is removed so they add no spans.
    verify: "Callable[[], None] | None" = None
    server_spans: list = field(default_factory=list)
    client_retries: int = 0


class Context:
    """What every workload shares within one run."""

    def __init__(self, seed: int, golden):
        self.seed = seed
        self.golden = golden
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        self.setups: "list[float]" = []

    def workdir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="pass-", dir=self.scratch))

    def probe_setup(self, workload: str) -> None:
        """Time a fresh interpreter importing and building the workload's
        runner, :data:`SETUP_REPEATS` times."""
        for _ in range(SETUP_REPEATS):
            work = self.workdir()
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload,
                 str(work), str(self.seed)],
                check=True, env=child_env(), cwd=work,
            )
            self.setups.append(time.perf_counter() - start)
            shutil.rmtree(work, ignore_errors=True)


class Completions:
    """Progress callback noting when each executed cell's result lands.

    A sweep submits all its cells at once, so a cell's latency runs from
    the start of the pass to its result.
    """

    def __init__(self):
        self.times: "list[float]" = []

    def __call__(self, event: dict) -> None:
        if event.get("cached") is False:
            self.times.append(time.perf_counter())


def child_env() -> dict:
    from matrix import SHORT_INSTRUCTIONS

    return {**os.environ, "PYTHONPATH": str(SRC),
            "REPRO_INSTRUCTIONS": str(SHORT_INSTRUCTIONS)}


# ---------------------------------------------------------------------
# cpu-sweep
# ---------------------------------------------------------------------

class CpuSweep:
    """In-process batched ``cpu_sweep`` over all 11 CPU configurations at
    the runner's default trace length, one app per memory band."""

    threads = 1

    def __init__(self, ctx: Context):
        import matrix

        self.ctx = ctx
        self.apps = matrix.cpu_sweep_apps(ctx.seed)
        ctx.probe_setup("cpu-sweep")

    def run_pass(self, traced: bool = False) -> Pass:
        import matrix
        from repro.experiments.runner import SweepRunner, SweepSettings
        from repro.workloads.trace_cache import reset_shared_cache

        reset_shared_cache()
        done = Completions()
        runner = SweepRunner(SweepSettings(apps=self.apps), progress=done)
        start = time.perf_counter()
        sweep = runner.cpu_sweep(matrix.CPU_CONFIGS)
        wall = time.perf_counter() - start
        n = runner.settings.instructions
        statuses = []

        def verify():
            for config, row in sweep.items():
                for app, result in row.items():
                    if result is None or ("cpu", config, app) in runner.failures:
                        statuses.append("gap")
                        continue
                    self.ctx.golden.check_result(
                        cell_id("cpu", config, app, (), n), result, "batched"
                    )
                    statuses.append("ok")

        return Pass(wall, [t - start for t in done.times], statuses, verify)


# ---------------------------------------------------------------------
# resume-matrix
# ---------------------------------------------------------------------

class ResumeMatrix:
    """The whole paper matrix at the short trace length through a
    2-worker process pool with a checkpoint and a result store: pass 1
    runs a seeded half and stops, pass 2 resumes the full matrix."""

    threads = 1

    def __init__(self, ctx: Context):
        import matrix

        self.ctx = ctx
        self.half = matrix.interrupted_half(ctx.seed)
        self.cells = matrix.paper_matrix()
        ctx.probe_setup("resume-matrix")

    @staticmethod
    def settings():
        import matrix
        from repro.experiments.runner import SweepSettings

        return SweepSettings(instructions=matrix.SHORT_INSTRUCTIONS,
                             apps=matrix.APPS, kernels=matrix.KERNELS)

    def run_pass(self, traced: bool = False) -> Pass:
        import matrix
        from repro.experiments.runner import SweepRunner
        from repro.workloads.trace_cache import reset_shared_cache

        work = self.ctx.workdir()
        checkpoint, store = work / "checkpoint.json", work / "store"
        reset_shared_cache()
        done = Completions()
        start = time.perf_counter()
        first = SweepRunner(self.settings(), checkpoint=checkpoint,
                            store=store, progress=done)
        for kind in ("cpu", "gpu", "dvfs"):
            # The public sweeps run every settings app, and narrowing the
            # settings would change the checkpoint fingerprint, so the
            # interrupted pass hands its exact half to the process pool
            # the sweeps themselves use.
            first._pool_cells(
                kind,
                [(c, w, extra) for k, c, w, extra in self.half if k == kind],
                WORKERS,
            )
        # A resumed sweep is a new process: it starts with no traces.
        reset_shared_cache()
        second = SweepRunner(self.settings(), checkpoint=checkpoint,
                             store=store, resume=True, progress=done)
        cpu = second.cpu_sweep(matrix.CPU_CONFIGS, workers=WORKERS,
                               isolation="process")
        gpu = second.gpu_sweep(matrix.GPU_CONFIGS, workers=WORKERS,
                               isolation="process")
        dvfs = second.dvfs_sweep(
            [(c, w, *extra) for _, c, w, extra in matrix.dvfs_cells()],
            workers=WORKERS, isolation="process",
        )
        wall = time.perf_counter() - start
        statuses = []
        golden = self.ctx.golden
        n = matrix.SHORT_INSTRUCTIONS
        half = set(self.half)

        def verify():
            gaps = set(first.failures) | set(second.failures)
            for kind, config, workload, extra in self.cells:
                cid = cell_id(kind, config, workload, extra, n)
                if kind == "dvfs":
                    result = dvfs.get((config, workload, *extra))
                else:
                    result = (cpu if kind == "cpu" else gpu)[config][workload]
                if result is None or (kind, config, workload, *extra) in gaps:
                    statuses.append("gap")
                    continue
                golden.check_result(cid, result, "resumed")
                if (kind, config, workload, extra) in half:
                    pooled = first.lookup_cached(kind, (config, workload, *extra))
                    golden.check_result(cid, pooled, "pooled")
                statuses.append("ok")
            shutil.rmtree(work, ignore_errors=True)

        return Pass(wall, [t - start for t in done.times], statuses, verify)


# ---------------------------------------------------------------------
# served-jobs
# ---------------------------------------------------------------------

class Server:
    """A ``repro serve --http`` subprocess started by ``serve_launcher.py``."""

    def __init__(self, work: Path, spans_out: "Path | None" = None):
        self.work = work
        self.spans_out = spans_out
        self.url = None
        self.lines: "list[str]" = []
        self._ready = threading.Event()

    def start(self) -> float:
        """Launch and wait until ready; returns the seconds that took."""
        from repro.serve.client import ServeClient

        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if self.spans_out is not None:
            cmd += ["--spans-out", str(self.spans_out)]
        cmd += ["serve", "--http", "127.0.0.1:0",
                "--store", str(self.work / "store"),
                "--checkpoint", str(self.work / "checkpoint.json"), "--json"]
        start = time.perf_counter()
        self._stdout = open(self.work / "serve.json", "w")
        self.proc = subprocess.Popen(
            cmd, stdout=self._stdout, stderr=subprocess.PIPE, text=True,
            env=child_env(), cwd=self.work,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        if not self._ready.wait(60) or self.url is None:
            self.stop()
            raise RuntimeError("server did not start:\n" + "".join(self.lines))
        probe = ServeClient(self.url)
        while probe.health(ready=True)["http_status"] != 200:
            time.sleep(0.01)
        return time.perf_counter() - start

    def _read_stderr(self) -> None:
        marker = "http listening on "
        for line in self.proc.stderr:
            self.lines.append(line)
            if marker in line and self.url is None:
                self.url = line.split(marker, 1)[1].strip()
                self._ready.set()
        self._ready.set()

    def stop(self) -> "tuple[int, dict]":
        """SIGTERM (graceful drain) and wait; returns (exit code, summary)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            self._reader.join(timeout=10)
            self._stdout.close()
        try:
            summary = json.loads((self.work / "serve.json").read_text())
        except ValueError:
            summary = {}
        return code, summary


@dataclass
class JobOutcome:
    spec: dict
    status: str
    latency_s: float
    result: "dict | None"


def one_job(client, spec: dict) -> JobOutcome:
    """Submit, then poll until terminal; a refused request is a failure."""
    from repro.serve.client import ServeError

    start = time.perf_counter()
    try:
        record = client.submit(spec)
        while record is not None and record.get("status") not in TERMINAL:
            time.sleep(POLL_S)
            record = client.poll(record["job_id"])
    except ServeError:
        record = None
    latency = time.perf_counter() - start
    if record is None:
        return JobOutcome(spec, "refused", latency, None)
    return JobOutcome(spec, record["status"], latency, record.get("result"))


class ServedJobs:
    """A closed loop of 2 clients, each waiting for its job before it
    submits the next, over a seeded job sequence."""

    threads = CLIENTS

    def __init__(self, ctx: Context):
        import matrix

        self.ctx = ctx
        self.specs = matrix.served_jobs(ctx.seed)
        for _ in range(SERVER_SETUP_REPEATS):
            work = ctx.workdir()
            server = Server(work)
            ctx.setups.append(server.start())
            server.stop()
            shutil.rmtree(work, ignore_errors=True)

    def closed_loop(self, url: str):
        from repro.serve.client import ClientConfig, ServeClient

        jobs = iter(list(enumerate(self.specs)))
        lock = threading.Lock()
        outcomes: "list[JobOutcome | None]" = [None] * len(self.specs)
        clients = [
            ServeClient(url, ClientConfig(seed=self.ctx.seed * CLIENTS + i))
            for i in range(CLIENTS)
        ]
        errors = []

        def drive(client) -> None:
            try:
                while True:
                    with lock:
                        nxt = next(jobs, None)
                    if nxt is None:
                        return
                    outcomes[nxt[0]] = one_job(client, nxt[1])
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(c,)) for c in clients]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if errors:
            raise errors[0]
        retries = sum(c.counters["retries"] for c in clients)
        return wall, outcomes, retries

    def run_pass(self, traced: bool = False) -> Pass:
        """One server lifetime; ``traced`` has the server record spans."""
        import matrix

        work = self.ctx.workdir()
        spans_out = work / "server-spans.json" if traced else None
        server = Server(work, spans_out)
        self.ctx.setups.append(server.start())
        try:
            wall, outcomes, retries = self.closed_loop(server.url)
        finally:
            code, summary = server.stop()
        server_spans = load_spans(spans_out) if spans_out else []
        n = matrix.SHORT_INSTRUCTIONS
        golden = self.ctx.golden
        statuses = [o.status for o in outcomes]

        def verify():
            from repro.store.cas import ResultStore

            if code not in (0, 3):  # 3: gaps, already counted as failed
                golden.mismatches.append(
                    f"served: server exited {code}: {summary.get('counters')}"
                )
            store = ResultStore(work / "store")
            fingerprint = ResumeMatrix.settings().fingerprint()
            stored = set()
            for o in outcomes:
                cell = matrix.cell_of_spec(o.spec)
                cid = cell_id(*cell, n)
                if o.status != "served":
                    continue
                golden.check_summary(cid, o.result, "served")
                if cell in stored:
                    continue
                stored.add(cell)
                result = store.get(fingerprint, cell[0], cell[1], cell[2],
                                   cell[3])
                if result is None:
                    golden.mismatches.append(f"served: {cid} not in store")
                else:
                    golden.check_result(cid, result, "served")
            shutil.rmtree(work, ignore_errors=True)

        return Pass(
            wall, [o.latency_s for o in outcomes if o.status == "served"],
            statuses, verify, server_spans=server_spans,
            client_retries=retries,
        )


WORKLOAD_CLASSES = {
    "cpu-sweep": CpuSweep,
    "resume-matrix": ResumeMatrix,
    "served-jobs": ServedJobs,
}


# ---------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest waited-for child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def e2e_metrics(passes: "list[Pass]", setups: "list[float]") -> dict:
    latencies = [x for p in passes for x in p.latencies_s]
    return {
        "setup_s": median(setups),
        "wall_s": median([p.wall_s for p in passes]),
        "jobs_per_s": median([len(p.statuses) / p.wall_s for p in passes]),
        "job_p50_ms": 1000.0 * percentile(latencies, 50),
        "job_p90_ms": 1000.0 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_pass(workload, ctx: Context) -> "tuple[Pass, list]":
    """One pass with every layer entry point wrapped; returns the pass
    and the spans of this process and its pool workers."""
    spans_dir = ctx.scratch / "worker-spans"
    spans_dir.mkdir()
    recorder = SpanRecorder()
    uninstall = install(recorder, str(spans_dir))
    try:
        traced = workload.run_pass(traced=True)
    finally:
        uninstall()
    collected = list(recorder.spans)
    for path in sorted(spans_dir.iterdir()):
        collected += load_spans(path)
    return traced, collected


def print_layer_shares(title: str, spans: list) -> None:
    shares = self_time_by_layer(spans)
    total = sum(shares.values())
    if not total:
        return
    print(f"self time by layer, {title} ({total:.3f} s):")
    for layer, secs in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:32s} {secs:9.3f} s  {100 * secs / total:5.1f}%")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    ctx = Context(seed, Golden.load())
    try:
        workload = WORKLOAD_CLASSES[name](ctx)
        if trace:
            plain = workload.run_pass()
            plain.verify()
            traced, spans = traced_pass(workload, ctx)
            traced.verify()
            passes = [plain, traced]
        else:
            passes = []
            deadline = time.perf_counter() + seconds
            while True:
                started = time.perf_counter()
                passes.append(workload.run_pass())
                passes[-1].verify()
                took = time.perf_counter() - started
                if time.perf_counter() + took > deadline:
                    break
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)

    golden = ctx.golden
    attempted, failed, failed_frac = failure_accounting(
        s for p in passes for s in p.statuses
    )
    latencies = [x for p in passes for x in p.latencies_s]
    print(f"workload {name}: seed {seed}, {len(passes)} pass(es), "
          f"{len(passes[0].statuses)} cells or jobs per pass, pass wall_s "
          + ", ".join(f"{p.wall_s:.3f}" for p in passes))
    if trace:
        metrics = layer_metrics(spans, traced.server_spans,
                                jobs=len(traced.statuses),
                                client_retries=traced.client_retries)
        metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
        own = [s for s in spans if s.pid == os.getpid()]
        metrics["trace.accounted_frac"] = (
            sum(self_time_by_layer(own).values())
            / (workload.threads * traced.wall_s)
        )
        print(f"wall_s untraced {plain.wall_s:.3f} s, traced "
              f"{traced.wall_s:.3f} s")
        print_layer_shares("benchmark process", own)
        print_layer_shares(
            "pool workers", [s for s in spans if s.pid != os.getpid()]
        )
        print_layer_shares("server", traced.server_spans)
        units = UNITS
    else:
        metrics = e2e_metrics(passes, ctx.setups)
        units = E2E_UNITS
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(f"failed_frac = {failed_frac:.6g} fraction "
          f"({failed} of {attempted} cells or jobs)")
    tail = tail_percentile(len(latencies))
    if tail is not None:
        print(f"job_tail: p{tail} = "
              f"{1000 * percentile(latencies, tail):.6g} ms "
              f"({len(latencies)} samples, at least 10 beyond)")
    print(f"digests: {golden.checked} checked, "
          f"{len(golden.mismatches)} mismatched")
    for line in golden.mismatches[:20]:
        print(f"  MISMATCH {line}")
    correct = not golden.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process (peak RSS stays its own)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="")
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    become_subreaper()
    try:
        return run(args)
    finally:
        reap_all()


def run(args) -> int:
    """Run the chosen workload, or every workload, from parsed arguments."""
    if args.workload == "all":
        return run_all(args)
    # The workloads define their own sizes; inherited overrides would
    # change what is measured.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC), str(HERE)]
    SCRATCH.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(SCRATCH)
    try:
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
