"""Admission-controlled simulation job service.

The sweep stack (PRs 1-3) made one *batch* invocation survive bad cells:
guards, checkpoints, fault injection, process isolation.  This package
adds the missing shape for a long-lived fleet: a service that accepts a
*stream* of simulation jobs and stays predictable under overload,
repeated faults, and termination:

* :mod:`repro.serve.queue` -- a bounded priority queue with per-job
  deadlines and structured load shedding: a job that cannot be admitted
  (queue full, past its deadline, duplicate id, service draining) is
  rejected with a machine-readable reason, never dropped silently;
* :mod:`repro.serve.breaker` -- per-(run_kind, config) circuit breakers
  (closed / open / half-open with a single probe) that stop hammering a
  configuration whose runs keep crashing or timing out; rejected jobs
  are shed onto the existing failure taxonomy (kind ``shed``);
* :mod:`repro.serve.service` -- :class:`~repro.serve.service.SimService`:
  submit / poll / cancel, batch intake from a JSONL job file (with a
  ``follow`` tail mode -- no network required), degraded-mode fallback
  from process to thread isolation when worker spawn keeps failing, and
  graceful shutdown: SIGTERM/SIGINT stops admissions, drains in-flight
  workers within a deadline, and reports unfinished jobs as gaps
  journaled to the checkpoint;
* :mod:`repro.serve.health` -- liveness/readiness snapshots (queue
  depth, breaker states, shed/served counters) written atomically to a
  health file and dumped by ``repro serve --health``;
* :mod:`repro.serve.http` -- an overload-hardened asyncio HTTP/1.1
  front door (``POST /v1/jobs`` with idempotency keys, poll/cancel,
  healthz/readyz/metrics) that maps every admission outcome to a
  structured 429/503 with ``Retry-After``, bounds header/body sizes and
  read deadlines, rate-limits per client
  (:mod:`repro.serve.ratelimit`), and drains gracefully on SIGTERM;
* :mod:`repro.serve.client` -- the matching retrying client: seeded
  jittered backoff honoring ``Retry-After``, idempotency-key
  resubmission, and a client-side circuit breaker.

Everything executes through the existing
:class:`~repro.experiments.runner.SweepRunner`, so served jobs share the
result caches, the checkpoint journal (each executed cell appended as
it completes), telemetry counters, and failure taxonomy with batch
sweeps -- a job service restart resumes from the same checkpoint a
sweep would.
"""

from repro.serve.breaker import (
    BreakerOpen,
    BreakerPolicy,
    BreakerRegistry,
    CircuitBreaker,
)
from repro.serve.client import (
    ClientBreakerOpen,
    ClientConfig,
    ServeClient,
    ServeError,
    ServeRejected,
    ServeUnavailable,
)
from repro.serve.health import HealthSnapshot, read_health, write_health
from repro.serve.http import (
    DEFAULT_RETRY_AFTER,
    SHED_STATUS,
    HttpConfig,
    HttpFrontDoor,
    serve_front_door,
)
from repro.serve.queue import (
    SHED_REASONS,
    Admission,
    Job,
    JobQueue,
)
from repro.serve.ratelimit import RateLimiter, TokenBucket
from repro.serve.service import JobRecord, ServiceConfig, SimService

__all__ = [
    "Admission",
    "BreakerOpen",
    "BreakerPolicy",
    "BreakerRegistry",
    "CircuitBreaker",
    "ClientBreakerOpen",
    "ClientConfig",
    "DEFAULT_RETRY_AFTER",
    "HealthSnapshot",
    "HttpConfig",
    "HttpFrontDoor",
    "Job",
    "JobQueue",
    "JobRecord",
    "RateLimiter",
    "SHED_REASONS",
    "SHED_STATUS",
    "ServeClient",
    "ServeError",
    "ServeRejected",
    "ServeUnavailable",
    "ServiceConfig",
    "SimService",
    "TokenBucket",
    "read_health",
    "serve_front_door",
    "write_health",
]
