"""Result codecs and the per-cell entry payload.

One format serves every durable copy of a cell result: the
content-addressed store entries (:mod:`repro.store.cas`), the sweep
checkpoint journal (:mod:`repro.resilience.checkpoint`), and the fabric
wire messages.  Every dataclass in the ``CpuRunResult`` /
``GpuRunResult`` trees is plain scalars, dicts, and lists, so
``dataclasses.asdict`` round-trips through the explicit decoders below
with exact float equality.
"""

from __future__ import annotations

import dataclasses

from repro.core.simulate import CpuRunResult, GpuRunResult
from repro.cpu.core import ActivityCounts, CoreResult
from repro.cpu.multicore import MulticoreResult
from repro.gpu.cu import CUResult
from repro.gpu.gpu import GpuResult
from repro.power.model import EnergyBreakdown

#: Bump when the entry payload layout changes; mismatches read as misses.
ENTRY_SCHEMA = 1


def encode_cpu_result(result: CpuRunResult) -> dict:
    return dataclasses.asdict(result)


def decode_cpu_result(data: dict) -> CpuRunResult:
    mc = data["multicore"]
    per_core = [
        CoreResult(**{**core, "activity": ActivityCounts(**core["activity"])})
        for core in mc["per_core"]
    ]
    return CpuRunResult(
        config=data["config"],
        app=data["app"],
        time_s=data["time_s"],
        energy=EnergyBreakdown(**data["energy"]),
        multicore=MulticoreResult(**{**mc, "per_core": per_core}),
    )


def encode_gpu_result(result: GpuRunResult) -> dict:
    return dataclasses.asdict(result)


def decode_gpu_result(data: dict) -> GpuRunResult:
    gpu = data["gpu"]
    return GpuRunResult(
        config=data["config"],
        kernel=data["kernel"],
        time_s=data["time_s"],
        energy=EnergyBreakdown(**data["energy"]),
        gpu=GpuResult(**{**gpu, "cu_result": CUResult(**gpu["cu_result"])}),
    )


def current_sim_version() -> str:
    from repro import __version__

    return __version__


#: ``run_kind`` -> (encode, decode).
CODECS = {
    "cpu": (encode_cpu_result, decode_cpu_result),
    "gpu": (encode_gpu_result, decode_gpu_result),
    "dvfs": (encode_cpu_result, decode_cpu_result),
}


def entry_payload(fingerprint: str, run_kind: str, config: str,
                  workload: str, extra, result, *, sim_version: str,
                  seed: int = 0) -> dict:
    """The durable payload of one cell result: the encoded result plus
    the provenance (``cell``, ``sim_version``) that addresses it."""
    return {
        "schema": ENTRY_SCHEMA,
        "run_kind": run_kind,
        "sim_version": sim_version,
        "cell": {
            "fingerprint": fingerprint,
            "config": config,
            "workload": workload,
            "extra": list(extra),
            "seed": seed,
        },
        "result": CODECS[run_kind][0](result),
    }
