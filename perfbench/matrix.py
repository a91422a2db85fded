"""The paper's evaluation matrix and the seeded choices each workload makes.

Everything the seed decides lives here, so the golden recorder and the
workloads agree on which cells exist.  The trace seed itself stays 0:
:class:`~repro.experiments.runner.SweepRunner` exposes no seed, so the
benchmark seed only picks cells, their split, and their order.
"""

from __future__ import annotations

import random

from repro.core.configs import (
    CPU_MAIN_CONFIGS,
    CPU_SENSITIVITY_CONFIGS,
    GPU_MAIN_CONFIGS,
)
from repro.workloads.gpu_profiles import GPU_KERNELS
from repro.workloads.profiles import CPU_APPS

#: Trace length of ``resume-matrix`` and ``served-jobs``: the short size
#: users pass through ``REPRO_INSTRUCTIONS`` for quick matrices.
SHORT_INSTRUCTIONS = 2000

#: All 11 CPU configurations of Figures 7-9 and 13.
CPU_CONFIGS = list(dict.fromkeys(CPU_MAIN_CONFIGS + CPU_SENSITIVITY_CONFIGS))
GPU_CONFIGS = list(GPU_MAIN_CONFIGS)
APPS = list(CPU_APPS)
KERNELS = list(GPU_KERNELS)

#: Memory-intensity bands ``cpu-sweep`` draws one app from each of
#: (inclusive bounds).  water-nsq (0.18) falls between bands.
BANDS = [(0.75, 1.0), (0.5, 0.7), (0.2, 0.35), (0.0, 0.15)]

#: Figure 14's (frequency GHz, process variation) points; each runs on
#: BaseCMOS and AdvHet for every app.
DVFS_POINTS = [(2.0, False), (2.5, False), (1.5, False), (2.0, True)]
DVFS_CONFIGS = ["BaseCMOS", "AdvHet"]


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def band_apps() -> "list[list[str]]":
    return [
        [a for a in APPS if lo <= CPU_APPS[a].mem_intensity <= hi]
        for lo, hi in BANDS
    ]


def cpu_sweep_apps(seed: int) -> "list[str]":
    """One app per memory-intensity band."""
    rng = rng_for("cpu-sweep", seed)
    return [rng.choice(band) for band in band_apps()]


def cpu_cells() -> "list[tuple]":
    return [("cpu", c, a, ()) for c in CPU_CONFIGS for a in APPS]


def gpu_cells() -> "list[tuple]":
    return [("gpu", c, k, ()) for c in GPU_CONFIGS for k in KERNELS]


def dvfs_cells() -> "list[tuple]":
    return [
        ("dvfs", c, a, (freq, var))
        for freq, var in DVFS_POINTS for c in DVFS_CONFIGS for a in APPS
    ]


def paper_matrix() -> "list[tuple]":
    """All 154 CPU + 80 GPU + 112 DVFS cells."""
    return cpu_cells() + gpu_cells() + dvfs_cells()


def _prewarm_bytes(app: str) -> int:
    p = CPU_APPS[app]
    return p.big_mb * 2**20 + (p.warm_kb + p.hot_kb + p.stack_kb) * 1024


def interrupted_half(seed: int) -> "list[tuple]":
    """The cells ``resume-matrix`` pass 1 runs before it stops: every
    CPU and DVFS cell of a seeded half of the apps, and every GPU cell of
    a seeded half of the kernels.

    Prewarm dominates a short-trace CPU cell, so the apps are paired by
    prewarmed footprint and the seed takes one app of each pair: every
    seed interrupts after about half the work.
    """
    rng = rng_for("resume-matrix", seed)
    by_size = sorted(APPS, key=_prewarm_bytes)
    apps = {rng.choice(pair) for pair in zip(by_size[::2], by_size[1::2])}
    kernels = set(rng.sample(KERNELS, len(KERNELS) // 2))
    return [
        cell for cell in paper_matrix()
        if cell[2] in (kernels if cell[0] == "gpu" else apps)
    ]


#: The CPU and DVFS cells of ``served-jobs``: fixed, so every seed serves
#: the same work (the seed only orders it and picks the resubmissions).
#: They pair configs with apps round-robin, covering all 11 CPU configs,
#: all 14 apps, and every DVFS point on both DVFS configs.  About a fifth
#: of the jobs are these slower cells, so job_p90_ms falls well inside
#: their latencies instead of on the edge between them and GPU jobs.
SERVED_CELLS = [
    ("cpu", CPU_CONFIGS[i % len(CPU_CONFIGS)], APPS[i % len(APPS)], ())
    for i in range(16)
] + [
    ("dvfs", DVFS_CONFIGS[i % 2], APPS[3 * i % len(APPS)],
     DVFS_POINTS[i % len(DVFS_POINTS)])
    for i in range(8)
]
#: Resubmissions of earlier specs in the ``served-jobs`` sequence.
SERVED_RESUBMIT = 10


def spec_of(cell: tuple, priority: int = 10) -> dict:
    run_kind, config, workload, extra = cell
    return {"run_kind": run_kind, "config": config, "workload": workload,
            "extra": list(extra), "priority": priority}


def served_jobs(seed: int) -> "list[dict]":
    """The seeded job sequence of ``served-jobs``: every GPU main-matrix
    cell and :data:`SERVED_CELLS` in seeded order, plus resubmissions.

    Half the resubmissions repeat an earlier spec exactly, so they hit the
    idempotent dedup; the other half change only the priority, so they get
    a new idempotency key and are served from the result cache.
    """
    rng = rng_for("served-jobs", seed)
    unique = gpu_cells() + SERVED_CELLS
    rng.shuffle(unique)
    specs = [spec_of(cell) for cell in unique]
    originals = rng.sample(range(len(specs) - SERVED_RESUBMIT),
                           SERVED_RESUBMIT)
    for n, orig in enumerate(sorted(originals, reverse=True)):
        again = dict(specs[orig])
        if n % 2:
            again["priority"] = 9
        specs.insert(rng.randint(orig + 1, len(specs)), again)
    return specs


def cell_of_spec(spec: dict) -> tuple:
    return (spec["run_kind"], spec["config"], spec["workload"],
            tuple(spec["extra"]))
