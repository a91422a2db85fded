"""Record ``golden.json``: the per-cell digests every benchmark run checks.

Run from the repository root, only when the simulated results are meant
to change (say so in CHANGES.md)::

    python3 perfbench/record_golden.py

It computes every cell any workload can run -- the ``cpu-sweep`` band
apps at the runner's default trace length, and the whole paper matrix at
the short length -- through the in-process sweep path, single process.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.experiments.runner import SweepRunner, SweepSettings  # noqa: E402

import matrix  # noqa: E402
from digest import GOLDEN_PATH, Golden, cell_id  # noqa: E402


def record(runner: SweepRunner, cells: dict, kind: str, items) -> None:
    n = runner.settings.instructions
    for (config, workload, *extra), result in items:
        if result is None:
            raise SystemExit(f"cell {kind}/{config}/{workload} failed")
        cells[cell_id(kind, config, workload, tuple(extra), n)] = (
            Golden.entry(result)
        )


def flatten(sweep: dict):
    for config, row in sweep.items():
        for workload, result in row.items():
            yield (config, workload), result


def main() -> int:
    start = time.perf_counter()
    cells: dict = {}
    band_apps = sorted({a for band in matrix.band_apps() for a in band})
    long_runner = SweepRunner(SweepSettings(apps=band_apps))
    record(long_runner, cells, "cpu", flatten(long_runner.cpu_sweep(matrix.CPU_CONFIGS)))

    short = SweepRunner(SweepSettings(
        instructions=matrix.SHORT_INSTRUCTIONS, apps=matrix.APPS,
        kernels=matrix.KERNELS,
    ))
    record(short, cells, "cpu", flatten(short.cpu_sweep(matrix.CPU_CONFIGS)))
    record(short, cells, "gpu", flatten(short.gpu_sweep(matrix.GPU_CONFIGS)))
    points = [(c, w, *extra) for _, c, w, extra in matrix.dvfs_cells()]
    record(short, cells, "dvfs", short.dvfs_sweep(points).items())

    doc = {
        "note": "per-cell digests of simulated statistics; regenerate "
                "with python3 perfbench/record_golden.py",
        "default_instructions": long_runner.settings.instructions,
        "short_instructions": matrix.SHORT_INSTRUCTIONS,
        "cells": dict(sorted(cells.items())),
    }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"recorded {len(cells)} cells in "
          f"{time.perf_counter() - start:.1f} s to {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
