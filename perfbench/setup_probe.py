"""Set-up a sweep workload pays before its first cell: a fresh interpreter
imports the simulator and builds the workload's runner.

    python3 perfbench/setup_probe.py {cpu-sweep|resume-matrix} WORKDIR SEED

``run.py`` times this whole process several times and reports the median
as ``setup_s``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv) -> int:
    workload, work, seed = argv[0], Path(argv[1]), int(argv[2])
    import matrix
    from repro.experiments.runner import SweepRunner, SweepSettings

    if workload == "cpu-sweep":
        SweepRunner(SweepSettings(apps=matrix.cpu_sweep_apps(seed)))
    else:
        import repro.resilience.pool  # noqa: F401  (imported by the sweeps)

        SweepRunner(
            SweepSettings(instructions=matrix.SHORT_INSTRUCTIONS,
                          apps=matrix.APPS, kernels=matrix.KERNELS),
            checkpoint=work / "checkpoint.json", store=work / "store",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
