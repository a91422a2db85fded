"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from digest import Golden, cell_id, result_digest  # noqa: E402
from spans import Span, self_times  # noqa: E402
from stats import failure_accounting, percentile, tail_percentile  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (10, None),     # nothing has ten samples beyond it
    (11, 9),
    (44, 77),       # 44 * 0.23 = 10.12 beyond p77; p78 leaves 9.68
    (100, 90),      # exactly ten beyond p90
    (108, 90),
    (216, 95),
    (1000, 99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10
        assert n * (100 - expected - 1) / 100 < 10


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 90) == pytest.approx(90.1)
    assert percentile([7.0], 90) == 7.0


def _span(sid, start, end, parent=None, pid=1):
    return Span(sid=sid, name=f"s{sid}", layer="l", start=start, end=end,
                parent=parent, pid=pid)


def test_self_time_subtracts_nested_and_back_to_back_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),        # back-to-back children ...
        _span(2, 3.0, 6.0, parent=0),
        _span(3, 4.0, 5.0, parent=2),        # ... one with its own child
        _span(4, 8.0, 12.0, parent=0),       # overruns its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs[(1, 0)] == pytest.approx(10.0 - 2.0 - 3.0 - 2.0)
    assert selfs[(1, 1)] == pytest.approx(2.0)
    assert selfs[(1, 2)] == pytest.approx(3.0 - 1.0)
    assert selfs[(1, 3)] == pytest.approx(1.0)
    # Self times of one tree partition its root's interval, plus the 2 s
    # the last child runs past it.
    assert sum(selfs.values()) == pytest.approx(10.0 + 2.0)


def test_self_time_counts_overlapping_children_once_and_keeps_pids_apart():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 2.0, 6.0, parent=0),
        _span(2, 4.0, 8.0, parent=0),        # overlaps sibling 1
        _span(0, 0.0, 5.0, pid=2),           # same sid, other process
    ]
    selfs = self_times(spans)
    assert selfs[(1, 0)] == pytest.approx(10.0 - 6.0)
    assert selfs[(2, 0)] == pytest.approx(5.0)


def test_failed_frac_counts_shed_refused_and_gaps():
    statuses = ["served"] * 6 + ["shed", "refused", "failed", "gap"]
    assert failure_accounting(statuses) == (10, 4, 0.4)
    assert failure_accounting(["ok", "served"]) == (2, 0, 0.0)
    assert failure_accounting(["cancelled"]) == (1, 1, 1.0)


def test_single_field_change_in_one_cell_fails_the_digest_gate():
    from repro.core.configs import gpu_config
    from repro.core.simulate import simulate_gpu

    result = simulate_gpu(gpu_config("BaseCMOS"), "Reduction")
    cid = cell_id("gpu", "BaseCMOS", "Reduction")
    golden = Golden({cid: Golden.entry(result)})
    assert golden.check_result(cid, result, "test")

    cu = dataclasses.replace(result.gpu.cu_result,
                             rf_writes=result.gpu.cu_result.rf_writes + 1)
    changed = dataclasses.replace(
        result, gpu=dataclasses.replace(result.gpu, cu_result=cu)
    )
    assert result_digest(changed) != result_digest(result)
    assert not golden.check_result(cid, changed, "test")
    assert golden.mismatches == [f"test: {cid} digest differs"]


REAP_SCRIPT = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
from multiprocessing import resource_tracker, shared_memory
from procs import become_subreaper, reap_all

become_subreaper()
shm = shared_memory.SharedMemory(create=True, size=16)  # starts the tracker
shm.close()
shm.unlink()
tracker = resource_tracker._resource_tracker._pid
middle = os.fork()
if middle == 0:  # leaves an orphan that outlives it
    orphan = os.fork()
    if orphan == 0:
        time.sleep(0.3)
        os._exit(0)
    print(orphan, flush=True)
    os._exit(0)
os.waitpid(middle, 0)
reap_all()
print(tracker, flush=True)
"""


def test_reap_all_leaves_no_tracker_or_orphan_behind():
    import os
    import subprocess

    out = subprocess.run(
        [sys.executable, "-c", REAP_SCRIPT, str(HERE)],
        check=True, capture_output=True, text=True, timeout=60,
    ).stdout.split()
    assert len(out) == 2
    for pid in map(int, out):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
