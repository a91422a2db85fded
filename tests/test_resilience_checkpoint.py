"""Checkpoint journal round-trips, invalidation, and fail-soft loading."""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import SweepRunner, SweepSettings
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    SweepCheckpoint,
)
from repro.resilience import diskio, faults
from repro.store.codecs import (
    ENTRY_SCHEMA,
    decode_cpu_result,
    decode_gpu_result,
    encode_cpu_result,
    encode_gpu_result,
)

SMALL = dict(instructions=2_000, apps=["lu"], kernels=["DCT"])


def make_runner(path, **kwargs) -> SweepRunner:
    return SweepRunner(SweepSettings(**SMALL), checkpoint=path, **kwargs)


@pytest.fixture
def ck_path(tmp_path):
    return tmp_path / "sweep.ckpt.json"


def test_codec_round_trip_is_lossless(ck_path):
    runner = make_runner(None)
    cpu = runner.cpu_run("AdvHet", "lu")
    gpu = runner.gpu_run("AdvHet", "DCT")
    assert decode_cpu_result(json.loads(json.dumps(encode_cpu_result(cpu)))) == cpu
    assert decode_gpu_result(json.loads(json.dumps(encode_gpu_result(gpu)))) == gpu


def test_checkpoint_round_trip_serves_cache_hits(ck_path):
    first = make_runner(ck_path)
    cpu = first.cpu_run("BaseCMOS", "lu")
    gpu = first.gpu_run("BaseCMOS", "DCT")
    dvfs = first.dvfs_run("BaseCMOS", "lu", 2.0, False)
    assert ck_path.exists()

    resumed = make_runner(ck_path, resume=True)
    assert resumed.telemetry.checkpoint_counts() == {
        "load": 1, "entries_loaded": 3,
    }
    assert resumed.cpu_run("BaseCMOS", "lu") == cpu
    assert resumed.gpu_run("BaseCMOS", "DCT") == gpu
    assert resumed.dvfs_run("BaseCMOS", "lu", 2.0, False) == dvfs
    counts = resumed.telemetry.cache_counts()
    for kind in ("cpu", "gpu", "dvfs"):
        assert counts[kind] == (1, 0), f"{kind} should be all hits"


def test_resume_requires_checkpoint():
    with pytest.raises(ValueError, match="resume=True requires a checkpoint"):
        SweepRunner(SweepSettings(**SMALL), resume=True)


def test_missing_and_corrupted_files_load_as_misses(ck_path):
    fingerprint = SweepSettings(**SMALL).fingerprint()
    assert SweepCheckpoint(ck_path).load(fingerprint) is None  # missing

    ck_path.write_text("this is not json{{{")
    with pytest.warns(RuntimeWarning, match="no readable record"):
        assert SweepCheckpoint(ck_path).load(fingerprint) is None

    with pytest.warns(RuntimeWarning, match="no readable record"):
        runner = make_runner(ck_path, resume=True)  # must not crash
    assert runner.telemetry.checkpoint_counts() == {"invalid": 1}
    assert runner.cpu_run("BaseCMOS", "lu") is not None  # re-executes fine


def test_truncated_file_loads_as_miss(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    text = ck_path.read_text()
    ck_path.write_text(text[: len(text) // 2])
    with pytest.warns(RuntimeWarning, match="torn write"):
        assert (
            SweepCheckpoint(ck_path).load(SweepSettings(**SMALL).fingerprint())
            is None
        )


def test_zero_byte_checkpoint_warns_and_loads_as_missing(ck_path):
    ck_path.write_text("")
    with pytest.warns(RuntimeWarning, match="empty"):
        assert (
            SweepCheckpoint(ck_path).load(SweepSettings(**SMALL).fingerprint())
            is None
        )
    # And the runner path: resume over the empty file re-executes fine.
    with pytest.warns(RuntimeWarning, match="empty"):
        runner = make_runner(ck_path, resume=True)
    assert runner.telemetry.checkpoint_counts() == {"invalid": 1}
    assert runner.cpu_run("BaseCMOS", "lu") is not None


def test_tampered_payload_fails_integrity_check(ck_path):
    runner = make_runner(ck_path)
    runner.cpu_run("BaseCMOS", "lu")
    runner.cpu_run("AdvHet", "lu")
    first, second = ck_path.read_text().splitlines()
    doc = json.loads(first)
    doc["payload"]["result"]["time_s"] = 123.456  # bit-flip the measurement
    ck_path.write_text(json.dumps(doc) + "\n" + second + "\n")
    with pytest.warns(RuntimeWarning, match="1 damaged record"):
        data = SweepCheckpoint(ck_path).load(SweepSettings(**SMALL).fingerprint())
    assert list(data.cpu) == [("AdvHet", "lu")]  # only the intact record


def test_version_mismatch_invalidates(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    doc = json.loads(ck_path.read_text())
    doc["payload"]["schema"] = ENTRY_SCHEMA + 1
    doc["checksum"] = diskio.record_checksum(doc["payload"])  # re-sign
    ck_path.write_text(json.dumps(doc) + "\n")
    assert SweepCheckpoint(ck_path).load(SweepSettings(**SMALL).fingerprint()) is None


def test_pre_journal_checkpoint_warns_and_loads_as_missing(ck_path):
    legacy = {"integrity": "0" * 64,
              "payload": {"version": 1, "fingerprint": "f", "entries": {},
                          "failures": []}}
    ck_path.write_text(json.dumps(legacy, indent=1, sort_keys=True))
    with pytest.warns(RuntimeWarning, match="pre-journal"):
        runner = make_runner(ck_path, resume=True)
    assert runner.telemetry.checkpoint_counts() == {"invalid": 1}
    runner.cpu_run("BaseCMOS", "lu")
    # The first record replaced the old document instead of extending it.
    assert len(ck_path.read_text().splitlines()) == 1
    assert make_runner(ck_path, resume=True).telemetry.checkpoint_counts() == {
        "load": 1, "entries_loaded": 1,
    }


def test_settings_fingerprint_mismatch_invalidates(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    other = SweepRunner(
        SweepSettings(instructions=4_000, apps=["lu"], kernels=["DCT"]),
        checkpoint=ck_path,
        resume=True,
    )
    assert other.telemetry.checkpoint_counts() == {"invalid": 1}
    other.cpu_run("BaseCMOS", "lu")
    assert other.telemetry.cache_counts()["cpu"] == (0, 1)  # re-executed


def test_fingerprint_tracks_every_settings_field():
    base = SweepSettings(**SMALL)
    assert base.fingerprint() == SweepSettings(**SMALL).fingerprint()
    variants = [
        SweepSettings(instructions=3_000, apps=["lu"], kernels=["DCT"]),
        SweepSettings(instructions=2_000, apps=["fft"], kernels=["DCT"]),
        SweepSettings(instructions=2_000, apps=["lu"], kernels=["Reduction"]),
    ]
    for variant in variants:
        assert variant.fingerprint() != base.fingerprint()


def test_failures_are_persisted_in_checkpoint(ck_path):
    faults.install(FaultInjector(FaultPlan(fail_p=1.0)))
    runner = make_runner(ck_path)
    assert runner.cpu_cell("BaseCMOS", "lu") is None
    runner.save_checkpoint()
    data = SweepCheckpoint(ck_path).load(SweepSettings(**SMALL).fingerprint())
    assert data is not None and data.entries == 0
    (failure,) = data.failures
    assert failure.kind == "crash" and failure.config == "BaseCMOS"


def test_resume_executes_only_missing_cells(ck_path):
    class KillCell:
        """Deterministically fail exactly one (config, app) cell."""

        def call(self, site, key, fn):
            if key == ("AdvHet", "lu"):
                raise RuntimeError("poisoned cell")
            return fn()

    faults.install(KillCell())
    first = make_runner(ck_path)
    results = first.cpu_sweep(["BaseCMOS", "AdvHet"])
    assert results["BaseCMOS"]["lu"] is not None
    assert results["AdvHet"]["lu"] is None

    faults.reset()
    resumed = make_runner(ck_path, resume=True)
    results = resumed.cpu_sweep(["BaseCMOS", "AdvHet"])
    assert all(run is not None for run in (r["lu"] for r in results.values()))
    # Exactly the one gap was executed; the rest came from the checkpoint.
    assert resumed.telemetry.cache_counts()["cpu"] == (1, 1)
    assert resumed.failures == {}


def test_checkpoint_saves_are_atomic_after_each_run(ck_path):
    ck_path.write_text("a previous run's journal\n")
    runner = make_runner(ck_path)  # no resume: a fresh journal
    runner.cpu_run("BaseCMOS", "lu")
    first = ck_path.read_text()
    assert [json.loads(line)["payload"]["run_kind"]
            for line in first.splitlines()] == ["cpu"]
    runner.gpu_run("BaseCMOS", "DCT")
    second = ck_path.read_text()
    assert second.startswith(first)  # appended, never rewritten
    assert json.loads(second.splitlines()[1])["payload"]["run_kind"] == "gpu"
    assert not [p for p in ck_path.parent.iterdir() if ".tmp." in p.name]


# ---------------------------------------------------------------------
# the append-only journal
# ---------------------------------------------------------------------

def test_bytes_written_per_cell_do_not_grow_with_cells_done(ck_path):
    runner = make_runner(ck_path)
    written = []
    for config in ("BaseCMOS", "BaseTFET", "BaseHet", "AdvHet", "AdvHet-2X"):
        before = diskio.stats()["bytes_written"]
        runner.cpu_run(config, "lu")
        written.append(diskio.stats()["bytes_written"] - before)
    # One record per cell: the fifth flush costs what the first did.
    assert max(written) < 1.1 * min(written)
    assert sum(written) == ck_path.stat().st_size


def test_two_runners_sharing_a_checkpoint_both_resume_all_cells(ck_path):
    a = make_runner(ck_path, resume=True)
    b = make_runner(ck_path, resume=True)
    a.cpu_run("BaseCMOS", "lu")
    b.cpu_run("AdvHet", "lu")
    a.gpu_run("BaseCMOS", "DCT")
    b.dvfs_run("BaseCMOS", "lu", 2.0, False)
    resumed = make_runner(ck_path, resume=True)
    assert resumed.telemetry.checkpoint_counts() == {
        "load": 1, "entries_loaded": 4,
    }


def test_torn_last_line_resumes_with_every_record_before_it(ck_path):
    first = make_runner(ck_path)
    first.cpu_run("BaseCMOS", "lu")
    first.cpu_run("AdvHet", "lu")
    intact, torn = ck_path.read_text().splitlines(keepends=True)
    ck_path.write_text(intact + torn[: len(torn) // 2])  # died mid-append

    with pytest.warns(RuntimeWarning, match="1 damaged record"):
        resumed = make_runner(ck_path, resume=True)
    assert resumed.telemetry.checkpoint_counts()["entries_loaded"] == 1
    resumed.cpu_sweep(["BaseCMOS", "AdvHet"])
    assert resumed.telemetry.cache_counts()["cpu"] == (1, 1)
    # The re-executed cell starts its own line instead of fusing with
    # the torn one, so the next resume has both.
    with pytest.warns(RuntimeWarning, match="1 damaged record"):
        again = make_runner(ck_path, resume=True)
    assert again.telemetry.checkpoint_counts()["entries_loaded"] == 2


def test_gap_then_later_success_for_the_cell_resolves_to_success(ck_path):
    class KillCell:
        def call(self, site, key, fn):
            if key == ("AdvHet", "lu"):
                raise RuntimeError("poisoned cell")
            return fn()

    a = make_runner(ck_path, resume=True)
    b = make_runner(ck_path, resume=True)
    faults.install(KillCell())
    assert a.cpu_cell("BaseCMOS", "lu") is not None
    assert a.cpu_cell("AdvHet", "lu") is None
    assert a.save_checkpoint() == 1  # the gap is journaled
    faults.reset()
    assert b.cpu_cell("AdvHet", "lu") is not None  # a later success

    data = SweepCheckpoint(ck_path).load(SweepSettings(**SMALL).fingerprint())
    assert sorted(data.cpu) == [("AdvHet", "lu"), ("BaseCMOS", "lu")]
    assert data.failures == []


def test_checkpoint_save_leaves_no_lock_behind(ck_path):
    make_runner(ck_path).cpu_run("BaseCMOS", "lu")
    assert ck_path.exists()
    assert not ck_path.with_name(ck_path.name + ".lock").exists()


# ---------------------------------------------------------------------
# SIGKILL in the exact crash window: part of a record on disk
# ---------------------------------------------------------------------

def test_sigkill_mid_checkpoint_flush_resumes_byte_identical(tmp_path):
    """A writer killed after writing part of a journal record loses
    exactly that record: the records before it stay intact, the torn
    tail is skipped on load, and the resumed sweep's report is
    byte-identical to an uninterrupted serial run."""
    import os as _os
    import subprocess
    import sys

    src = str(__import__("pathlib").Path(__file__).resolve().parents[1] / "src")
    env = dict(_os.environ)
    env["PYTHONPATH"] = src + _os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_INSTRUCTIONS"] = "2000"
    env["REPRO_APPS"] = "lu"
    env.pop("REPRO_DISKIO_CRASH_AFTER_TMP", None)
    configs = ["BaseCMOS", "AdvHet"]
    base = [sys.executable, "-m", "repro", "sweep", *configs, "--json"]

    serial = subprocess.run(
        base, env=env, capture_output=True, text=True, timeout=300
    )
    assert serial.returncode == 0, serial.stderr
    baseline = json.loads(serial.stdout)
    baseline.pop("telemetry")

    ck = tmp_path / "sweep.ckpt.json"
    chaos_env = dict(env)
    # The 2nd checkpoint write at this site dies after part of its
    # record reached the disk -- the worst-possible instant.
    chaos_env["REPRO_DISKIO_CRASH_AFTER_TMP"] = "checkpoint:2"
    crashed = subprocess.run(
        base + ["--checkpoint", str(ck)],
        env=chaos_env, capture_output=True, text=True, timeout=300,
    )
    assert crashed.returncode == -9  # SIGKILLed itself in the window
    assert ck.exists()  # flush 1 survived the crash of flush 2
    torn = ck.read_text()
    assert not torn.endswith("\n"), "the crash window must tear the tail"
    assert len(torn.splitlines()) == 2

    resumed = subprocess.run(
        base + ["--checkpoint", str(ck), "--resume"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    report = json.loads(resumed.stdout)
    loaded = report["telemetry"]["checkpoint"]["entries_loaded"]
    cache = report["telemetry"]["cache"]["cpu"]
    assert loaded == 1  # exactly the pre-crash flush
    assert cache["hits"] == 1 and cache["misses"] == 1
    report.pop("telemetry")
    assert json.dumps(report, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )
    # The resumed writer's record starts past the torn tail, so the
    # journal now replays both cells.
    with pytest.warns(RuntimeWarning, match="1 damaged record"):
        data = SweepCheckpoint(ck).load(
            SweepSettings(instructions=2000, apps=["lu"]).fingerprint()
        )
    assert len(data.cpu) == 2
