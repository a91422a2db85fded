"""On-disk checkpointing of SweepRunner results as an append-only journal.

A checkpoint is one file of JSON lines, each a
:func:`repro.resilience.diskio.append_records` record: a checksum
envelope around either a :func:`repro.store.codecs.entry_payload` (one
executed cell, the same payload a result-store entry carries) or a gap
payload with ``"failure"`` in place of ``"result"``.  Every record names
the :class:`~repro.experiments.runner.SweepSettings` fingerprint it was
minted under.  A sweep appends one line per executed cell, so a flush
costs one record however many cells are already done, and concurrent
writers sharing a checkpoint each keep their cells without a lock.

Loading replays the checksum-valid lines whose fingerprint matches, the
last record per cell winning, so a gap followed by a later success
resolves to the success.  It is strictly *fail-soft*: a damaged line (a
writer died mid-append, or a torn write) is skipped with a warning, and
a missing, empty, unreadable, or pre-journal whole-file checkpoint loads
as a cache miss (``None``) -- a bad checkpoint can cost re-execution,
never correctness.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from pathlib import Path

from repro.resilience import diskio
from repro.resilience.errors import RunFailure
from repro.store.codecs import (
    CODECS,
    ENTRY_SCHEMA,
    current_sim_version,
    entry_payload,
)


@dataclasses.dataclass
class CheckpointData:
    """Decoded checkpoint contents, keyed exactly like the runner caches."""

    cpu: dict
    gpu: dict
    dvfs: dict
    failures: "list[RunFailure]"

    @property
    def entries(self) -> int:
        return len(self.cpu) + len(self.gpu) + len(self.dvfs)


def _gap_payload(fingerprint: str, failure: RunFailure) -> dict:
    return {
        "schema": ENTRY_SCHEMA,
        "run_kind": failure.run_kind,
        "cell": {
            "fingerprint": fingerprint,
            "config": failure.config,
            "workload": failure.workload,
            "extra": list(failure.extra),
            "seed": 0,
        },
        "failure": failure.to_dict(),
    }


def _parse(line: str):
    """(cell, payload) of one checksum-valid journal line, else None."""
    try:
        doc = json.loads(line)
        payload = doc["payload"]
        if doc["checksum"] != diskio.record_checksum(payload):
            return None
        cell = payload["cell"]
        return (
            (payload["run_kind"], cell["config"], cell["workload"],
             *cell["extra"]),
            payload,
        )
    except (ValueError, KeyError, TypeError):
        return None


def _diagnose(raw: str) -> str:
    """Why a file holding no valid journal line is unusable."""
    if not raw.strip():
        return "is empty (crash-truncated?)"
    try:
        doc = json.loads(raw)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "integrity" in doc:
        return "is a pre-journal whole-file checkpoint"
    return "has no readable record (torn write?)"


class SweepCheckpoint:
    """Append-only, checksummed result journal at one checkpoint path.

    The first write of a journal that was not loaded (a run without
    ``resume``) replaces whatever the path held, so such a run starts a
    fresh journal; a loaded journal, or a missing one, is appended to.
    """

    def __init__(self, path: "str | os.PathLike"):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.sim_version = current_sim_version()
        #: Replace rather than extend the file on the next write.
        self._fresh = True
        # Writer-startup hygiene: collect temp droppings left by a
        # writer that died while creating its journal.
        diskio.sweep_orphan_temps(self.path.parent, site="checkpoint")

    def save(
        self,
        fingerprint: str,
        caches: "dict[str, dict]",
        failures: "list[RunFailure]" = (),
    ) -> int:
        """Durably append a record per result and per failure given;
        returns the number of records written."""
        payloads = [
            entry_payload(fingerprint, kind, key[0], key[1], key[2:], result,
                          sim_version=self.sim_version)
            for kind, cache in caches.items()
            for key, result in cache.items()
        ]
        payloads += [_gap_payload(fingerprint, f) for f in failures]
        if not payloads:
            return 0
        diskio.append_records(
            self.path, payloads, site="checkpoint", create=self._fresh
        )
        self._fresh = False
        return len(payloads)

    def _warn(self, problem: str) -> None:
        warnings.warn(
            f"checkpoint {self.path} {problem}", RuntimeWarning, stacklevel=3
        )

    def load(self, fingerprint: str) -> "CheckpointData | None":
        """Replay the journal, or None when nothing in it is usable."""
        self._fresh = False
        try:
            raw = self.path.read_text()
        except OSError:
            return None
        latest: "dict[tuple, dict]" = {}
        valid = damaged = 0
        for line in raw.splitlines():
            if not line.strip():
                continue
            record = _parse(line)
            if record is None:
                damaged += 1
                continue
            valid += 1
            cell, payload = record
            if (payload.get("schema") == ENTRY_SCHEMA
                    and payload["cell"].get("fingerprint") == fingerprint):
                latest[cell] = payload
        if not valid:
            # Nothing here is a journal: start a fresh one on first write.
            self._fresh = True
            self._warn(f"{_diagnose(raw)}; treating as missing")
            return None
        if damaged:
            self._warn(f"has {damaged} damaged record(s) (torn write?); "
                       "skipping them")
        if not latest:
            return None
        data = CheckpointData(cpu={}, gpu={}, dvfs={}, failures=[])
        for (run_kind, *key), payload in latest.items():
            try:
                if "failure" in payload:
                    data.failures.append(
                        RunFailure.from_dict(payload["failure"])
                    )
                else:
                    getattr(data, run_kind)[tuple(key)] = (
                        CODECS[run_kind][1](payload["result"])
                    )
            except Exception:
                continue  # checksum held but not decodable: a miss
        return data
