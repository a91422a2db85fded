"""Per-cell digests of simulated statistics and the recorded golden set.

Simulated statistics are deterministic, so the benchmark never times
them: it hashes each cell's full result (time, energy breakdown, ED^2,
and every core or CU counter) and requires the hash recorded in
``golden.json`` on every execution path.  A served job's client sees only
a summary (time, energy, ED^2), which has its own recorded hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def cell_id(run_kind: str, config: str, workload: str, extra=(),
            instructions: "int | None" = None) -> str:
    """A cell's name in the golden set.

    GPU kernels have a fixed size, so GPU cells carry no trace length.
    """
    parts = [run_kind, config, workload, *(repr(x) for x in extra)]
    name = "/".join(parts)
    if run_kind != "gpu":
        name += f"@{instructions}"
    return name


def _sha(doc) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """Hash of one run result's simulated statistics."""
    return _sha({"stats": dataclasses.asdict(result), "ed2": result.ed2})


def summary_digest(summary: dict) -> str:
    """Hash of the (time_s, energy_j, ed2) summary a served job reports."""
    return _sha({k: summary[k] for k in ("time_s", "energy_j", "ed2")})


def summary_of(result) -> dict:
    return {"time_s": result.time_s, "energy_j": result.energy_j,
            "ed2": result.ed2}


class Golden:
    """The recorded per-cell digests, and the mismatches found so far."""

    def __init__(self, cells: dict):
        self.cells = cells
        self.mismatches: "list[str]" = []
        self.checked = 0

    @classmethod
    def load(cls, path=GOLDEN_PATH) -> "Golden":
        with open(path) as handle:
            return cls(json.load(handle)["cells"])

    def _check(self, cid: str, field: str, digest: str, path: str) -> bool:
        self.checked += 1
        expected = self.cells.get(cid, {}).get(field)
        if expected is None:
            self.mismatches.append(f"{path}: {cid} has no recorded {field}")
            return False
        if digest != expected:
            self.mismatches.append(f"{path}: {cid} {field} differs")
            return False
        return True

    def check_result(self, cid: str, result, path: str) -> bool:
        return self._check(cid, "digest", result_digest(result), path)

    def check_summary(self, cid: str, summary: dict, path: str) -> bool:
        return self._check(cid, "summary", summary_digest(summary), path)

    @staticmethod
    def entry(result) -> dict:
        return {"digest": result_digest(result),
                "summary": summary_digest(summary_of(result))}
