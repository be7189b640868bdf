"""Per-run checkpoint records: interrupted sweeps resume with zero
recomputation.

One completed run = one JSON file in the checkpoint directory, written
atomically (tmp + rename) so a kill mid-write never leaves a half record.
Each record carries the spec identity, the run's parameters, its result
row, and a float-hex SHA-256 fingerprint of the deterministic part of the
row (:func:`repro.experiments.artifacts.payload_fingerprint`: floats as
``float.hex()``, the encoding the pinned event-stream digests use).

On resume the store only honours records that (a) belong to the same
planned sweep (spec identity and per-run ``run_id`` both match — a changed
axis value or seed re-plans the run), and (b) still fingerprint to what
they claim (a corrupted or hand-edited record re-runs instead of
poisoning the merge).  Because the merged artifact is assembled purely
from ordered rows, a resumed sweep's artifact is byte-identical to an
uninterrupted one whenever the scenario itself is deterministic.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from .artifacts import payload_fingerprint
from .spec import RunSpec, SweepSpec

__all__ = ["CheckpointStore", "RunRecord"]

#: record format tag, bumped when the record schema changes
RECORD_FORMAT = "repro-sweep-run/1"


@dataclass(frozen=True)
class RunRecord:
    """One completed run, as persisted on disk."""

    index: int
    run_id: str
    scenario: str
    params: Dict[str, object]
    row: Dict[str, object]
    fingerprint: str

    def to_json(self, spec_identity: str) -> Dict[str, object]:
        return {
            "format": RECORD_FORMAT,
            "spec_identity": spec_identity,
            "index": self.index,
            "run_id": self.run_id,
            "scenario": self.scenario,
            "params": self.params,
            "row": self.row,
            "fingerprint": self.fingerprint,
        }


class CheckpointStore:
    """A directory of one-record-per-run JSON files for one sweep."""

    def __init__(self, directory: Union[str, Path], spec: SweepSpec) -> None:
        self.directory = Path(directory)
        self.spec = spec
        self._identity = spec.identity

    def record_path(self, run: RunSpec) -> Path:
        return self.directory / f"run_{run.index:05d}_{run.run_id}.json"

    def save(self, run: RunSpec, row: Dict[str, object]) -> Path:
        """Atomically persist one completed run."""
        record = RunRecord(
            index=run.index,
            run_id=run.run_id,
            scenario=run.scenario,
            params=dict(run.params),
            row=row,
            fingerprint=payload_fingerprint(row),
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.record_path(run)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(record.to_json(self._identity),
                                  sort_keys=True, indent=1) + "\n")
        os.replace(tmp, path)
        return path

    def load(self, run: RunSpec) -> Optional[RunRecord]:
        """The validated record for ``run``, or None if absent/stale."""
        path = self.record_path(run)
        try:
            doc = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict):
            return None
        if doc.get("format") != RECORD_FORMAT:
            return None
        if doc.get("spec_identity") != self._identity:
            return None
        if doc.get("run_id") != run.run_id or doc.get("index") != run.index:
            return None
        row = doc.get("row")
        if not isinstance(row, dict):
            return None
        # integrity: a record whose row no longer hashes to its stamped
        # fingerprint is treated as absent and the run re-executes
        if payload_fingerprint(row) != doc.get("fingerprint"):
            return None
        return RunRecord(
            index=int(doc["index"]),  # type: ignore[arg-type]
            run_id=str(doc["run_id"]),
            scenario=str(doc.get("scenario", run.scenario)),
            params=dict(doc.get("params", {})),  # type: ignore[arg-type]
            row=row,
            fingerprint=str(doc["fingerprint"]),
        )

    def load_all(self, runs: List[RunSpec]) -> Dict[int, RunRecord]:
        """Every valid record for the planned run list, keyed by index."""
        out: Dict[int, RunRecord] = {}
        for run in runs:
            record = self.load(run)
            if record is not None:
                out[run.index] = record
        return out

    def clear(self) -> int:
        """Delete every record file (a fresh ``run``); returns the count."""
        if not self.directory.is_dir():
            return 0
        n = 0
        for path in sorted(self.directory.glob("run_*.json")):
            path.unlink()
            n += 1
        return n
