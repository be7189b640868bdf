"""Dynamic happens-before verification of the boundary-exchange protocol.

The static SIM009 pass proves the *code shape* of the two-phase protocol;
this module verifies the *execution*: it installs a monitored
:class:`~repro.lon.shard.BoundaryExchange` into a real sharded run and
checks the recorded access log against the protocol's happens-before
order.

The clock is deliberately simple.  Shard workers synchronize through one
global barrier, so each worker's vector clock collapses to a scalar
**epoch** — its count of barrier crossings (the drivers call
``exchange.barrier_crossed()`` after every wait; the sequential lockstep
driver calls it between its publish and read phases, which are the same
cuts).  Two accesses to the same cell are concurrent iff they carry the
same epoch in different workers; the protocol is race-free because every
epoch is either a *write phase* (each owner writes its own row, nobody
reads) or a *read phase* (everybody reads, nobody writes).  A conflict is
therefore: same cell, same epoch, different workers, at least one write —
plus the ownership invariant that row ``r`` is only ever written by
worker ``r``.

``python -m repro.analysis races`` runs the verifier on the seeded
8-shard 30%-crossing rig (the CI stress configuration), twice by default,
and also cross-checks the two runs' access-log digests — the dynamic
analogue of the determinism double-run.  ``--inject`` swaps in an
exchange that deliberately reads during its publish phase, to demonstrate
localization: the report pins the first conflicting pair with a stack
summary for each side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..lightfield import CameraLattice, SyntheticSource
from ..lightfield.source import ViewSetSource
from ..lon.shard import (
    AccessLogRecord,
    BOUNDARY_LINKS,
    BoundaryExchange,
    BoundaryLink,
    run_sharded_session,
)
from ..streaming.multiclient import MultiClientConfig
from ..streaming.session import SessionConfig

__all__ = [
    "Conflict",
    "ExchangeMonitor",
    "RaceReport",
    "analyze_log",
    "check_races",
    "monitored_exchange",
    "violating_exchange",
    "main",
]

#: stack frames kept per access record (enough to name the driver, the
#: exchange method and the call site without bloating the pickled log)
STACK_DEPTH = 6


class ExchangeMonitor:
    """Per-process access recorder satisfying ``ExchangeMonitorLike``.

    Plain picklable state: the instance crosses the worker boundary
    inside the exchange object, then each process appends to its own
    copy and ships the log home through ``ShardResult.access_log``.
    """

    def __init__(self) -> None:
        self.epoch = 0
        self.records: List[AccessLogRecord] = []
        self._seq = 0

    def record(self, op: str, worker: int, row: int, col: int,
               value: float) -> None:
        """Stamp one cell access with this process's epoch clock."""
        raw = traceback.extract_stack(limit=STACK_DEPTH + 1)[:-1]
        frames = tuple(
            f"{os.path.basename(fr.filename)}:{fr.lineno or 0} "
            f"in {fr.name}"
            for fr in raw
        )
        self.records.append(
            (self._seq, self.epoch, op, worker, row, col, value, frames)
        )
        self._seq += 1

    def advance(self) -> None:
        """Barrier crossed: the fleet moved to the next phase."""
        self.epoch += 1

    def drain(self) -> List[AccessLogRecord]:
        out, self.records = self.records, []
        return out


class _ViolatingExchange(BoundaryExchange):
    """An exchange that breaks the publish phase — once, deliberately.

    The first ``publish`` call in each process immediately re-reads the
    siblings' cells *before any barrier*, i.e. in the same epoch the
    sibling shards are writing their rows.  This is the textbook
    read-before-publish race SIM009 forbids statically; the verifier
    must localize it to this access.
    """

    def __init__(
        self,
        n_shards: int,
        links: Tuple[BoundaryLink, ...] = BOUNDARY_LINKS,
        ctx: Optional[Any] = None,
    ) -> None:
        super().__init__(n_shards, links, ctx)
        self._violated = False

    def publish(
        self, shard_id: int, loads: Any
    ) -> None:
        super().publish(shard_id, loads)
        if not self._violated:
            self._violated = True
            # the race: sampling sibling rows in the write phase
            self.remote(shard_id)


def monitored_exchange(
    n_shards: int, ctx: Optional[Any]
) -> BoundaryExchange:
    """`exchange_factory` installing the happens-before monitor."""
    exchange = BoundaryExchange(n_shards, ctx=ctx)
    exchange.attach_monitor(ExchangeMonitor())
    return exchange


def violating_exchange(
    n_shards: int, ctx: Optional[Any]
) -> BoundaryExchange:
    """`exchange_factory` seeding a publish-phase violation (monitored)."""
    exchange = _ViolatingExchange(n_shards, ctx=ctx)
    exchange.attach_monitor(ExchangeMonitor())
    return exchange


# ----------------------------------------------------------------------
# log analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Conflict:
    """Two accesses to the same cell in the same epoch from different
    workers, at least one a write."""

    epoch: int
    row: int
    col: int
    first: AccessLogRecord
    second: AccessLogRecord

    def describe(self) -> str:
        lines = [
            f"conflicting pair on cell (row={self.row}, col={self.col}) "
            f"in epoch {self.epoch}:"
        ]
        for label, rec in (("first", self.first), ("second", self.second)):
            _seq, _epoch, op, worker, row, _col, value, frames = rec
            lines.append(
                f"  {label}: {op} of row {row} by worker {worker} "
                f"(value {value:.6g})"
            )
            for frame in frames:
                lines.append(f"    at {frame}")
        return "\n".join(lines)


@dataclass
class RaceReport:
    """Outcome of one monitored run."""

    n_records: int
    n_epochs: int
    n_workers: int
    digest: str
    conflicts: List[Conflict] = field(default_factory=list)
    #: writes to a row by a non-owner worker (each row belongs to the
    #: shard with the same id under the publish protocol)
    ownership_violations: List[AccessLogRecord] = field(
        default_factory=list
    )
    records: List[AccessLogRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.conflicts and not self.ownership_violations

    def describe(self) -> str:
        head = (
            f"{self.n_records} accesses, {self.n_epochs} epochs, "
            f"{self.n_workers} workers, log digest {self.digest[:16]}"
        )
        if self.ok:
            return f"races: OK — {head}"
        lines = [
            f"races: FAIL — {head}",
            f"{len(self.conflicts)} conflicting pair(s), "
            f"{len(self.ownership_violations)} ownership violation(s)",
        ]
        if self.conflicts:
            lines.append(self.conflicts[0].describe())
        for rec in self.ownership_violations[:3]:
            _seq, epoch, _op, worker, row, col, _value, frames = rec
            lines.append(
                f"row {row} written by non-owner worker {worker} "
                f"(epoch {epoch}, col {col})"
            )
            for frame in frames:
                lines.append(f"    at {frame}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """Plain-data dump for the CI access-log artifact."""
        return {
            "format": "repro.races/1",
            "ok": self.ok,
            "n_records": self.n_records,
            "n_epochs": self.n_epochs,
            "n_workers": self.n_workers,
            "digest": self.digest,
            "conflicts": [
                {
                    "epoch": c.epoch,
                    "row": c.row,
                    "col": c.col,
                    "first": list(c.first),
                    "second": list(c.second),
                }
                for c in self.conflicts
            ],
            "ownership_violations": [
                list(r) for r in self.ownership_violations
            ],
            "records": [list(r) for r in self.records],
        }


def _log_digest(records: Sequence[AccessLogRecord]) -> str:
    """Canonical digest of the access structure (frames excluded — the
    digest compares *what* was accessed when, not the code path text)."""
    canon = sorted(
        (epoch, op, worker, row, col, float(value).hex())
        for _seq, epoch, op, worker, row, col, value, _frames in records
    )
    payload = json.dumps(canon, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def analyze_log(records: Sequence[AccessLogRecord]) -> RaceReport:
    """Happens-before check over a merged fleet access log."""
    by_cell: Dict[Tuple[int, int, int], List[AccessLogRecord]] = {}
    workers = set()
    n_epochs = 0
    for rec in records:
        _seq, epoch, _op, worker, row, col, _value, _frames = rec
        by_cell.setdefault((epoch, row, col), []).append(rec)
        workers.add(worker)
        n_epochs = max(n_epochs, epoch + 1)
    conflicts: List[Conflict] = []
    ownership: List[AccessLogRecord] = []
    for key in sorted(by_cell):
        group = sorted(by_cell[key], key=lambda r: (r[3], r[0]))
        writes = [r for r in group if r[2] == "write"]
        for w in writes:
            if w[3] != w[4]:  # worker != row: non-owner write
                ownership.append(w)
        if not writes:
            continue
        epoch, row, col = key
        for rec in group:
            other = next((w for w in writes if w[3] != rec[3]), None)
            if other is not None:
                conflicts.append(Conflict(
                    epoch=epoch, row=row, col=col,
                    first=other, second=rec,
                ))
                break  # one pair per cell/epoch keeps the report readable
    return RaceReport(
        n_records=len(records),
        n_epochs=n_epochs,
        n_workers=len(workers),
        digest=_log_digest(records),
        conflicts=conflicts,
        ownership_violations=ownership,
        records=list(records),
    )


# ----------------------------------------------------------------------
# running the verifier
# ----------------------------------------------------------------------
def check_races(
    source: ViewSetSource,
    config: MultiClientConfig,
    n_shards: int,
    workers: Optional[int] = None,
    inject: bool = False,
) -> RaceReport:
    """Run one monitored sharded session and analyze its access log.

    ``workers=1`` exercises the sequential lockstep driver (one monitor
    observing every shard); ``workers=None`` runs one process per shard
    with per-worker monitors whose epoch clocks advance at the shared
    barrier.  ``inject=True`` swaps in the deliberately violating
    exchange.
    """
    if config.cross_shard_fraction <= 0.0 or n_shards < 2:
        raise ValueError(
            "race verification needs a crossing rig: n_shards >= 2 and "
            "cross_shard_fraction > 0"
        )
    factory = violating_exchange if inject else monitored_exchange
    result = run_sharded_session(
        source, config, n_shards, workers=workers,
        exchange_factory=factory,
    )
    records = [
        rec for shard in result.shards for rec in (shard.access_log or [])
    ]
    if not records:
        raise RuntimeError(
            "monitored run produced no access records; the exchange was "
            "never exercised"
        )
    return analyze_log(records)


def _stress_rig(
    clients: int, accesses: int, seed: int, cross: float, resolution: int
) -> Tuple[SyntheticSource, MultiClientConfig]:
    """The seeded crossing rig (mirrors the CI cross-shard stress job)."""
    source = SyntheticSource(
        CameraLattice(n_theta=9, n_phi=18, l=3), resolution=resolution
    )
    config = MultiClientConfig(
        base=SessionConfig(case=3, n_accesses=accesses, trace_seed=seed),
        n_clients=clients, seed_stride=101, start_stagger=0.25,
        cross_shard_fraction=cross,
    )
    return source, config


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI body for ``python -m repro.analysis races`` (0 = race-free)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis races",
        description="dynamic happens-before verification of the "
        "boundary-exchange barrier protocol",
    )
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--accesses", type=int, default=6)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cross", type=float, default=0.3,
                        help="cross-shard client fraction (default 0.3)")
    parser.add_argument("--resolution", type=int, default=32)
    parser.add_argument("--workers", type=int, default=0,
                        help="0 = one process per shard (default); "
                        "1 = sequential lockstep driver")
    parser.add_argument("--runs", type=int, default=2,
                        help="verification runs; >1 also cross-checks "
                        "the access-log digests (default 2)")
    parser.add_argument("--inject", action="store_true",
                        help="seed a deliberate publish-phase violation "
                        "(localization demo; expected to FAIL)")
    parser.add_argument("--log-out", metavar="PATH",
                        help="write the last run's access log + verdict "
                        "as JSON")
    args = parser.parse_args(argv)

    source, config = _stress_rig(
        args.clients, args.accesses, args.seed, args.cross,
        args.resolution,
    )
    workers = None if args.workers == 0 else args.workers
    digests: List[str] = []
    report: Optional[RaceReport] = None
    failed = False
    for run in range(max(1, args.runs)):
        report = check_races(
            source, config, args.shards, workers=workers,
            inject=args.inject,
        )
        digests.append(report.digest)
        print(f"run {run + 1}: {report.describe()}")
        if not report.ok:
            failed = True
    assert report is not None
    if len(set(digests)) > 1:
        print("access-log digests diverged across runs:", file=sys.stderr)
        for i, d in enumerate(digests, start=1):
            print(f"  run {i}: {d}", file=sys.stderr)
        failed = True
    elif len(digests) > 1:
        print(f"double-run digest match: {digests[0][:16]}")
    if args.log_out:
        with open(args.log_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=1)
        print(f"access log written to {args.log_out}")
    return 1 if failed else 0
