"""Runtime determinism checker: the dynamic backstop behind the lint rules.

The static passes in :mod:`repro.analysis.lint` prove the *absence of known
hazard patterns*; this module proves the property itself.  It runs a fully
seeded session (or an N-client rig) twice inside one process, fingerprints
three observable streams —

1. the **ordered event stream**: every ``(time, seq, label)`` triple fired
   by the :class:`~repro.lon.simtime.EventQueue` (captured through its
   ``on_fire`` hook),
2. the **per-transfer rate trajectories**: the scheduler's
   :class:`~repro.lon.scheduler.TransferEvent` lifecycle records, whose
   ``rerated`` entries carry the rate each flow was assigned,
3. the **latency breakdown**: ``SessionMetrics.breakdown()``, the per-stage
   statistics the paper's figures are built from —

and compares SHA-256 hashes of their canonical encodings.  On mismatch the
report pinpoints the first divergent event, which localizes the leak to the
component that scheduled it.

Floats are encoded with ``float.hex()`` so the comparison is bit-exact: a
nondeterminism source that perturbs a timestamp by one ulp is still caught.

Nothing is overridden to make a run comparable: simulated time is the
simulator's only clock (client decompression is charged from a model, see
:mod:`repro.streaming.client`), so any ``SessionConfig`` replays exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:
    from ..streaming.multiclient import MultiClientRig
    from ..streaming.session import (
        EventRecord,
        SessionConfig,
        SessionRig,
        TransferRecord,
    )

__all__ = [
    "RunFingerprint",
    "Divergence",
    "DeterminismReport",
    "check_determinism",
    "compare_fingerprints",
    "session_fingerprint",
    "multiclient_fingerprint",
    "sharded_fingerprint",
]

#: per-stage latency statistics, as SessionMetrics.breakdown() returns
Breakdown = Dict[str, Dict[str, Dict[str, float]]]


def _canonical(obj: object) -> str:
    """Stable JSON encoding: sorted keys, no whitespace ambiguity."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str)


def _digest(obj: object) -> str:
    return hashlib.sha256(_canonical(obj).encode("utf-8")).hexdigest()


@dataclass
class RunFingerprint:
    """Everything observable about one seeded run, hashed and retained.

    The hashes are the comparison keys; the raw streams are kept so a
    mismatch can be localized rather than just detected.
    """

    label: str
    seed: int
    n_events: int
    event_hash: str
    transfer_hash: str
    breakdown_hash: str
    events: List[EventRecord] = field(repr=False, default_factory=list)
    transfers: List[TransferRecord] = field(repr=False, default_factory=list)
    breakdown: Breakdown = field(repr=False, default_factory=dict)

    @property
    def combined(self) -> str:
        """Single digest over all three streams."""
        return _digest(
            [self.event_hash, self.transfer_hash, self.breakdown_hash]
        )


@dataclass
class Divergence:
    """Where two runs first disagree."""

    stream: str               # "events" | "transfers" | "breakdown"
    index: Optional[int]      # first differing position (None for breakdown)
    left: object
    right: object

    def render(self) -> str:
        if self.stream == "breakdown":
            return ("breakdown mismatch (stage statistics differ); "
                    f"left={self.left!r} right={self.right!r}")
        where = f"[{self.index}]" if self.index is not None else ""
        return (f"first divergent {self.stream[:-1]} at {self.stream}{where}: "
                f"{self.left!r} != {self.right!r}")


@dataclass
class DeterminismReport:
    """Outcome of comparing repeated runs of one scenario."""

    label: str
    ok: bool
    runs: List[RunFingerprint]
    divergence: Optional[Divergence] = None

    def render(self) -> str:
        head = (f"{self.label}: "
                f"{'DETERMINISTIC' if self.ok else 'NONDETERMINISTIC'} "
                f"over {len(self.runs)} runs "
                f"({self.runs[0].n_events} events, "
                f"digest {self.runs[0].combined[:16]})")
        if self.ok or self.divergence is None:
            return head
        return head + "\n  " + self.divergence.render()


def _first_divergence(a: RunFingerprint, b: RunFingerprint
                      ) -> Optional[Divergence]:
    if a.event_hash != b.event_hash:
        for i, (ea, eb) in enumerate(zip(a.events, b.events)):
            if ea != eb:
                return Divergence("events", i, ea, eb)
        i = min(len(a.events), len(b.events))
        return Divergence(
            "events", i,
            a.events[i] if i < len(a.events) else "<stream ended>",
            b.events[i] if i < len(b.events) else "<stream ended>",
        )
    if a.transfer_hash != b.transfer_hash:
        for i, (ta, tb) in enumerate(zip(a.transfers, b.transfers)):
            if ta != tb:
                return Divergence("transfers", i, ta, tb)
        i = min(len(a.transfers), len(b.transfers))
        return Divergence(
            "transfers", i,
            a.transfers[i] if i < len(a.transfers) else "<stream ended>",
            b.transfers[i] if i < len(b.transfers) else "<stream ended>",
        )
    if a.breakdown_hash != b.breakdown_hash:
        return Divergence("breakdown", None, a.breakdown, b.breakdown)
    return None


def check_determinism(
    fingerprint: Callable[[], RunFingerprint],
    runs: int = 2,
) -> DeterminismReport:
    """Run ``fingerprint`` ``runs`` times and compare every run to the first.

    ``fingerprint`` must build a *fresh* rig each call — reusing simulator
    state would make the comparison vacuous.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs to compare")
    prints = [fingerprint() for _ in range(runs)]
    for other in prints[1:]:
        div = _first_divergence(prints[0], other)
        if div is not None:
            return DeterminismReport(
                label=prints[0].label, ok=False, runs=prints,
                divergence=div,
            )
    return DeterminismReport(label=prints[0].label, ok=True, runs=prints)


# ----------------------------------------------------------------------
# scenario fingerprints
# ----------------------------------------------------------------------
def session_fingerprint(
    seed: int = 7,
    resolution: int = 32,
    n_accesses: int = 16,
    case: int = 3,
    config: Optional["SessionConfig"] = None,
    rig_hook: Optional[Callable[["SessionRig"], None]] = None,
) -> RunFingerprint:
    """Fingerprint one seeded single-client session.

    ``config`` overrides the canned :class:`SessionConfig` entirely (it is
    copied with tracing on — the breakdown is read off the spans — and
    otherwise run as is).  ``rig_hook`` runs after the collectors attach —
    tests use it to inject deliberate perturbations and prove the checker
    catches them.
    """
    from ..lightfield.lattice import CameraLattice
    from ..lightfield.source import SyntheticSource
    from ..streaming.session import (
        SessionConfig,
        attach_stream_collectors,
        run_session,
    )

    if config is None:
        config = SessionConfig(
            case=case,
            n_accesses=n_accesses,
            trace_seed=seed,
        )
    config = replace(config, tracing=True)
    lattice = CameraLattice(n_theta=12, n_phi=24, l=3)
    source = SyntheticSource(lattice, resolution=resolution, seed=2003)
    events: List[EventRecord] = []
    transfers: List[TransferRecord] = []
    breakdown_box: Breakdown = {}

    def hook(rig: SessionRig) -> None:
        attach_stream_collectors(rig.queue, rig.lors.scheduler, events, transfers)
        if rig_hook is not None:
            rig_hook(rig)

    metrics = run_session(source, config, rig_hook=hook)
    breakdown_box.update(metrics.breakdown())
    return RunFingerprint(
        label=f"session(case={config.case},seed={seed},res={resolution})",
        seed=seed,
        n_events=len(events),
        event_hash=_digest(events),
        transfer_hash=_digest(transfers),
        breakdown_hash=_digest(breakdown_box),
        events=events,
        transfers=transfers,
        breakdown=breakdown_box,
    )


def compare_fingerprints(
    a: RunFingerprint, b: RunFingerprint
) -> DeterminismReport:
    """Compare two fingerprints from *different* scenarios.

    Where :func:`check_determinism` proves one scenario replays
    identically, this proves two scenarios that *should* be equivalent —
    batched vs incremental rebalancing, sharded vs single-process —
    actually produce the same event stream, transfer log and breakdown.
    """
    div = _first_divergence(a, b)
    label = f"{a.label} == {b.label}"
    if div is not None:
        return DeterminismReport(
            label=label, ok=False, runs=[a, b], divergence=div,
        )
    return DeterminismReport(label=label, ok=True, runs=[a, b])


def multiclient_fingerprint(
    seed: int = 7,
    n_clients: int = 8,
    resolution: int = 32,
    n_accesses: int = 10,
    case: int = 3,
    rig_hook: Optional[Callable[["MultiClientRig"], None]] = None,
) -> RunFingerprint:
    """Fingerprint one seeded N-client rig (default 8 clients).

    The N-client regime is where the hazards live: shared-scheduler
    rebalances, cross-client dedup and staggered starts all multiply the
    same-timestamp ties that set-iteration order could silently break.
    """
    from ..lightfield.lattice import CameraLattice
    from ..lightfield.source import SyntheticSource
    from ..streaming.multiclient import (
        MultiClientConfig,
        run_multiclient_session,
    )
    from ..streaming.session import SessionConfig, attach_stream_collectors

    base = SessionConfig(
        case=case,
        n_accesses=n_accesses,
        trace_seed=seed,
        tracing=True,
    )
    config = MultiClientConfig(base=base, n_clients=n_clients)
    lattice = CameraLattice(n_theta=12, n_phi=24, l=3)
    source = SyntheticSource(lattice, resolution=resolution, seed=2003)
    events: List[EventRecord] = []
    transfers: List[TransferRecord] = []

    def hook(rig: MultiClientRig) -> None:
        attach_stream_collectors(rig.queue, rig.scheduler, events, transfers)
        if rig_hook is not None:
            rig_hook(rig)

    result = run_multiclient_session(source, config, rig_hook=hook)
    breakdown = result.per_client[0].breakdown()
    return RunFingerprint(
        label=(f"multiclient(n={n_clients},case={case},"
               f"seed={seed},res={resolution})"),
        seed=seed,
        n_events=len(events),
        event_hash=_digest(events),
        transfer_hash=_digest(transfers),
        breakdown_hash=_digest(breakdown),
        events=events,
        transfers=transfers,
        breakdown=breakdown,
    )


def sharded_fingerprint(
    seed: int = 7,
    n_clients: int = 8,
    n_shards: int = 2,
    workers: int = 1,
    resolution: int = 32,
    n_accesses: int = 10,
    case: int = 3,
    cross_shard_fraction: float = 0.0,
) -> RunFingerprint:
    """Fingerprint a sharded fleet (merged per-shard streams).

    ``workers=1`` is the sequential reference; ``workers=n_shards`` runs
    one process per shard.  Comparing the two through
    :func:`compare_fingerprints` is the sharded-vs-single-process safety
    net: the parallel path must merge to the exact event stream the
    sequential path produces.  ``cross_shard_fraction > 0`` routes that
    share of clients over the shared backbone, so the comparison also
    covers the two-phase boundary exchange (the crossing lockstep and
    the barrier-synchronized workers must publish/read identical loads
    in identical order).
    """
    from ..lightfield.lattice import CameraLattice
    from ..lightfield.source import SyntheticSource
    from ..lon.shard import run_sharded_session
    from ..streaming.multiclient import MultiClientConfig
    from ..streaming.session import SessionConfig

    base = SessionConfig(
        case=case,
        n_accesses=n_accesses,
        trace_seed=seed,
    )
    config = MultiClientConfig(
        base=base, n_clients=n_clients,
        cross_shard_fraction=cross_shard_fraction,
    )
    lattice = CameraLattice(n_theta=12, n_phi=24, l=3)
    source = SyntheticSource(lattice, resolution=resolution, seed=2003)
    result = run_sharded_session(
        source, config, n_shards=n_shards, workers=workers,
        collect_streams=True,
    )
    events = result.merged_events()
    transfers = result.merged_transfers()
    breakdown = result.per_client[0].breakdown()
    return RunFingerprint(
        label=(f"sharded(n={n_clients},shards={n_shards},"
               f"workers={workers},seed={seed},"
               f"cross={cross_shard_fraction})"),
        seed=seed,
        n_events=len(events),
        event_hash=_digest(events),
        transfer_hash=_digest(transfers),
        breakdown_hash=_digest(breakdown),
        events=events,
        transfers=transfers,
        breakdown=breakdown,
    )
