"""Multi-client entry point: N browsing consoles on one depot fleet.

The paper's premise is that logistical networking makes light field browsing
practical on *shared* infrastructure — depots provisioned inside the network
serve many consumers at once (Section 3.5 explicitly allows one client agent
per console and several consoles per LAN).  :class:`MultiClientConfig` fans
one :class:`~repro.streaming.session.SessionConfig` out to N consoles — each
with its own node pair, client agent, cache, cursor trace and (case 3)
staging pump — and hands them to the session engine
(:func:`~repro.streaming.session.wire_testbed` /
:func:`~repro.streaming.session.run_testbed`), which puts them on one
simulated network, one LAN + WAN depot fleet, one DVS, one server agent and
one :class:`~repro.lon.scheduler.TransferScheduler`.

Because every agent routes transfers through the shared scheduler's in-flight
registry, concurrent fetches of the same view set by different clients
coalesce exactly as same-agent requests do, and background staging competes
with every client's demand misses under one priority policy — the
many-consumer contention regime a single console cannot produce.

Scale is the point: with dozens of clients the simulation core itself is the
bottleneck, which is what the incremental rebalancer in
:mod:`repro.lon.network` and the compacting event queue are for.
The builtin ``scale`` sweep spec measures it on this harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..lightfield.lattice import CameraLattice
from ..lightfield.source import ViewSetSource
from .metrics import SessionMetrics
from .session import (
    Console,
    RunTotals,
    SessionConfig,
    Testbed,
    finish,
    run_testbed,
    session_trace,
    wire_testbed,
)
from .trace import CursorTrace

__all__ = [
    "MultiClientConfig",
    "MultiClientRig",
    "MultiClientResult",
    "build_multiclient_rig",
    "fleet_summary",
    "fleet_traces",
    "run_multiclient_session",
]


@dataclass
class MultiClientConfig:
    """An N-client experiment: one base session config, fanned out.

    Each client ``i`` runs the standard cursor trace with seed
    ``base.trace_seed + i * seed_stride``, time-shifted by
    ``i * start_stagger`` seconds so arrivals ramp instead of stampeding
    (stagger 0 reproduces a synchronized start).
    """

    base: SessionConfig = field(default_factory=SessionConfig)
    n_clients: int = 8
    #: per-client trace-seed offset; 0 makes every client walk the same path
    seed_stride: int = 101
    #: per-client start delay in seconds
    start_stagger: float = 1.0
    #: global index of this rig's first client.  Sharded runs
    #: (:mod:`repro.lon.shard`) partition one logical fleet across
    #: several rigs; offsetting names, trace seeds and start stagger
    #: by the global index keeps every client's identity and timing
    #: identical to its single-rig incarnation.
    client_index_base: int = 0
    #: prefix of this rig's sampled series names (e.g. ``"shard3"``), so
    #: series from many rigs stitch without collisions.  Empty = bare names.
    obs_namespace: str = ""
    #: fraction of clients (tenths granularity) whose console + agent hang
    #: off a second campus switch (``xs-switch``) reached over its own
    #: backbone uplink instead of the department LAN.  Client ``g`` crosses
    #: iff ``(g % 10) < round(fraction * 10)``, so the assignment depends
    #: only on the *global* index — sharded runs see the same split.  0.0
    #: adds no nodes or links (bit-identical to the classic topology).
    cross_shard_fraction: float = 0.0
    #: bandwidth of the ``xs-switch`` ↔ ``wan-router`` backbone uplink
    #: (None = ``base.wan_bandwidth``); its latency is ``base.wan_latency``
    backbone_bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.client_index_base < 0:
            raise ValueError("client_index_base must be non-negative")
        if self.start_stagger < 0:
            raise ValueError("start_stagger must be non-negative")
        if not 0.0 <= self.cross_shard_fraction <= 1.0:
            raise ValueError("cross_shard_fraction must be in [0, 1]")
        if self.base.trace is not None:
            raise ValueError(
                "base.trace overrides a single console's path; fleet "
                "clients walk seeded standard traces"
            )

    def crosses(self, g: int) -> bool:
        """Whether global client ``g`` attaches to the backbone switch."""
        return (g % 10) < int(round(self.cross_shard_fraction * 10))


@dataclass
class MultiClientRig(Testbed):
    """A wired N-client testbed and the config that fanned it out."""

    config: MultiClientConfig = field(kw_only=True)


@dataclass
class MultiClientResult(RunTotals):
    """Per-client metrics plus the run's :class:`RunTotals`."""

    config: MultiClientConfig
    per_client: List[SessionMetrics]

    def aggregate(self) -> Dict[str, object]:
        """Fleet-level summary across every client's metrics."""
        return fleet_summary(self.per_client, self)


def fleet_summary(
    per_client: Sequence[SessionMetrics], totals: RunTotals
) -> Dict[str, object]:
    """Access statistics over every client plus the run's totals, flat."""
    accesses = [a for m in per_client for a in m.accesses]
    latencies = [a.total_latency for a in accesses]
    n = len(accesses)
    mean_latency = sum(latencies) / n if n else 0.0
    hits = sum(m.hit_rate() * len(m.accesses) for m in per_client)
    wan = sum(m.wan_rate() * len(m.accesses) for m in per_client)
    return {
        "n_clients": len(per_client),
        "accesses": n,
        "mean_latency": round(mean_latency, 4),
        "hit_rate": round(hits / n, 3) if n else 0.0,
        "wan_rate": round(wan / n, 3) if n else 0.0,
        "wall_seconds": round(totals.wall_seconds, 3),
        "sim_seconds": round(totals.sim_seconds, 2),
        "events_fired": totals.events_fired,
        "events_per_second": round(totals.events_per_second, 1),
        "queue_compactions": totals.queue_compactions,
        "deduped_transfers": totals.deduped_transfers,
        "promoted_transfers": totals.promoted_transfers,
        **{f"rebalance_{k}": v for k, v in totals.rebalance.items()},
        **{f"admission_{k}": v for k, v in totals.admission.items()},
    }


def fleet_traces(
    lattice: CameraLattice, config: MultiClientConfig
) -> List[CursorTrace]:
    """Every client's cursor trace, in global-index order.

    Client ``g`` walks the standard trace seeded ``g * seed_stride`` past
    the base seed and starts ``g * start_stagger`` seconds in.  The wiring,
    the fleet-wide horizon of a sharded run and each shard's own block all
    read their traces from here.
    """
    first = config.client_index_base
    return [
        session_trace(lattice, config.base, g * config.seed_stride,
                      g * config.start_stagger)
        for g in range(first, first + config.n_clients)
    ]


def build_multiclient_rig(
    source: ViewSetSource,
    config: MultiClientConfig,
    traces: Optional[List[CursorTrace]] = None,
) -> MultiClientRig:
    """Wire N clients onto one shared fabric (no events run yet).

    Console ``g`` is ``client-g`` behind ``agent-g``, reports as
    ``case<k>-client<g>`` and, when ``config.crosses(g)``, hangs off the
    ``xs-switch`` backbone.  ``traces`` are :func:`fleet_traces` of
    ``config`` when the caller already built them.
    """
    base = config.base
    first = config.client_index_base
    if traces is None:
        traces = fleet_traces(source.lattice, config)
    consoles = [
        Console(g, f"client-{g}", f"agent-{g}",
                f"case{base.case}-client{g}", trace, config.crosses(g))
        for g, trace in enumerate(traces, first)
    ]
    bed = wire_testbed(
        source, base, consoles, config.backbone_bandwidth,
        config.obs_namespace)
    return MultiClientRig(**vars(bed), config=config)


def run_multiclient_session(
    source: ViewSetSource,
    config: MultiClientConfig,
    rig_hook: Optional[Callable[[MultiClientRig], None]] = None,
) -> MultiClientResult:
    """Run a full N-client session and return per-client + fleet results.

    Wall time covers the simulation loop only (not rig construction),
    which is what the scale benchmark reports.
    """
    rig = build_multiclient_rig(source, config)
    if rig_hook is not None:
        rig_hook(rig)
    totals = finish(run_testbed(rig))
    return MultiClientResult(
        config=config, per_client=rig.metrics, **vars(totals))
