"""Sharded parallel simulation: one logical client fleet, many rigs.

The multi-client harness (:mod:`repro.streaming.multiclient`) wires every
client onto one shared fabric, which is the right model when clients
contend for one WAN bottleneck — but it serializes the whole fleet through
a single event queue.  At population scale the paper's premise flips:
depot fleets are provisioned per site, and clients pinned to different
depot groups never share a link.  This module exploits exactly that
structure: the fleet is partitioned into **shards** (contiguous client
blocks, each with its own LAN + WAN depot group, network, and event
queue), shards run independently — in worker processes when requested —
and their results merge deterministically.

Because shards share no simulated state, the partition *is* the
synchronization model: conservative time-window lockstep (workers advance
their queues window by window behind a barrier, the
:mod:`repro.render.parallel` fork/spawn pattern applied to simulation)
bounds skew between workers without ever changing what fires when.  A
windowed run fires the same events, in the same order, at the same times
as a single ``run_until`` — so ``workers=N`` is bit-identical to
``workers=1``, which is what the determinism suite checks
(:func:`repro.analysis.determinism.sharded_fingerprint`).

Fleets no longer have to be link-disjoint.  When
``MultiClientConfig.cross_shard_fraction > 0`` every shard's crossing
clients put load on a *shared* campus backbone (``xs-switch`` <->
``wan-router``); shards then run a two-phase exchange at the existing
barrier — publish own boundary load, wait, read the siblings' total,
wait — and reserve the remote total against the link's effective
bandwidth (:meth:`~repro.lon.network.Network.set_remote_load`).  The
remote figure is at most one window stale (the bounded-staleness
contract; the peak ``(own + remote) / capacity`` oversubscription is
*measured* into :attr:`ShardResult.boundary`, not assumed away), and
because the sequential ``workers=1`` driver runs the identical protocol
in the identical shard order, ``workers=N`` stays bit-identical to the
sequential reference in the crossing case too.  Disjoint fleets
(``cross_shard_fraction == 0``) skip the exchange entirely and remain
byte-identical to the original single-wait lockstep.

Merge semantics: per-client metrics concatenate in shard order (the
contiguous partition preserves global client order); event/transfer
fingerprint streams concatenate the same way; counters sum; wall-clock is
the slowest shard (parallel makespan) with per-shard times retained for
the events/s-per-core curve in ``BENCH_scale.json``.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import asdict, dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
)

from ..lightfield.source import ViewSetSource
from ..obs.fleet import FleetTrace, WorkerTelemetry, export_telemetry, stitch
from ..obs.flightrec import FlightRecorder
from ..streaming.metrics import SessionMetrics
from ..streaming.multiclient import (
    MultiClientConfig,
    build_multiclient_rig,
)

#: plain-data fault spec, picklable into worker processes:
#: ``{"kind": "depot-outage", "depot": str, "start": float,
#: "duration": float}`` plus optional ``"neighbor"`` (defaults to the
#: depot's switch) and ``"shard"`` (restricts injection to one shard —
#: every shard owns identically-named depot groups, so an unrestricted
#: fault hits all of them).
FaultSpec = Dict[str, object]

__all__ = [
    "AccessLogRecord",
    "BOUNDARY_LINKS",
    "BoundaryExchange",
    "ExchangeMonitorLike",
    "FaultSpec",
    "ShardResult",
    "ShardedResult",
    "partition_clients",
    "run_shard",
    "run_sharded_session",
]

#: default conservative sync window (simulated seconds).  Shards share no
#: state, so the window only bounds worker skew; one cursor step period is
#: a natural granule.
DEFAULT_WINDOW = 30.0

#: seconds a worker will wait at the window barrier before declaring the
#: fleet broken (a sibling died mid-window)
BARRIER_TIMEOUT = 600.0

# typing alias for the picklable per-shard stream records
EventRecord = Tuple[str, int, str]
TransferRecord = Tuple[str, str, str, str, str]

#: a boundary link as an ordered node pair
BoundaryLink = Tuple[str, str]

#: one monitored access to the shared boundary table:
#: ``(seq, epoch, op, worker, row, col, value, frames)`` — ``seq`` is the
#: recording process's own counter, ``epoch`` its barrier-window vector
#: clock (under a global barrier every worker's vector clock collapses to
#: its scalar barrier-crossing count), ``op`` is ``"write"``/``"read"``,
#: ``row``/``col`` address the accessed cell and ``frames`` is a short
#: stack summary for localization.  Plain tuples: the log must pickle
#: back through the result queue.
AccessLogRecord = Tuple[int, int, str, int, int, int, float,
                        Tuple[str, ...]]


class ExchangeMonitorLike(Protocol):
    """Duck type the exchange accepts as an access monitor.

    Implemented by :class:`repro.analysis.races.ExchangeMonitor`;
    declared here as a Protocol so the simulator core never imports the
    analysis package.
    """

    def record(self, op: str, worker: int, row: int, col: int,
               value: float) -> None:
        """One cell access by ``worker`` in the current epoch."""
        ...

    def advance(self) -> None:
        """A barrier was crossed: bump this process's epoch clock."""
        ...

    def drain(self) -> List[AccessLogRecord]:
        """Return (and detach) the records collected so far."""
        ...

#: links every shard's copy of the topology may share with its siblings.
#: Today that is the campus backbone uplink created by
#: ``MultiClientConfig.cross_shard_fraction > 0``; a shard whose client
#: block has no crossing clients simply lacks the link (its published
#: load reads 0.0 and remote loads are not applied there).
BOUNDARY_LINKS: Tuple[BoundaryLink, ...] = (("xs-switch", "wan-router"),)


class BoundaryExchange:
    """Shared table of per-shard boundary-link loads.

    One row per shard, one column per boundary link.  Backed by a raw
    ``multiprocessing`` double array when built with a context (workers
    inherit it through ``Process`` args) or a plain list for the
    in-process lockstep driver.  :meth:`remote` sums the *other* shards'
    cells in ascending shard order — a fixed float-accumulation order, so
    the sequential and parallel drivers produce bit-identical totals.
    """

    def __init__(
        self,
        n_shards: int,
        links: Tuple[BoundaryLink, ...] = BOUNDARY_LINKS,
        ctx: Optional[Any] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.links = tuple(links)
        self.n_shards = n_shards
        size = n_shards * len(self.links)
        # ctypes double array and list share the indexing protocol
        self._cells: Any = (
            ctx.Array("d", size, lock=False) if ctx is not None
            else [0.0] * size
        )
        #: optional happens-before monitor (see :meth:`attach_monitor`)
        self._monitor: Optional[ExchangeMonitorLike] = None

    def attach_monitor(self, monitor: ExchangeMonitorLike) -> None:
        """Log every cell access into ``monitor`` (race verification).

        Each process keeps its own monitor copy (the wrapper object is
        forked/pickled per worker while the cells stay shared), so the
        records and the epoch clock are per-worker by construction —
        exactly the shape the happens-before check needs.
        """
        self._monitor = monitor

    def barrier_crossed(self) -> None:
        """Hook the drivers call after every barrier crossing.

        A no-op without a monitor; with one it advances this process's
        barrier-window epoch so each access is stamped with the phase it
        executed in.
        """
        if self._monitor is not None:
            self._monitor.advance()

    def drain_monitor(self) -> Optional[List[AccessLogRecord]]:
        """This process's access log, or ``None`` when unmonitored."""
        if self._monitor is None:
            return None
        return self._monitor.drain()

    def publish(
        self, shard_id: int, loads: Mapping[BoundaryLink, float]
    ) -> None:
        """Record one shard's boundary loads for this window."""
        base = shard_id * len(self.links)
        for k, lk in enumerate(self.links):
            value = loads.get(lk, 0.0)
            self._cells[base + k] = value
            if self._monitor is not None:
                self._monitor.record("write", shard_id, shard_id, k, value)

    def remote(self, shard_id: int) -> Dict[BoundaryLink, float]:
        """Sum of every *other* shard's load per boundary link."""
        m = len(self.links)
        out: Dict[BoundaryLink, float] = {}
        for k, lk in enumerate(self.links):
            total = 0.0
            for j in range(self.n_shards):
                if j != shard_id:
                    cell = self._cells[j * m + k]
                    total += cell
                    if self._monitor is not None:
                        self._monitor.record("read", shard_id, j, k, cell)
            out[lk] = total
        return out


def partition_clients(
    n_clients: int, n_shards: int
) -> List[Tuple[int, int]]:
    """Split ``n_clients`` into ``n_shards`` contiguous ``(start, count)``
    blocks.

    Contiguity keeps merged per-client order equal to global client order;
    the first ``n_clients % n_shards`` shards take one extra client.  Empty
    shards are never produced: with more shards than clients the tail
    shards are dropped.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    n_shards = min(n_shards, n_clients)
    base, extra = divmod(n_clients, n_shards)
    blocks: List[Tuple[int, int]] = []
    start = 0
    for s in range(n_shards):
        count = base + (1 if s < extra else 0)
        blocks.append((start, count))
        start += count
    return blocks


@dataclass
class ShardResult:
    """Everything one shard reports back (plain picklable data)."""

    shard_id: int
    n_clients: int
    client_index_base: int
    #: host seconds this shard's simulation loop was running; barrier
    #: waits and sibling shards' turns (lockstep driver) are not counted
    wall_seconds: float
    events_fired: int
    sim_seconds: float
    rebalance: Dict[str, int]
    queue_compactions: int
    deduped_transfers: int
    promoted_transfers: int
    #: scheduler admission counters (batches flushed, submissions
    #: coalesced, scalar fallbacks) — the vectorized-path liveness signal
    admission: Dict[str, int] = field(default_factory=dict)
    #: boundary-exchange measurements (crossing runs only): window count,
    #: staleness bound (seconds), max own/remote load and the peak
    #: oversubscription ratio ``(own + remote) / capacity``
    boundary: Optional[Dict[str, float]] = None
    #: per-client metrics with tracer/obs handles stripped (cross-process)
    per_client: List[SessionMetrics] = field(default_factory=list)
    #: (time.hex(), seq, label) per fired event — only when collected
    events: Optional[List[EventRecord]] = None
    #: transfer lifecycle records — only when collected
    transfers: Optional[List[TransferRecord]] = None
    #: this worker's telemetry export (only when the shard ran traced);
    #: :meth:`ShardedResult.stitched` merges these into one fleet timeline
    telemetry: Optional[WorkerTelemetry] = None
    #: flight-recorder dump files written by this shard
    flight_dumps: List[str] = field(default_factory=list)
    #: boundary-table access log (only when the exchange was monitored);
    #: the sequential lockstep driver attaches the fleet-wide log to
    #: shard 0 — its single monitor observes every shard's accesses
    access_log: Optional[List[AccessLogRecord]] = None


@dataclass
class ShardedResult:
    """Deterministic merge of every shard's result."""

    shards: List[ShardResult]
    workers: int
    window: float

    @property
    def events_fired(self) -> int:
        """Total events fired across the fleet."""
        return sum(s.events_fired for s in self.shards)

    @property
    def wall_seconds(self) -> float:
        """Parallel makespan: the slowest shard's simulation loop."""
        return max(s.wall_seconds for s in self.shards)

    @property
    def cpu_seconds(self) -> float:
        """Total single-core work across shards (the per-core curve input)."""
        return sum(s.wall_seconds for s in self.shards)

    @property
    def sim_seconds(self) -> float:
        """Simulated horizon reached (max across shards)."""
        return max(s.sim_seconds for s in self.shards)

    @property
    def events_per_second(self) -> float:
        """Fleet events/s against the parallel makespan."""
        wall = self.wall_seconds
        return self.events_fired / wall if wall else 0.0

    @property
    def per_client(self) -> List[SessionMetrics]:
        """Per-client metrics in global client order."""
        return [m for s in self.shards for m in s.per_client]

    def rebalance_totals(self) -> Dict[str, int]:
        """Key-wise sum of every shard's rebalance counters."""
        out: Dict[str, int] = {}
        for s in self.shards:
            for k, v in s.rebalance.items():
                out[k] = out.get(k, 0) + v
        return out

    def merged_events(self) -> List[EventRecord]:
        """Event streams concatenated in shard order (fingerprint input)."""
        out: List[EventRecord] = []
        for s in self.shards:
            if s.events is None:
                raise ValueError(
                    f"shard {s.shard_id} did not collect event streams"
                )
            out.extend(s.events)
        return out

    def merged_transfers(self) -> List[TransferRecord]:
        """Transfer streams concatenated in shard order."""
        out: List[TransferRecord] = []
        for s in self.shards:
            if s.transfers is None:
                raise ValueError(
                    f"shard {s.shard_id} did not collect transfer streams"
                )
            out.extend(s.transfers)
        return out

    def stitched(self) -> FleetTrace:
        """Merge every shard's telemetry into one fleet timeline.

        Requires the run to have been traced (``base.tracing=True``):
        each shard then exports a :class:`WorkerTelemetry` and the
        stitcher re-bases ids, annotates spans with their worker, and
        merges registries with exact histogram merge.
        """
        telems: List[WorkerTelemetry] = []
        for s in self.shards:
            if s.telemetry is None:
                raise ValueError(
                    f"shard {s.shard_id} ran without tracing; "
                    "enable config.base.tracing to stitch a fleet trace"
                )
            telems.append(s.telemetry)
        return stitch(telems)

    @property
    def flight_dumps(self) -> List[str]:
        """Every shard's flight-recorder dump paths, in shard order."""
        return [p for s in self.shards for p in s.flight_dumps]

    def aggregate(self) -> Dict[str, object]:
        """Fleet-level summary in the MultiClientResult.aggregate() shape."""
        accesses = [a for m in self.per_client for a in m.accesses]
        n = len(accesses)
        mean_latency = (
            sum(a.total_latency for a in accesses) / n if n else 0.0
        )
        out: Dict[str, object] = {
            "n_clients": sum(s.n_clients for s in self.shards),
            "accesses": n,
            "mean_latency": round(mean_latency, 4),
            "n_shards": len(self.shards),
            "workers": self.workers,
            "events_fired": self.events_fired,
            "events_per_second": round(self.events_per_second, 1),
            "wall_seconds": round(self.wall_seconds, 3),
            "cpu_seconds": round(self.cpu_seconds, 3),
            "sim_seconds": round(self.sim_seconds, 2),
            "queue_compactions": sum(
                s.queue_compactions for s in self.shards
            ),
            "deduped_transfers": sum(
                s.deduped_transfers for s in self.shards
            ),
            "promoted_transfers": sum(
                s.promoted_transfers for s in self.shards
            ),
        }
        for k, v in self.rebalance_totals().items():
            out[f"rebalance_{k}"] = v
        admission: Dict[str, int] = {}
        for s in self.shards:
            for k, n_adm in s.admission.items():
                admission[k] = admission.get(k, 0) + n_adm
        for k, n_adm in admission.items():
            out[f"admission_{k}"] = n_adm
        bounds = [s.boundary for s in self.shards if s.boundary is not None]
        if bounds:
            out["boundary_staleness_bound"] = self.window
            out["boundary_windows"] = max(
                int(b["windows"]) for b in bounds
            )
            out["boundary_max_oversubscription"] = round(
                max(b["max_oversubscription"] for b in bounds), 4
            )
        return out


def _global_horizon(
    source: ViewSetSource,
    config: MultiClientConfig,
    settle_seconds: float,
) -> float:
    """The fleet-wide simulated stop time.

    Every barrier-synchronized worker must walk the same window sequence,
    so the horizon is derived from *all* clients' traces (regenerated
    here — trace synthesis is deterministic and cheap), not each shard's
    local subset.
    """
    from ..streaming.trace import standard_trace

    base = config.base
    longest = 0.0
    for i in range(config.n_clients):
        g = config.client_index_base + i
        trace = standard_trace(
            source.lattice,
            n_accesses=base.n_accesses,
            step_period=base.step_period,
            seed=base.trace_seed + g * config.seed_stride,
            heading_noise=base.heading_noise,
        ).shifted(g * config.start_stagger)
        longest = max(longest, trace.duration)
    return longest + settle_seconds


def _shard_config(
    config: MultiClientConfig, start: int, count: int, shard_id: int = 0
) -> MultiClientConfig:
    """The sub-fleet config for one shard (global identity preserved).

    The shard's registry namespace (``shard<N>``) keeps its metric names
    distinct in a merged fleet registry — the same depot group names
    recur in every shard's rig.
    """
    return replace(
        config,
        n_clients=count,
        client_index_base=config.client_index_base + start,
        obs_namespace=f"shard{shard_id}",
    )


def _shard_session(
    source: ViewSetSource,
    config: MultiClientConfig,
    shard_id: int,
    settle_seconds: float,
    window: float,
    collect_streams: bool,
    horizon: Optional[float],
    faults: Optional[List[FaultSpec]],
    flight_dir: Optional[str],
    links: Tuple[BoundaryLink, ...],
) -> Generator[
    Dict[BoundaryLink, float],
    Optional[Dict[BoundaryLink, float]],
    ShardResult,
]:
    """One shard's windowed run as a coroutine.

    Setup runs up to the first (empty) yield.  Each later resume advances
    one window and yields this shard's boundary-link loads; the driver
    sends back the remote total per link (``None`` when no exchange is
    active), which is applied through
    :meth:`~repro.lon.network.Network.set_remote_load` before the next
    window runs — so every remote figure is at most one window stale.
    The :class:`ShardResult` is the generator's return value.
    """
    from ..analysis.determinism import _attach_collectors

    rig = build_multiclient_rig(source, config)
    worker_label = config.obs_namespace or f"shard{shard_id}"
    recorder: Optional[FlightRecorder] = None
    if rig.tracer is not None and (faults or flight_dir is not None):
        recorder = FlightRecorder(worker=worker_label)
        recorder.attach(rig.tracer)
    for fault in faults or ():
        if "shard" in fault and int(fault["shard"]) != shard_id:  # type: ignore[arg-type]
            continue
        kind = str(fault.get("kind", "depot-outage"))
        if kind != "depot-outage":
            raise ValueError(f"unknown fault kind {kind!r}")
        depot = str(fault["depot"])
        neighbor = str(
            fault.get("neighbor")
            or ("lan-switch" if depot.startswith("lan-") else "wan-router")
        )
        from .faults import DepotOutage

        DepotOutage(rig.network, depot, neighbor).schedule(
            rig.queue,
            float(fault["start"]),  # type: ignore[arg-type]
            float(fault["duration"]),  # type: ignore[arg-type]
            recorder=recorder,
        )
    # synthesize (and cache) every payload up front: dataset generation is
    # not simulation work and must not pollute the wall-time measurement
    for key in source.lattice.all_viewsets():
        source.payload(key)
    events: List[EventRecord] = []
    transfers: List[TransferRecord] = []
    if collect_streams:
        _attach_collectors(rig.queue, rig.scheduler, events, transfers)
    for staging in rig.stagings:
        staging.start()
    for sampler in rig.samplers:
        sampler.start()
    for client, trace in zip(rig.clients, rig.traces):
        client.schedule_trace(trace)
    if horizon is None:
        horizon = max(t.duration for t in rig.traces) + settle_seconds
    if window <= 0:
        raise ValueError("window must be positive")
    net = rig.network
    caps = {lk: net.link_capacity(*lk) for lk in links}
    boundary: Optional[Dict[str, float]] = None
    yield {}  # setup complete — the driver may start its clock
    # measuring how fast the *simulator* runs, not simulated time.  The
    # interval closes across every yield: under the lockstep driver the
    # sibling shards run there, and counting their time once per shard
    # inflated ``ShardedResult.cpu_seconds`` n_shards-fold.
    wall = 0.0
    t0 = time.perf_counter()  # repro: allow[SIM001]
    t = 0.0
    while t < horizon:
        t = min(t + window, horizon)
        rig.queue.run_until(t, max_events=200_000_000)
        own = {lk: net.link_load(*lk) for lk in links}
        wall += time.perf_counter() - t0  # repro: allow[SIM001]
        remote = yield own
        t0 = time.perf_counter()  # repro: allow[SIM001]
        if remote is not None:
            if boundary is None:
                boundary = {
                    "windows": 0.0,
                    "staleness_bound": window,
                    "max_own_load": 0.0,
                    "max_remote_load": 0.0,
                    "max_oversubscription": 0.0,
                }
            boundary["windows"] += 1.0
            for lk in links:
                o = own.get(lk, 0.0)
                r = remote.get(lk, 0.0)
                boundary["max_own_load"] = max(boundary["max_own_load"], o)
                boundary["max_remote_load"] = max(
                    boundary["max_remote_load"], r
                )
                if caps[lk] > 0.0:
                    boundary["max_oversubscription"] = max(
                        boundary["max_oversubscription"],
                        (o + r) / caps[lk],
                    )
                if net.has_link(*lk):
                    net.set_remote_load(lk[0], lk[1], r)
    for staging in rig.stagings:
        staging.stop()
    for sampler in rig.samplers:
        sampler.stop()
    rig.queue.run_until(horizon + settle_seconds, max_events=200_000_000)
    wall += time.perf_counter() - t0  # repro: allow[SIM001]
    if rig.tracer is not None:
        rig.tracer.finish_open()
    telemetry: Optional[WorkerTelemetry] = None
    if rig.tracer is not None:
        telemetry = export_telemetry(worker_label, rig.tracer, rig.obs)
    flight_dumps: List[str] = []
    if recorder is not None:
        recorder.detach()
        if flight_dir is not None and recorder.dumps:
            flight_dumps = recorder.write_dumps(
                flight_dir, prefix=worker_label
            )
    for m, agent, staging in zip(
        rig.metrics, rig.client_agents,
        rig.stagings if rig.stagings else [None] * len(rig.metrics),
    ):
        m.prefetch_used = agent.stats.prefetch_hits
        if staging is not None:
            m.staged_count = staging.stats.staged
            m.staged_bytes = staging.stats.bytes_staged
        # strip live handles: metrics must cross the process boundary
        m.tracer = None
        m.obs = None
    return ShardResult(
        shard_id=shard_id,
        n_clients=config.n_clients,
        client_index_base=config.client_index_base,
        wall_seconds=wall,
        events_fired=rig.queue.fired_total,
        sim_seconds=rig.queue.now,
        rebalance=asdict(rig.network.stats),
        queue_compactions=rig.queue.compactions,
        deduped_transfers=rig.scheduler.registry.stats.deduped,
        promoted_transfers=rig.scheduler.registry.stats.promoted,
        admission={
            "batches_flushed": rig.scheduler.stats.batches_flushed,
            "submissions_coalesced":
                rig.scheduler.stats.submissions_coalesced,
            "scalar_fallbacks": rig.scheduler.stats.scalar_fallbacks,
        },
        boundary=boundary,
        per_client=list(rig.metrics),
        events=events if collect_streams else None,
        transfers=transfers if collect_streams else None,
        telemetry=telemetry,
        flight_dumps=flight_dumps,
    )


def run_shard(
    source: ViewSetSource,
    config: MultiClientConfig,
    shard_id: int = 0,
    settle_seconds: float = 60.0,
    window: float = DEFAULT_WINDOW,
    collect_streams: bool = False,
    barrier: Optional[Any] = None,
    horizon: Optional[float] = None,
    faults: Optional[List[FaultSpec]] = None,
    flight_dir: Optional[str] = None,
    exchange: Optional[BoundaryExchange] = None,
) -> ShardResult:
    """Run one shard's rig to completion, window by window.

    ``barrier`` (a ``multiprocessing.Barrier``) makes parallel workers
    advance in conservative lockstep; ``None`` runs the same windows
    without waiting.  Either way the event stream is identical to a
    single ``run_until`` over the whole horizon — intermediate horizons
    only bound how far ahead of its siblings a shard may run.

    ``exchange`` (a :class:`BoundaryExchange`) activates the two-phase
    boundary protocol: after every window the shard publishes its
    boundary-link loads, waits at the barrier, reads the other shards'
    total, and waits again so no sibling overwrites a cell before every
    reader is done.  Without an exchange the loop is the original
    single-wait lockstep and the run is bit-identical to a disjoint
    fleet's.

    ``horizon`` is the simulated stop time *shared by the whole fleet*:
    barrier-synchronized workers must all walk the same window sequence,
    so :func:`run_sharded_session` computes one global horizon and hands
    it to every shard.  ``None`` (standalone use) derives it from this
    shard's own traces.

    ``faults`` are plain-data :data:`FaultSpec` dicts, scheduled before
    the run; a traced shard attaches a flight recorder so each fault
    freezes the telemetry that preceded it, and ``flight_dir`` (when
    given) receives one dump file per trigger.
    """
    links = exchange.links if exchange is not None else ()
    session = _shard_session(
        source, config, shard_id, settle_seconds, window, collect_streams,
        horizon, faults, flight_dir, links,
    )
    next(session)  # run setup
    remote: Optional[Dict[BoundaryLink, float]] = None
    while True:
        try:
            own = session.send(remote)
        except StopIteration as stop:
            result: ShardResult = stop.value
            if exchange is not None:
                result.access_log = exchange.drain_monitor()
            return result
        if exchange is not None:
            exchange.publish(shard_id, own)
            if barrier is not None:
                barrier.wait(BARRIER_TIMEOUT)
            exchange.barrier_crossed()
            remote = exchange.remote(shard_id)
            if barrier is not None:
                barrier.wait(BARRIER_TIMEOUT)
            exchange.barrier_crossed()
        elif barrier is not None:
            barrier.wait(BARRIER_TIMEOUT)


def _run_lockstep(
    source: ViewSetSource,
    config: MultiClientConfig,
    blocks: List[Tuple[int, int]],
    exchange: BoundaryExchange,
    settle_seconds: float,
    window: float,
    collect_streams: bool,
    horizon: float,
    faults: Optional[List[FaultSpec]],
    flight_dir: Optional[str],
) -> List[ShardResult]:
    """Sequential reference for the crossing case.

    Every shard's session advances one window per round; boundary loads
    are exchanged between rounds — the same publish → read protocol the
    parallel workers run behind the barrier, in the same fixed shard
    order, so ``workers=N`` is bit-identical to this driver.
    """
    sessions = [
        _shard_session(
            source, _shard_config(config, start, count, sid), sid,
            settle_seconds, window, collect_streams, horizon, faults,
            flight_dir, exchange.links,
        )
        for sid, (start, count) in enumerate(blocks)
    ]
    for session in sessions:
        next(session)  # run setup
    n = len(sessions)
    remotes: List[Optional[Dict[BoundaryLink, float]]] = [None] * n
    while True:
        done: List[ShardResult] = []
        for sid, session in enumerate(sessions):
            try:
                exchange.publish(sid, session.send(remotes[sid]))
            except StopIteration as stop:
                done.append(stop.value)
        if done:
            if len(done) != n:
                raise RuntimeError(
                    "shards diverged in window count; horizon and window "
                    "must be fleet-global"
                )
            # the fleet-wide access log rides on shard 0 (one in-process
            # monitor observed every shard's accesses)
            done[0].access_log = exchange.drain_monitor()
            return done
        # phase boundary: every shard has published this window's loads
        exchange.barrier_crossed()
        for sid in range(n):
            remotes[sid] = exchange.remote(sid)
        # phase boundary: every shard has read; cells may be overwritten
        exchange.barrier_crossed()


def _worker(
    source: ViewSetSource,
    config: MultiClientConfig,
    shard_id: int,
    settle_seconds: float,
    window: float,
    collect_streams: bool,
    barrier: Any,
    horizon: float,
    faults: Optional[List[FaultSpec]],
    flight_dir: Optional[str],
    exchange: Optional[BoundaryExchange],
    out: Any,
) -> None:
    """Worker-process entry point: run one shard, ship the result back."""
    try:
        result = run_shard(
            source, config, shard_id,
            settle_seconds=settle_seconds, window=window,
            collect_streams=collect_streams, barrier=barrier,
            horizon=horizon, faults=faults, flight_dir=flight_dir,
            exchange=exchange,
        )
        out.put((shard_id, result, None))
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        out.put((shard_id, None, repr(exc)))


def _default_exchange_factory(
    n_shards: int, ctx: Optional[Any]
) -> BoundaryExchange:
    """The stock exchange — shared ``mp.Array`` cells when ``ctx`` given."""
    return BoundaryExchange(n_shards, ctx=ctx)


def run_sharded_session(
    source: ViewSetSource,
    config: MultiClientConfig,
    n_shards: int,
    workers: Optional[int] = None,
    settle_seconds: float = 60.0,
    window: float = DEFAULT_WINDOW,
    collect_streams: bool = False,
    start_method: Optional[str] = None,
    faults: Optional[List[FaultSpec]] = None,
    flight_dir: Optional[str] = None,
    exchange_factory: Optional[
        Callable[[int, Optional[Any]], BoundaryExchange]
    ] = None,
) -> ShardedResult:
    """Partition the fleet into ``n_shards`` rigs and run them all.

    ``workers=1`` runs every shard sequentially in this process —
    the reference execution the parallel path must match bit-for-bit.
    ``workers=None`` uses one process per shard.  ``start_method``
    prefers ``fork`` (rig state inherited copy-on-write) and falls back
    to ``spawn`` where fork is unavailable.

    ``faults``/``flight_dir`` forward to every shard (see
    :func:`run_shard`); a fault spec carrying a ``"shard"`` key only
    fires in that shard.

    ``exchange_factory`` replaces the default
    ``BoundaryExchange(n_shards, ctx=ctx)`` construction (``ctx`` is
    ``None`` for the sequential driver).  The race verifier uses it to
    install a monitored — or deliberately protocol-violating — exchange
    without touching the drivers.  Only consulted when the run actually
    crosses shards.
    """
    blocks = partition_clients(config.n_clients, n_shards)
    if workers is None:
        workers = len(blocks)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, len(blocks))
    horizon = _global_horizon(source, config, settle_seconds)
    # shards only interact when crossing clients put load on a shared
    # boundary link; disjoint fleets keep the exchange-free fast path
    crossing = config.cross_shard_fraction > 0.0 and len(blocks) > 1

    if exchange_factory is None:
        exchange_factory = _default_exchange_factory

    if workers == 1 or len(blocks) == 1:
        if crossing:
            shards = _run_lockstep(
                source, config, blocks, exchange_factory(len(blocks), None),
                settle_seconds, window, collect_streams, horizon,
                faults, flight_dir,
            )
            return ShardedResult(shards=shards, workers=1, window=window)
        shards = [
            run_shard(
                source, _shard_config(config, start, count, shard_id),
                shard_id,
                settle_seconds=settle_seconds, window=window,
                collect_streams=collect_streams, horizon=horizon,
                faults=faults, flight_dir=flight_dir,
            )
            for shard_id, (start, count) in enumerate(blocks)
        ]
        return ShardedResult(shards=shards, workers=1, window=window)

    available = mp.get_all_start_methods()
    if start_method is not None and start_method not in available:
        raise ValueError(
            f"start method {start_method!r} unavailable; "
            f"choose from {available}"
        )
    method = start_method or ("fork" if "fork" in available else "spawn")
    ctx = mp.get_context(method)
    # one process per shard; the barrier holds every worker to the same
    # window so no shard runs unboundedly ahead of its siblings
    barrier = ctx.Barrier(len(blocks))
    exchange = (
        exchange_factory(len(blocks), ctx) if crossing else None
    )
    out = ctx.Queue()
    procs: List[Any] = []
    for shard_id, (start, count) in enumerate(blocks):
        p = ctx.Process(
            target=_worker,
            args=(
                source, _shard_config(config, start, count, shard_id),
                shard_id,
                settle_seconds, window, collect_streams, barrier,
                horizon, faults, flight_dir, exchange, out,
            ),
            name=f"shard-{shard_id}",
        )
        p.start()
        procs.append(p)
    results: Dict[int, ShardResult] = {}
    error: Optional[str] = None
    for _ in procs:
        shard_id, result, err = out.get()
        if err is not None:
            error = error or f"shard {shard_id} failed: {err}"
        else:
            results[shard_id] = result
    for p in procs:
        p.join()
    if error is not None:
        raise RuntimeError(error)
    shards = [results[i] for i in range(len(blocks))]
    return ShardedResult(shards=shards, workers=workers, window=window)
