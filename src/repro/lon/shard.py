"""Sharded parallel simulation: one logical client fleet, many rigs.

The fleet entry point (:mod:`repro.streaming.multiclient`) puts every
client on one shared fabric — right when clients contend for one WAN
bottleneck, but the whole fleet then runs through a single event queue.
At population scale depot fleets are provisioned per site and clients
pinned to different depot groups never share a link, so the fleet is
partitioned into **shards**: contiguous client blocks, each wired as its
own testbed and driven by the same session engine
(:func:`~repro.streaming.session.run_testbed`) window by window — in
worker processes when requested — with results merged deterministically.
This module adds only what is shard-specific: the partition, fault
scheduling and the flight recorder, the boundary exchange between
windows, telemetry export, and the drivers.

Synchronization is conservative time-window lockstep: workers advance one
window, then wait at a barrier.  Windows only bound skew — a windowed run
fires the same events, in the same order, at the same times as a single
``run_until`` — so ``workers=N`` is bit-identical to ``workers=1``
(``tests/lon/test_shard.py`` compares the merged event and transfer
streams).

Fleets need not be link-disjoint.  With
``MultiClientConfig.cross_shard_fraction > 0`` every shard's crossing
clients load a *shared* campus backbone (``xs-switch`` <->
``wan-router``); shards then run a two-phase exchange at the barrier —
publish own boundary load, wait, read the siblings' total, wait — and
reserve the remote total against the link's effective bandwidth
(:meth:`~repro.lon.network.Network.set_remote_load`).  The remote figure
is at most one window stale (the bounded-staleness contract; the peak
``(own + remote) / capacity`` oversubscription is *measured* into
:attr:`ShardResult.boundary`), and the sequential ``workers=1`` driver
runs the identical protocol in the identical shard order, so the
crossing case stays bit-identical too.  Disjoint fleets skip the
exchange entirely.  One driver (:func:`_drive`) runs both.

Merge semantics: per-client metrics and fingerprint streams concatenate
in shard order (the contiguous partition preserves global client order);
counters sum; wall-clock is the slowest shard (parallel makespan) with
per-shard times retained for the events/s-per-core curve in
``BENCH_scale.json``.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import numbers
from dataclasses import dataclass, field, replace
from threading import BrokenBarrierError
from typing import (
    Any,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeGuard,
)

from .. import processes
from ..lightfield.source import ViewSetSource
from ..obs.fleet import FleetTrace, WorkerTelemetry, export_telemetry, stitch
from ..obs.flightrec import FlightRecorder
from ..streaming.metrics import SessionMetrics
from ..streaming.multiclient import (
    MultiClientConfig,
    build_multiclient_rig,
    fleet_summary,
    fleet_traces,
)
from ..streaming.session import (
    SETTLE_SECONDS,
    EventRecord,
    RunTotals,
    TransferRecord,
    attach_stream_collectors,
    run_testbed,
)
from ..streaming.trace import CursorTrace
from .faults import DepotOutage

#: plain-data fault spec, picklable into worker processes:
#: ``{"kind": "depot-outage", "depot": str, "start": float,
#: "duration": float}`` plus optional ``"neighbor"`` (defaults to the
#: depot's switch) and ``"shard"`` (restricts injection to one shard —
#: every shard owns identically-named depot groups, so an unrestricted
#: fault hits all of them).
FaultSpec = Dict[str, object]

__all__ = [
    "BOUNDARY_LINKS",
    "BoundaryExchange",
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

#: a boundary link as an ordered node pair
BoundaryLink = Tuple[str, str]

#: links every shard's copy of the topology may share with its siblings.
#: Today that is the campus backbone uplink created by
#: ``MultiClientConfig.cross_shard_fraction > 0``; a shard whose client
#: block has no crossing clients simply lacks the link (its published
#: load reads 0.0 and remote loads are not applied there).
BOUNDARY_LINKS: Tuple[BoundaryLink, ...] = (("xs-switch", "wan-router"),)


class BoundaryExchange:
    """Shared table of per-shard boundary-link loads.

    One row per shard, one column per boundary link, in one shared-memory
    double array (``multiprocessing.RawArray``).  Worker processes inherit
    it through ``Process`` args and the sequential driver uses the same
    cells, so both paths read and write one store.  :meth:`remote` sums the
    *other* shards' cells in ascending shard order — a fixed
    float-accumulation order, so the sequential and parallel drivers
    produce bit-identical totals.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.links = BOUNDARY_LINKS
        self.n_shards = n_shards
        self._cells: Any = mp.RawArray("d", n_shards * len(self.links))

    def publish(
        self, shard_id: int, loads: Mapping[BoundaryLink, float]
    ) -> None:
        """Record one shard's boundary loads for this window."""
        base = shard_id * len(self.links)
        for k, lk in enumerate(self.links):
            self._cells[base + k] = loads.get(lk, 0.0)

    def remote(self, shard_id: int) -> Dict[BoundaryLink, float]:
        """Sum of every *other* shard's load per boundary link."""
        m = len(self.links)
        out: Dict[BoundaryLink, float] = {}
        for k, lk in enumerate(self.links):
            total = 0.0
            for j in range(self.n_shards):
                if j != shard_id:
                    total += self._cells[j * m + k]
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
class ShardResult(RunTotals):
    """Everything one shard reports back (plain picklable data).

    ``wall_seconds`` counts this shard's simulation loop only: barrier
    waits, the boundary exchange and sibling shards' turns (lockstep
    driver) are outside it.
    """

    shard_id: int
    n_clients: int
    client_index_base: int
    #: boundary-exchange measurements (crossing runs only): window count,
    #: staleness bound (seconds), max own/remote load and the peak
    #: oversubscription ratio ``(own + remote) / capacity``
    boundary: Optional[Dict[str, float]] = None
    #: per-client metrics with the tracer handle stripped (cross-process)
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


def _sum_counts(counts: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Key-wise sum of counter dicts (a zero count keeps its key)."""
    out: Dict[str, int] = {}
    for d in counts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


@dataclass
class ShardedResult(RunTotals):
    """Deterministic merge of every shard's result (:func:`merge_shards`).

    As :class:`RunTotals` it reads fleet-wide: counters sum over the
    shards, ``wall_seconds`` is the parallel makespan (the slowest shard's
    simulation loop) and ``sim_seconds`` the farthest horizon reached.
    """

    shards: List[ShardResult]
    workers: int
    window: float

    @property
    def cpu_seconds(self) -> float:
        """Total single-core work across shards (the per-core curve input)."""
        return sum(s.wall_seconds for s in self.shards)

    @property
    def per_client(self) -> List[SessionMetrics]:
        """Per-client metrics in global client order."""
        return [m for s in self.shards for m in s.per_client]

    def _per_shard(self, attr: str, missing: str) -> List[Any]:
        """Every shard's optional ``attr`` in shard order; all must have it."""
        for s in self.shards:
            if getattr(s, attr) is None:
                raise ValueError(f"shard {s.shard_id} {missing}")
        return [getattr(s, attr) for s in self.shards]

    def telemetries(self) -> List[WorkerTelemetry]:
        """Every shard's :class:`WorkerTelemetry`, in shard order.

        Requires the run to have been traced (``base.tracing=True``).
        """
        return self._per_shard(
            "telemetry", "ran without tracing; enable config.base.tracing "
                         "to stitch a fleet trace")

    def stitched(self) -> FleetTrace:
        """Merge every shard's telemetry into one fleet timeline (the
        stitcher re-bases ids and annotates spans with their worker)."""
        return stitch(self.telemetries())

    @property
    def flight_dumps(self) -> List[str]:
        """Every shard's flight-recorder dump paths, in shard order."""
        return [p for s in self.shards for p in s.flight_dumps]

    def aggregate(self) -> Dict[str, object]:
        """:func:`~repro.streaming.multiclient.fleet_summary` plus the
        shard layout and, for crossing runs, the boundary measurements."""
        out = fleet_summary(self.per_client, self)
        out["n_shards"] = len(self.shards)
        out["workers"] = self.workers
        out["cpu_seconds"] = round(self.cpu_seconds, 3)
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


def merge_shards(
    shards: List[ShardResult], workers: int, window: float
) -> ShardedResult:
    """Merge per-shard results, given in shard order, into the fleet's."""
    return ShardedResult(
        wall_seconds=max(s.wall_seconds for s in shards),
        events_fired=sum(s.events_fired for s in shards),
        sim_seconds=max(s.sim_seconds for s in shards),
        rebalance=_sum_counts(s.rebalance for s in shards),
        queue_compactions=sum(s.queue_compactions for s in shards),
        deduped_transfers=sum(s.deduped_transfers for s in shards),
        promoted_transfers=sum(s.promoted_transfers for s in shards),
        admission=_sum_counts(s.admission for s in shards),
        shards=shards, workers=workers, window=window,
    )


def _is_real(value: object) -> TypeGuard[float]:
    """A finite number that is not a ``bool``."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _validate(
    window: float, faults: Optional[List[FaultSpec]],
    n_shards: Optional[int] = None,
) -> None:
    """Reject a bad window or fault spec before any rig or process exists.

    ``n_shards`` bounds a spec's ``"shard"`` key; a standalone shard does
    not know its fleet's size and passes ``None``.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    for fault in faults or ():
        kind = fault.get("kind", "depot-outage")
        if kind != "depot-outage":
            raise ValueError(f"unknown fault kind {kind!r}")
        missing = [k for k in ("depot", "start", "duration") if k not in fault]
        if missing:
            raise ValueError(f"fault spec {fault!r} lacks {missing}")
        start, duration = fault["start"], fault["duration"]
        if not (_is_real(start) and start >= 0):
            raise ValueError(
                f"fault spec {fault!r}: start must be a number >= 0")
        if not (_is_real(duration) and duration > 0):
            raise ValueError(
                f"fault spec {fault!r}: duration must be a number > 0")
        shard = fault.get("shard")
        if shard is None:
            continue
        # a bool is an int: ``"shard": True`` would run as shard 1
        if not isinstance(shard, numbers.Integral) or isinstance(shard, bool):
            raise ValueError(
                f"fault spec {fault!r}: shard must be an integer")
        if n_shards is not None and not 0 <= shard < n_shards:
            raise ValueError(
                f"fault spec {fault!r} names shard {shard!r}; "
                f"the fleet has shards 0..{n_shards - 1}"
            )


#: one shard's windowed run: yields its boundary loads after each window,
#: is sent the siblings' total (or ``None``), returns its result
_Session = Generator[
    Dict[BoundaryLink, float],
    Optional[Dict[BoundaryLink, float]],
    ShardResult,
]


def _shard_session(
    source: ViewSetSource,
    config: MultiClientConfig,
    shard_id: int,
    links: Tuple[BoundaryLink, ...],
    window: float,
    collect_streams: bool,
    horizon: Optional[float],
    faults: Optional[List[FaultSpec]],
    flight_dir: Optional[str],
    traces: Optional[List[CursorTrace]] = None,
) -> _Session:
    """One shard's windowed run as a coroutine.

    The first resume wires the rig; every resume advances the session
    engine (:func:`~repro.streaming.session.run_testbed`) one window and
    yields this shard's boundary-link loads.  The driver sends back the
    remote total per link (``None`` when no exchange is active), which is
    applied through :meth:`~repro.lon.network.Network.set_remote_load`
    before the next window runs — so every remote figure is at most one
    window stale.  The :class:`ShardResult` is the generator's return value.
    ``traces`` are this shard's slice of the fleet's, when already built.
    """
    _validate(window, faults)
    rig = build_multiclient_rig(source, config, traces)
    worker_label = config.obs_namespace or f"shard{shard_id}"
    recorder: Optional[FlightRecorder] = None
    if rig.tracer is not None and (faults or flight_dir is not None):
        recorder = FlightRecorder(worker=worker_label)
        recorder.attach(rig.tracer)
    for fault in faults or ():
        if fault.get("shard", shard_id) != shard_id:
            continue
        depot = str(fault["depot"])
        neighbor = str(
            fault.get("neighbor")
            or ("lan-switch" if depot.startswith("lan-") else "wan-router")
        )
        DepotOutage(rig.network, depot, neighbor).schedule(
            rig.queue,
            float(fault["start"]),  # type: ignore[arg-type]
            float(fault["duration"]),  # type: ignore[arg-type]
            recorder=recorder,
        )
    events: Optional[List[EventRecord]] = None
    transfers: Optional[List[TransferRecord]] = None
    if collect_streams:
        events, transfers = [], []
        attach_stream_collectors(rig.queue, rig.scheduler, events, transfers)
    net = rig.network
    caps = {lk: net.link_capacity(*lk) for lk in links}
    boundary: Optional[Dict[str, float]] = None
    run = run_testbed(rig, horizon, window)
    while True:
        try:
            next(run)
        except StopIteration as stop:
            totals: RunTotals = stop.value
            break
        own = {lk: net.link_load(*lk) for lk in links}
        remote = yield own
        if remote is None:
            continue
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
            boundary["max_remote_load"] = max(boundary["max_remote_load"], r)
            if caps[lk] > 0.0:
                boundary["max_oversubscription"] = max(
                    boundary["max_oversubscription"], (o + r) / caps[lk]
                )
            if net.has_link(*lk):
                net.set_remote_load(lk[0], lk[1], r)
    telemetry: Optional[WorkerTelemetry] = None
    if rig.tracer is not None:
        telemetry = export_telemetry(worker_label, rig.tracer)
    flight_dumps: List[str] = []
    if recorder is not None:
        recorder.detach()
        if flight_dir is not None and recorder.dumps:
            flight_dumps = recorder.write_dumps(
                flight_dir, prefix=worker_label
            )
    for m in rig.metrics:
        # strip the live handle: metrics must cross the process boundary
        m.tracer = None
    return ShardResult(
        **vars(totals),
        shard_id=shard_id,
        n_clients=config.n_clients,
        client_index_base=config.client_index_base,
        boundary=boundary,
        per_client=rig.metrics,
        events=events,
        transfers=transfers,
        telemetry=telemetry,
        flight_dumps=flight_dumps,
    )


def _drive(
    sessions: Dict[int, _Session],
    exchange: Optional[BoundaryExchange] = None,
    barrier: Optional[Any] = None,
) -> List[ShardResult]:
    """Run the sessions this process owns (``shard_id -> session``, in
    shard order) to completion, one window per round.

    A round is the two-phase protocol: every owned session advances a
    window and publishes its boundary loads, barrier, every owned session
    reads its siblings' total, barrier — no cell is overwritten before
    every reader is done.  A worker owns one session and shares
    ``barrier`` with its siblings; the sequential run owns them all and
    its loop order is the barrier, in the same shard order — which is why
    ``workers=N`` is bit-identical to it.  Without an ``exchange`` a
    round is one window and at most one wait.
    """
    remotes: Dict[int, Optional[Dict[BoundaryLink, float]]] = dict.fromkeys(
        sessions)
    while True:
        done: List[ShardResult] = []
        for sid, session in sessions.items():
            try:
                own = session.send(remotes[sid])
            except StopIteration as stop:
                done.append(stop.value)
                continue
            if exchange is not None:
                exchange.publish(sid, own)
        if done:
            if len(done) != len(sessions):
                raise RuntimeError(
                    "shards diverged in window count; horizon and window "
                    "must be fleet-global"
                )
            return done
        # phase boundary: every shard has published this window's loads
        if barrier is not None:
            barrier.wait(BARRIER_TIMEOUT)
        if exchange is None:
            continue
        for sid in sessions:
            remotes[sid] = exchange.remote(sid)
        # phase boundary: every shard has read; cells may be overwritten
        if barrier is not None:
            barrier.wait(BARRIER_TIMEOUT)


def run_shard(
    source: ViewSetSource,
    config: MultiClientConfig,
    shard_id: int = 0,
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
    boundary protocol of :func:`_drive`.  Without one the run is
    bit-identical to a disjoint fleet's.

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
    session = _shard_session(
        source, config, shard_id,
        exchange.links if exchange is not None else (),
        window, collect_streams, horizon, faults, flight_dir,
    )
    return _drive({shard_id: session}, exchange, barrier)[0]


def _worker(
    source: ViewSetSource,
    config: MultiClientConfig,
    shard_id: int,
    barrier: Any,
    exchange: Optional[BoundaryExchange],
    out: Any,
    options: Dict[str, Any],
) -> None:
    """Worker-process entry point: run one shard, ship the result back.

    A shard that raises breaks the barrier, so its siblings fail fast
    instead of waiting out ``BARRIER_TIMEOUT``; they report no error of
    their own — the shard that raised reports why.
    """
    try:
        result = run_shard(
            source, config, shard_id,
            barrier=barrier, exchange=exchange, **options)
        out.put((shard_id, result, None))
    except BrokenBarrierError:
        out.put((shard_id, None, None))
    except BaseException as exc:
        barrier.abort()
        out.put((shard_id, None, repr(exc)))
        if not isinstance(exc, Exception):
            raise


def run_sharded_session(
    source: ViewSetSource,
    config: MultiClientConfig,
    n_shards: int,
    workers: Optional[int] = None,
    window: float = DEFAULT_WINDOW,
    collect_streams: bool = False,
    faults: Optional[List[FaultSpec]] = None,
    flight_dir: Optional[str] = None,
) -> ShardedResult:
    """Partition the fleet into ``n_shards`` rigs and run them all.

    ``workers``: 1 = sequential, otherwise one process per shard.  The
    sequential run, every shard in this process, is the reference
    execution the parallel path must match bit-for-bit; any other value
    (``None`` included) starts ``n_shards`` processes, and
    :attr:`ShardedResult.workers` reports the processes that ran; they
    start as :func:`repro.processes.start_context` decides.

    ``faults``/``flight_dir`` forward to every shard (see
    :func:`run_shard`); a fault spec carrying a ``"shard"`` key only
    fires in that shard.  ``window`` and every fault spec are checked
    here, before a rig is built or a process started.
    """
    blocks = partition_clients(config.n_clients, n_shards)
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    workers = 1 if workers == 1 else len(blocks)
    _validate(window, faults, len(blocks))
    # each shard keeps its clients' global identity; its namespace keeps
    # series names distinct in a stitched fleet trace (the same depot names
    # recur in every shard's rig)
    configs = [
        replace(config, n_clients=count,
                client_index_base=config.client_index_base + start,
                obs_namespace=f"shard{shard_id}")
        for shard_id, (start, count) in enumerate(blocks)
    ]
    # every barrier-synchronized worker must walk the same window sequence,
    # so the stop time comes from all clients' traces, not a shard's own
    traces = fleet_traces(source.lattice, config)
    horizon = max(t.duration for t in traces) + SETTLE_SECONDS
    options: Dict[str, Any] = dict(
        window=window,
        collect_streams=collect_streams, horizon=horizon,
        faults=faults, flight_dir=flight_dir,
    )
    # shards only interact when crossing clients put load on a shared
    # boundary link; disjoint fleets keep the exchange-free fast path
    crossing = config.cross_shard_fraction > 0.0 and len(blocks) > 1
    exchange = BoundaryExchange(len(blocks)) if crossing else None

    if workers == 1:
        # each shard is handed its block of the traces built above; a
        # session wires its rig only when first resumed
        sessions = {
            shard_id: _shard_session(
                source, cfg, shard_id,
                exchange.links if exchange is not None else (),
                traces=traces[start:start + count], **options)
            for shard_id, (cfg, (start, count))
            in enumerate(zip(configs, blocks))
        }
        if exchange is not None:
            # all sessions live at once and advance in lockstep
            shards = _drive(sessions, exchange)
        else:
            # nothing to exchange: one rig alive at a time
            shards = [_drive({shard_id: session})[0]
                      for shard_id, session in sessions.items()]
        return merge_shards(shards, 1, window)

    ctx = processes.start_context()
    # one process per shard; the barrier holds every worker to the same
    # window so no shard runs unboundedly ahead of its siblings
    barrier = ctx.Barrier(len(blocks))
    out = ctx.Queue()
    procs: List[Any] = []
    for shard_id, cfg in enumerate(configs):
        p = ctx.Process(
            target=_worker,
            args=(source, cfg, shard_id, barrier, exchange, out, options),
            name=f"shard-{shard_id}",
        )
        p.start()
        procs.append(p)
    results: Dict[int, ShardResult] = {}
    errors: Dict[int, str] = {}
    for _ in procs:
        shard_id, result, err = out.get()
        if err is not None:
            errors[shard_id] = err
        elif result is not None:
            results[shard_id] = result
    for p in procs:
        p.join()
    if errors:
        first = min(errors)
        raise RuntimeError(f"shard {first} failed: {errors[first]}")
    if len(results) < len(blocks):
        raise RuntimeError(
            "shard barrier broken: a worker died or waited out "
            f"BARRIER_TIMEOUT ({BARRIER_TIMEOUT:.0f} s)"
        )
    return merge_shards(
        [results[i] for i in range(len(blocks))], workers, window)
