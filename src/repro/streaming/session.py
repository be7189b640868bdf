"""The session engine, and the single-console entry point to it.

One function wires the paper's testbed (:func:`wire_testbed`) and one
generator runs a wired testbed through its lifecycle
(:func:`run_testbed`); every way of running a session is a thin caller of
those two:

* :func:`run_session` (here) — one console named ``client``/``agent``:
  **Case 1** (the LFD on depots in the client's LAN, "really local area
  streaming ... the ideal case"), **Case 2** (three striped depots in
  California, client-agent prefetching only) or **Case 3** (Case 2 plus
  aggressive two-stage prestaging onto a LAN depot);
* :func:`repro.streaming.multiclient.run_multiclient_session` — N consoles
  ``client-g``/``agent-g`` on the same fabric;
* :func:`repro.lon.shard.run_sharded_session` — the fleet partitioned into
  rigs that advance window by window and exchange boundary loads.

Topology (matching the paper's testbed): consoles + client agents + four
LAN depots on a 1 Gb/s department LAN; a WAN path to California (shared
bottleneck); three server depots + DVS + server agent at the remote site.
Section 3.5 allows "one client agent per console and several consoles per
LAN", so the single-console session is the fleet's N = 1 case, not a
second testbed.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..lightfield.lattice import CameraLattice
from ..lightfield.source import ViewSetSource
from ..lon.ibp import Depot
from ..lon.lbone import LBone
from ..lon.lors import LoRS
from ..lon.network import Network, gbps, mbps
from ..lon.scheduler import (
    SCHEDULING_POLICIES,
    TransferEvent,
    TransferScheduler,
)
from ..lon.simtime import Event, EventQueue
from ..obs.samplers import PeriodicSampler, standard_samplers
from ..obs.tracer import Tracer
from .agent import ClientAgent
from .client import CPU_SECONDS_PER_BYTE, Client
from .dvs import DVSServer
from .metrics import SessionMetrics
from .prefetch import policy_by_name
from .server import ServerAgent
from .staging import StagingPump
from .trace import CursorTrace, standard_trace

__all__ = [
    "Console",
    "EventRecord",
    "RunTotals",
    "SessionConfig",
    "SessionRig",
    "Testbed",
    "TransferRecord",
    "attach_stream_collectors",
    "build_rig",
    "finish",
    "run_session",
    "run_testbed",
    "session_trace",
    "wire_testbed",
]

#: an event-stream record: ``(time.hex(), seq, label)``
EventRecord = Tuple[str, int, str]

#: a transfer-lifecycle record: ``(time.hex(), label, priority, event, detail)``
TransferRecord = Tuple[str, str, str, str, str]


@dataclass
class SessionConfig:
    """Everything that varies between experiment runs."""

    case: int = 3                      # 1, 2 or 3
    n_accesses: int = 58               # the paper's request count
    trace_seed: int = 7
    trace: Optional[CursorTrace] = None  # override the standard trace

    # WAN calibration (defaults model the 2003 testbed)
    #: raw shared WAN path.  60 Mb/s calibrates staging so the whole
    #: database localizes within a session: nearly instantly relative to the
    #: cursor at 200² and over roughly half the trace at 500² — the paper's
    #: initial-phase contrast (1 access vs 33).
    wan_bandwidth: float = mbps(60.0)
    wan_latency: float = 0.035
    depot_access_bandwidth: float = mbps(100.0)
    #: single-flow TCP ceiling = window/RTT: ~14 Mb/s across the WAN with
    #: 2003-default windows, unconstrained on the LAN.  This asymmetry is
    #: why multi-stream staging beats client-driven fetching.
    tcp_window: Optional[float] = 128 * 1024

    # placement
    stripe_width: int = 3

    # placement block size: one block per ~1 MB keeps 200² view sets to a
    # single WAN stream (the paper's observed ~1 s accesses) while larger
    # view sets stripe across several
    block_size: int = 1 << 20

    # agent / client
    agent_cache_bytes: Optional[int] = None
    max_streams: int = 4
    resident_capacity: int = 2
    #: simulated seconds of console CPU charged per arriving payload byte;
    #: a larger value models a slower client (``examples/pda_client.py``)
    cpu_seconds_per_byte: float = CPU_SECONDS_PER_BYTE
    prefetch_policy: str = "quadrant"

    # staging (case 3): concurrency x streams bounds aggressive-staging
    # flows; the default keeps foreground misses WAN-comparable during the
    # initial phase (the Section 4.3 contention observation) instead of
    # starving them outright
    staging_concurrency: int = 4
    staging_streams: int = 3
    staging_order: str = "proximity"

    # transfer scheduling (the interference ablation knob):
    #   "off"      — priority-blind equal sharing (the seed behaviour);
    #   "weighted" — weighted max-min fair shares by class (DEMAND 8 :
    #                PREFETCH 2 : STAGING 1 : MAINTENANCE 0.5);
    #   "strict"   — weighted + background flows sharing a link with a live
    #                demand flow are paused until it drains.
    scheduling_policy: str = "weighted"
    #: cancel in-flight staging copies farther than this grid distance from
    #: the cursor on a retarget (None = never cancel; progress is kept)
    staging_cancel_beyond: Optional[int] = None
    #: cancel in-flight prefetches farther than this grid distance from the
    #: cursor on a retarget (None = never cancel)
    prefetch_cancel_beyond: Optional[int] = 2
    #: enable end-to-end tracing + periodic samplers (repro.obs); off by
    #: default — the disabled tracer's overhead is a no-op method call
    tracing: bool = False

    def __post_init__(self) -> None:
        if self.case not in (1, 2, 3):
            raise ValueError("case must be 1, 2 or 3")
        if self.scheduling_policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"scheduling_policy must be one of {SCHEDULING_POLICIES}"
            )


@dataclass(frozen=True)
class Console:
    """One console's place on the testbed: its names and what it browses."""

    #: global client index; picks the console's staging depot
    index: int
    client_node: str
    agent_node: str
    case_name: str
    trace: CursorTrace
    #: attached to the ``xs-switch`` campus backbone, not the department LAN
    crossing: bool = False


@dataclass
class Testbed:
    """All live components of a wired testbed, one list entry per console.

    ``stagings`` is empty unless the case is 3, and then parallel to
    ``clients`` like every other per-console list.
    """

    queue: EventQueue
    network: Network
    lbone: LBone
    lors: LoRS
    scheduler: TransferScheduler
    dvs: DVSServer
    server_agent: ServerAgent
    clients: List[Client]
    client_agents: List[ClientAgent]
    metrics: List[SessionMetrics]
    stagings: List[StagingPump]
    traces: List[CursorTrace]
    lan_depots: List[Depot]
    wan_depots: List[Depot]
    tracer: Optional[Tracer] = None
    samplers: List[PeriodicSampler] = field(default_factory=list)


@dataclass
class RunTotals:
    """Whole-run accounting; every entry point's result record extends it."""

    #: host seconds inside the simulation loop (not wiring, not the
    #: caller's turn between windows)
    wall_seconds: float
    events_fired: int
    sim_seconds: float
    rebalance: Dict[str, int]
    queue_compactions: int
    #: shared-scheduler registry effects: cross-console dedup + promotions
    deduped_transfers: int
    promoted_transfers: int
    #: scheduler admission counters (batches flushed, submissions
    #: coalesced, scalar fallbacks) — proves the planned path is live
    admission: Dict[str, int]

    @property
    def events_per_second(self) -> float:
        """Simulation throughput: events fired per wall-clock second."""
        return self.events_fired / self.wall_seconds if self.wall_seconds else 0.0


#: the session's cursor pacing: seconds between samples and heading noise
#: in radians per step.  "The standard trace" has a second pacing —
#: ``standard_trace()``'s own defaults, 0.35 s / 0.55 rad, which
#: ``experiments.scenarios.qgr_point`` and ``viewset_size_arm`` run; left
#: apart because aligning either moves committed fingerprints.
STEP_PERIOD = 0.6
HEADING_NOISE = 0.9

#: the 2003 testbed the sessions model: a 1 Gb/s department LAN holding four
#: depots, three striped depots in California, 16 GB each
LAN_BANDWIDTH = gbps(1.0)
LAN_LATENCY = 0.0002
N_LAN_DEPOTS = 4
N_WAN_DEPOTS = 3
DEPOT_CAPACITY = 16 << 30


def session_trace(
    lattice: CameraLattice, config: SessionConfig,
    seed_offset: int = 0, delay: float = 0.0,
) -> CursorTrace:
    """The standard cursor trace of ``config``, reseeded and delayed."""
    return standard_trace(
        lattice,
        n_accesses=config.n_accesses,
        step_period=STEP_PERIOD,
        seed=config.trace_seed + seed_offset,
        heading_noise=HEADING_NOISE,
    ).shifted(delay)


def wire_testbed(
    source: ViewSetSource,
    config: SessionConfig,
    consoles: Sequence[Console],
    backbone_bandwidth: Optional[float] = None,
    obs_namespace: str = "",
) -> Testbed:
    """Wire the testbed for ``consoles`` (no events run yet).

    Every console and agent hangs off the department LAN switch, so N
    consoles contend for the same WAN bottleneck — the shared-infrastructure
    regime the paper argues depots are for.  Crossing consoles live on a
    second campus switch with its own backbone uplink (bandwidth ``None`` =
    the WAN figure; latency always the WAN's); with none crossing no node or
    link is added.
    ``obs_namespace`` prefixes every sampled series name of a traced testbed.
    """
    queue = EventQueue()
    net = Network(queue, tcp_window=config.tcp_window)

    # --- topology -----------------------------------------------------
    lan_hosts = [f"lan-depot-{i}" for i in range(N_LAN_DEPOTS)]
    xs_hosts: List[str] = []
    for console in consoles:
        side = xs_hosts if console.crossing else lan_hosts
        side += [console.client_node, console.agent_node]
    net.add_node("lan-switch")
    for h in lan_hosts:
        net.add_link(h, "lan-switch", LAN_BANDWIDTH, LAN_LATENCY)
    net.add_link("lan-switch", "wan-router", config.wan_bandwidth,
                 config.wan_latency)
    if xs_hosts:
        # the uplink is the link every shard's crossing traffic shares,
        # so sharded runs must exchange its load at barriers (lon.shard)
        net.add_node("xs-switch")
        for h in xs_hosts:
            net.add_link(h, "xs-switch", LAN_BANDWIDTH, LAN_LATENCY)
        net.add_link("xs-switch", "lan-switch", LAN_BANDWIDTH, LAN_LATENCY)
        net.add_link(
            "xs-switch", "wan-router",
            (config.wan_bandwidth if backbone_bandwidth is None
             else backbone_bandwidth),
            config.wan_latency,
        )
    wan_hosts = [f"ca-depot-{i}" for i in range(N_WAN_DEPOTS)]
    wan_hosts += ["server", "dvs"]
    for h in wan_hosts:
        net.add_link(h, "wan-router", config.depot_access_bandwidth, 0.002)

    # --- storage fabric -------------------------------------------------
    lbone = LBone(net)
    lan_depots = []
    for i in range(N_LAN_DEPOTS):
        d = Depot(f"lan-depot-{i}", queue, capacity=DEPOT_CAPACITY)
        lbone.register(d, location="knoxville")
        lan_depots.append(d)
    wan_depots = []
    for i in range(N_WAN_DEPOTS):
        d = Depot(f"ca-depot-{i}", queue, capacity=DEPOT_CAPACITY)
        lbone.register(d, location="california")
        wan_depots.append(d)
    tracer = Tracer(queue.clock, enabled=True) if config.tracing else None
    scheduler = TransferScheduler(
        net, policy=config.scheduling_policy, tracer=tracer,
    )
    lors = LoRS(queue, net, lbone, scheduler=scheduler)

    # --- name service + server ------------------------------------------
    dvs = DVSServer()
    home_depots = lan_depots if config.case == 1 else wan_depots
    server_agent = ServerAgent(
        node="server",
        queue=queue,
        network=net,
        lors=lors,
        dvs=dvs,
        source=source,
        depots=home_depots,
        stripe_width=min(config.stripe_width, len(home_depots)),
        block_size=config.block_size,
        tracer=tracer,
    )
    server_agent.pre_distribute()

    # --- consoles ---------------------------------------------------------
    bed = Testbed(
        queue=queue, network=net, lbone=lbone, lors=lors,
        scheduler=scheduler, dvs=dvs, server_agent=server_agent,
        clients=[], client_agents=[], metrics=[], stagings=[], traces=[],
        lan_depots=lan_depots, wan_depots=wan_depots,
        tracer=tracer,
    )
    for console in consoles:
        metrics = SessionMetrics(
            case_name=console.case_name, resolution=source.resolution,
            scheduling_policy=config.scheduling_policy,
        )
        metrics.tracer = tracer
        agent = ClientAgent(
            node=console.agent_node,
            queue=queue,
            network=net,
            lors=lors,
            dvs=dvs,
            dvs_node="dvs",
            lattice=source.lattice,
            server_agents={"server": server_agent},
            cache_bytes=config.agent_cache_bytes,
            max_streams=config.max_streams,
            prefetch_cancel_beyond=config.prefetch_cancel_beyond,
            tracer=tracer,
        )
        staging: Optional[StagingPump] = None
        if config.case == 3:
            staging = StagingPump(
                queue=queue,
                lors=lors,
                dvs=dvs,
                agent=agent,
                lan_depot=lan_depots[console.index % len(lan_depots)],
                lattice=source.lattice,
                max_concurrent=config.staging_concurrency,
                streams_per_copy=config.staging_streams,
                order=config.staging_order,
                cancel_beyond=config.staging_cancel_beyond,
                tracer=tracer,
            )
            bed.stagings.append(staging)
        bed.clients.append(Client(
            node=console.client_node,
            queue=queue,
            network=net,
            agent=agent,
            lattice=source.lattice,
            metrics=metrics,
            resident_capacity=config.resident_capacity,
            policy=policy_by_name(config.prefetch_policy),
            cpu_seconds_per_byte=config.cpu_seconds_per_byte,
            on_cursor=(staging.update_cursor if staging is not None
                       else None),
            tracer=tracer,
        ))
        bed.client_agents.append(agent)
        bed.metrics.append(metrics)
        bed.traces.append(console.trace)
    if tracer is not None:
        bed.samplers = standard_samplers(
            queue, tracer,
            network=net,
            scheduler=scheduler,
            depots=lan_depots + wan_depots,
            agent=bed.client_agents,
            namespace=obs_namespace,
        )
    return bed


def attach_stream_collectors(
    queue: EventQueue, scheduler: TransferScheduler,
    events: List[EventRecord], transfers: List[TransferRecord],
) -> None:
    """Append every fired event and transfer-lifecycle record of a wired
    testbed to ``events``/``transfers`` (the determinism fingerprints'
    input).  Attach before the run starts; an ``on_event`` observer already
    on the scheduler keeps being called."""

    def on_fire(ev: Event) -> None:
        events.append((ev.time.hex(), ev.seq, ev.label))

    queue.on_fire = on_fire
    prev = scheduler.on_event

    def on_event(tev: TransferEvent) -> None:
        transfers.append((
            tev.time.hex(), tev.label, tev.priority, tev.event, tev.detail,
        ))
        if prev is not None:
            prev(tev)

    scheduler.on_event = on_event


#: how long after the last cursor sample a run may drain outstanding
#: fetches, and how long it drains again once staging and samplers stop
SETTLE_SECONDS = 60.0


def run_testbed(
    bed: Testbed,
    horizon: Optional[float] = None,
    window: Optional[float] = None,
) -> Generator[None, None, RunTotals]:
    """Run a wired testbed through its whole lifecycle, window by window.

    Starts staging and samplers, schedules every console's trace, advances
    the queue to ``horizon`` (default: the last cursor sample plus
    :data:`SETTLE_SECONDS`) in steps of ``window`` (default: one step) with
    a ``yield`` after each, then stops staging and samplers so the queue
    terminates, drains for another :data:`SETTLE_SECONDS`, closes open
    spans and writes each console's end-of-run figures onto its metrics.
    The return value is the run's :class:`RunTotals`.

    Intermediate horizons never change what fires when: a windowed run
    fires the same events in the same order at the same times as a single
    ``run_until``.  The ``yield`` is where a caller interleaves other
    testbeds or applies an outside input between windows.
    """
    if horizon is None:
        horizon = max(tr.duration for tr in bed.traces) + SETTLE_SECONDS
    if window is None:
        window = horizon
    if window <= 0:
        raise ValueError("window must be positive")
    for staging in bed.stagings:
        staging.start()
    for sampler in bed.samplers:
        sampler.start()
    for client, trace in zip(bed.clients, bed.traces):
        client.schedule_trace(trace)
    # measuring how fast the *simulator* runs, not simulated time: the
    # reading never feeds back into the event stream.  The interval is
    # closed across every yield — a lockstep caller runs the sibling
    # testbeds there, and their time is not this one's.
    wall = 0.0
    t = 0.0
    while t < horizon:
        t = min(t + window, horizon)
        t0 = time.perf_counter()
        bed.queue.run_until(t, max_events=200_000_000)
        wall += time.perf_counter() - t0
        yield
    t0 = time.perf_counter()
    for staging in bed.stagings:
        staging.stop()
    for sampler in bed.samplers:
        sampler.stop()
    bed.queue.run_until(horizon + SETTLE_SECONDS, max_events=200_000_000)
    wall += time.perf_counter() - t0
    if bed.tracer is not None:
        bed.tracer.finish_open()
    for metrics, agent in zip(bed.metrics, bed.client_agents):
        metrics.prefetch_used = agent.stats.prefetch_hits
    for metrics, staging in zip(bed.metrics, bed.stagings):
        metrics.staged_count = staging.stats.staged
        metrics.staged_bytes = staging.stats.bytes_staged
    sched = bed.scheduler
    return RunTotals(
        wall_seconds=wall,
        events_fired=bed.queue.fired_total,
        sim_seconds=bed.queue.now,
        rebalance=asdict(bed.network.stats),
        queue_compactions=bed.queue.compactions,
        deduped_transfers=sched.registry.stats.deduped,
        promoted_transfers=sched.registry.stats.promoted,
        admission={
            "batches_flushed": sched.stats.batches_flushed,
            "submissions_coalesced": sched.stats.submissions_coalesced,
            "scalar_fallbacks": sched.stats.scalar_fallbacks,
        },
    )


def finish(run: Generator[None, None, RunTotals]) -> RunTotals:
    """Drive :func:`run_testbed` to the end with nothing between windows."""
    while True:
        try:
            next(run)
        except StopIteration as stop:
            totals: RunTotals = stop.value
            return totals


@dataclass
class SessionRig:
    """All live components of a wired single-console session."""

    config: SessionConfig
    queue: EventQueue
    network: Network
    lbone: LBone
    lors: LoRS
    dvs: DVSServer
    server_agent: ServerAgent
    client_agent: ClientAgent
    client: Client
    metrics: SessionMetrics
    staging: Optional[StagingPump]
    lan_depots: List[Depot]
    wan_depots: List[Depot]
    trace: CursorTrace
    tracer: Optional[Tracer] = None
    samplers: List[PeriodicSampler] = field(default_factory=list)


def _wire_single(source: ViewSetSource, config: SessionConfig) -> Testbed:
    """The testbed with one console, ``client`` behind ``agent``."""
    trace = config.trace if config.trace is not None else session_trace(
        source.lattice, config)
    bed = wire_testbed(source, config, [
        Console(0, "client", "agent", f"case{config.case}", trace)])
    bed.scheduler.on_event = bed.metrics[0].record_transfer_event
    return bed


def _session_rig(config: SessionConfig, bed: Testbed) -> SessionRig:
    return SessionRig(
        config=config,
        queue=bed.queue,
        network=bed.network,
        lbone=bed.lbone,
        lors=bed.lors,
        dvs=bed.dvs,
        server_agent=bed.server_agent,
        client_agent=bed.client_agents[0],
        client=bed.clients[0],
        metrics=bed.metrics[0],
        staging=bed.stagings[0] if bed.stagings else None,
        lan_depots=bed.lan_depots,
        wan_depots=bed.wan_depots,
        trace=bed.traces[0],
        tracer=bed.tracer,
        samplers=bed.samplers,
    )


def build_rig(source: ViewSetSource, config: SessionConfig) -> SessionRig:
    """Wire every component for the configured case (no events run yet)."""
    return _session_rig(config, _wire_single(source, config))


def run_session(
    source: ViewSetSource, config: SessionConfig,
    rig_hook: Optional[Callable[[SessionRig], None]] = None,
) -> SessionMetrics:
    """Run one full orchestrated session and return its metrics.

    Staging is stopped at the horizon so the event queue terminates.
    ``rig_hook``, if given, is
    called with the wired :class:`SessionRig` before any event runs — tests
    use it to attach event-stream observers.
    """
    bed = _wire_single(source, config)
    if rig_hook is not None:
        rig_hook(_session_rig(config, bed))
    totals = finish(run_testbed(bed))
    # the scheduler serves this console alone, so its registry counts are
    # the session's own
    metrics = bed.metrics[0]
    metrics.deduped = totals.deduped_transfers
    metrics.promoted_transfers = totals.promoted_transfers
    metrics.cancelled_transfers = bed.scheduler.stats.cancelled
    return metrics
