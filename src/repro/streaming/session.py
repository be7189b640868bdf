"""Experiment harness: Cases 1, 2 and 3 of Section 4.2/4.3.

Builds the whole system over the simulated network and runs an orchestrated
cursor trace:

* **Case 1** — the LFD is stored on depots in the client's LAN ("really
  local area streaming ... the ideal case");
* **Case 2** — the LFD lives on three striped depots in California and is
  fetched across the WAN with client-agent prefetching only;
* **Case 3** — as Case 2, plus aggressive two-stage prestaging onto a LAN
  depot.

Topology (matching the paper's testbed): client + client agent + four LAN
depots on a 1 Gb/s department LAN; a WAN path to California (shared
bottleneck); three server depots + DVS + server agent at the remote site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..lightfield.source import ViewSetSource
from ..lon.ibp import Depot
from ..lon.lbone import LBone
from ..lon.lors import LoRS
from ..lon.network import Network, gbps, mbps
from ..lon.scheduler import SCHEDULING_POLICIES, TransferScheduler
from ..lon.simtime import EventQueue
from ..obs.metrics import MetricsRegistry
from ..obs.samplers import PeriodicSampler, standard_samplers
from ..obs.tracer import Tracer
from .agent import ClientAgent
from .client import Client
from .dvs import DVSServer
from .metrics import SessionMetrics
from .prefetch import policy_by_name
from .server import ServerAgent
from .staging import StagingPump
from .trace import CursorTrace, standard_trace

__all__ = ["SessionConfig", "SessionRig", "run_session", "build_rig"]


@dataclass
class SessionConfig:
    """Everything that varies between experiment runs."""

    case: int = 3                      # 1, 2 or 3
    n_accesses: int = 58               # the paper's request count
    trace_seed: int = 7
    step_period: float = 0.6           # seconds between cursor samples
    heading_noise: float = 0.9         # cursor unpredictability (radians/step)
    trace: Optional[CursorTrace] = None  # override the standard trace

    # network calibration (defaults model the 2003 testbed)
    lan_bandwidth: float = gbps(1.0)
    lan_latency: float = 0.0002
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
    replicas: int = 1
    n_wan_depots: int = 3
    n_lan_depots: int = 4
    depot_capacity: int = 16 << 30

    # placement block size: one block per ~1 MB keeps 200² view sets to a
    # single WAN stream (the paper's observed ~1 s accesses) while larger
    # view sets stripe across several
    block_size: int = 1 << 20

    # agent / client
    agent_cache_bytes: Optional[int] = None
    max_streams: int = 4
    resident_capacity: int = 2
    cpu_scale: float = 1.0
    #: model decompression CPU as seconds/byte instead of measuring host
    #: wall time (None = measure).  Set for bit-reproducible runs — the
    #: determinism checker requires it.
    cpu_seconds_per_byte: Optional[float] = None
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
    #: record per-transfer lifecycle events on the session metrics
    record_transfer_events: bool = True
    #: enable end-to-end tracing + periodic samplers (repro.obs); off by
    #: default — the disabled tracer's overhead is a no-op method call
    tracing: bool = False
    #: sampler period in simulated seconds (link utilization, queue depths)
    sample_period: float = 0.5

    def __post_init__(self) -> None:
        if self.case not in (1, 2, 3):
            raise ValueError("case must be 1, 2 or 3")
        if self.scheduling_policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"scheduling_policy must be one of {SCHEDULING_POLICIES}"
            )


@dataclass
class SessionRig:
    """All live components of a wired session (for tests and examples)."""

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
    obs: Optional[MetricsRegistry] = None
    samplers: List[PeriodicSampler] = field(default_factory=list)


def build_rig(source: ViewSetSource, config: SessionConfig) -> SessionRig:
    """Wire every component for the configured case (no events run yet)."""
    queue = EventQueue()
    net = Network(queue, tcp_window=config.tcp_window)

    # --- topology -----------------------------------------------------
    lan_hosts = ["client", "agent"] + [
        f"lan-depot-{i}" for i in range(config.n_lan_depots)
    ]
    net.add_node("lan-switch")
    for h in lan_hosts:
        net.add_link(h, "lan-switch", config.lan_bandwidth,
                     config.lan_latency)
    net.add_link("lan-switch", "wan-router", config.wan_bandwidth,
                 config.wan_latency)
    wan_hosts = [f"ca-depot-{i}" for i in range(config.n_wan_depots)]
    wan_hosts += ["server", "dvs"]
    for h in wan_hosts:
        net.add_link(h, "wan-router", config.depot_access_bandwidth, 0.002)

    # --- storage fabric -------------------------------------------------
    lbone = LBone(net)
    lan_depots = []
    for i in range(config.n_lan_depots):
        d = Depot(f"lan-depot-{i}", queue, capacity=config.depot_capacity)
        lbone.register(d, location="knoxville")
        lan_depots.append(d)
    wan_depots = []
    for i in range(config.n_wan_depots):
        d = Depot(f"ca-depot-{i}", queue, capacity=config.depot_capacity)
        lbone.register(d, location="california")
        wan_depots.append(d)
    metrics = SessionMetrics(
        case_name=f"case{config.case}", resolution=source.resolution,
        scheduling_policy=config.scheduling_policy,
    )
    tracer: Optional[Tracer] = None
    obs: Optional[MetricsRegistry] = None
    if config.tracing:
        tracer = Tracer(queue.clock, enabled=True)
        obs = MetricsRegistry()
        metrics.tracer = tracer
        metrics.obs = obs
    scheduler = TransferScheduler(
        net,
        policy=config.scheduling_policy,
        on_event=(metrics.record_transfer_event
                  if config.record_transfer_events else None),
        tracer=tracer,
    )
    lors = LoRS(queue, net, lbone, scheduler=scheduler)

    # --- name service + server ------------------------------------------
    dvs = DVSServer(node="dvs")
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
        replicas=config.replicas,
        block_size=config.block_size,
        tracer=tracer,
    )
    server_agent.pre_distribute()

    # --- client side ------------------------------------------------------
    client_agent = ClientAgent(
        node="agent",
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
            agent=client_agent,
            lan_depot=lan_depots[0],
            lattice=source.lattice,
            max_concurrent=config.staging_concurrency,
            streams_per_copy=config.staging_streams,
            order=config.staging_order,
            cancel_beyond=config.staging_cancel_beyond,
            tracer=tracer,
        )
    policy = policy_by_name(config.prefetch_policy)
    client = Client(
        node="client",
        queue=queue,
        network=net,
        agent=client_agent,
        lattice=source.lattice,
        metrics=metrics,
        resident_capacity=config.resident_capacity,
        policy=policy,
        cpu_scale=config.cpu_scale,
        cpu_seconds_per_byte=config.cpu_seconds_per_byte,
        on_cursor=(staging.update_cursor if staging is not None else None),
        tracer=tracer,
    )
    trace = config.trace if config.trace is not None else standard_trace(
        source.lattice,
        n_accesses=config.n_accesses,
        step_period=config.step_period,
        seed=config.trace_seed,
        heading_noise=config.heading_noise,
    )
    samplers: List[PeriodicSampler] = []
    if tracer is not None and obs is not None:
        samplers = standard_samplers(
            queue, tracer, obs,
            network=net,
            scheduler=scheduler,
            depots=lan_depots + wan_depots,
            agent=client_agent,
            period=config.sample_period,
        )
    return SessionRig(
        config=config,
        queue=queue,
        network=net,
        lbone=lbone,
        lors=lors,
        dvs=dvs,
        server_agent=server_agent,
        client_agent=client_agent,
        client=client,
        metrics=metrics,
        staging=staging,
        lan_depots=lan_depots,
        wan_depots=wan_depots,
        trace=trace,
        tracer=tracer,
        obs=obs,
        samplers=samplers,
    )


def run_session(
    source: ViewSetSource, config: SessionConfig,
    settle_seconds: float = 60.0,
    rig_hook: Optional[Callable[[SessionRig], None]] = None,
) -> SessionMetrics:
    """Run one full orchestrated session and return its metrics.

    ``settle_seconds`` bounds how long after the last cursor sample the
    simulation may run to drain outstanding fetches; staging is stopped at
    the horizon so the event queue terminates.  ``rig_hook``, if given, is
    called with the wired :class:`SessionRig` before any event runs — the
    determinism checker uses it to attach event-stream observers.
    """
    rig = build_rig(source, config)
    if rig_hook is not None:
        rig_hook(rig)
    if rig.staging is not None:
        rig.staging.start()
    for sampler in rig.samplers:
        sampler.start()
    rig.client.schedule_trace(rig.trace)
    horizon = rig.trace.duration + settle_seconds
    rig.queue.run_until(horizon)
    if rig.staging is not None:
        rig.staging.stop()
        rig.metrics.staged_count = rig.staging.stats.staged
        rig.metrics.staged_bytes = rig.staging.stats.bytes_staged
    for sampler in rig.samplers:
        sampler.stop()
    rig.queue.run_until(horizon + settle_seconds)
    if rig.tracer is not None:
        rig.tracer.finish_open()
    rig.metrics.prefetch_used = rig.client_agent.stats.prefetch_hits
    sched = rig.lors.scheduler
    rig.metrics.deduped = sched.registry.stats.deduped
    rig.metrics.promoted_transfers = sched.registry.stats.promoted
    rig.metrics.cancelled_transfers = sched.stats.cancelled
    return rig.metrics
