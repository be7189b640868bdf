"""Multi-client session harness: N browsing clients on one depot fleet.

The paper's premise is that logistical networking makes light field browsing
practical on *shared* infrastructure — depots provisioned inside the network
serve many consumers at once (Section 3.5 explicitly allows one client agent
per console and several consoles per LAN).  This harness instantiates N
independent browsing clients — each with its own console node, client agent,
cache, cursor trace, and (case 3) staging pump — sharing one simulated
network, one LAN + WAN depot fleet, one DVS, one server agent, and one
:class:`~repro.lon.scheduler.TransferScheduler`.

Because every agent routes transfers through the shared scheduler's in-flight
registry, concurrent fetches of the same view set by different clients
coalesce exactly as same-agent requests do, and background staging competes
with every client's demand misses under one priority policy — the
many-consumer contention regime the single-client harness cannot produce.

Scale is the point: with dozens of clients the simulation core itself is the
bottleneck, which is what the incremental rebalancer in
:mod:`repro.lon.network` and the compacting event queue are for.
``benchmarks/bench_text_multiclient.py`` measures it on this harness.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

from ..lightfield.source import ViewSetSource
from ..lon.ibp import Depot
from ..lon.lbone import LBone
from ..lon.lors import LoRS
from ..lon.network import Network
from ..lon.scheduler import TransferScheduler
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
from .session import SessionConfig
from .staging import StagingPump
from .trace import CursorTrace, standard_trace

__all__ = [
    "MultiClientConfig",
    "MultiClientRig",
    "MultiClientResult",
    "build_multiclient_rig",
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
    #: metric namespace for this rig's registry (e.g. ``"shard3"``): every
    #: gauge/histogram name is prefixed at the factory, so telemetry from
    #: many rigs merges without collisions.  Empty = unnamespaced.
    obs_namespace: str = ""
    #: fraction of clients (tenths granularity) whose console + agent hang
    #: off a second campus switch (``xs-switch``) reached over its own
    #: backbone uplink instead of the department LAN.  Client ``g`` crosses
    #: iff ``(g % 10) < round(fraction * 10)``, so the assignment depends
    #: only on the *global* index — sharded runs see the same split.  0.0
    #: adds no nodes or links (bit-identical to the classic topology).
    cross_shard_fraction: float = 0.0
    #: backbone uplink calibration for the ``xs-switch`` ↔ ``wan-router``
    #: link (None = reuse ``base.wan_bandwidth`` / ``base.wan_latency``)
    backbone_bandwidth: Optional[float] = None
    backbone_latency: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.client_index_base < 0:
            raise ValueError("client_index_base must be non-negative")
        if self.start_stagger < 0:
            raise ValueError("start_stagger must be non-negative")
        if not 0.0 <= self.cross_shard_fraction <= 1.0:
            raise ValueError("cross_shard_fraction must be in [0, 1]")

    def crosses(self, g: int) -> bool:
        """Whether global client ``g`` attaches to the backbone switch."""
        return (g % 10) < int(round(self.cross_shard_fraction * 10))


@dataclass
class MultiClientRig:
    """All live components of a wired N-client session."""

    config: MultiClientConfig
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
    obs: Optional[MetricsRegistry] = None
    samplers: List[PeriodicSampler] = field(default_factory=list)


@dataclass
class MultiClientResult:
    """Per-client metrics plus whole-run throughput accounting."""

    config: MultiClientConfig
    per_client: List[SessionMetrics]
    wall_seconds: float
    events_fired: int
    sim_seconds: float
    rebalance: Dict[str, int]
    queue_compactions: int
    #: shared-scheduler registry effects: cross-client dedup + promotions
    deduped_transfers: int = 0
    promoted_transfers: int = 0
    #: scheduler admission counters (batches flushed, submissions
    #: coalesced, scalar fallbacks) — proves the vectorized path is live
    admission: Dict[str, int] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        """Simulation throughput: events fired per wall-clock second."""
        return self.events_fired / self.wall_seconds if self.wall_seconds else 0.0

    def aggregate(self) -> Dict[str, object]:
        """Fleet-level summary across every client's metrics."""
        accesses = [a for m in self.per_client for a in m.accesses]
        latencies = [a.total_latency for a in accesses]
        n = len(accesses)
        mean_latency = sum(latencies) / n if n else 0.0
        hits = sum(
            m.hit_rate() * len(m.accesses) for m in self.per_client
        )
        wan = sum(
            m.wan_rate() * len(m.accesses) for m in self.per_client
        )
        return {
            "n_clients": len(self.per_client),
            "accesses": n,
            "mean_latency": round(mean_latency, 4),
            "hit_rate": round(hits / n, 3) if n else 0.0,
            "wan_rate": round(wan / n, 3) if n else 0.0,
            "wall_seconds": round(self.wall_seconds, 3),
            "sim_seconds": round(self.sim_seconds, 2),
            "events_fired": self.events_fired,
            "events_per_second": round(self.events_per_second, 1),
            "queue_compactions": self.queue_compactions,
            "deduped_transfers": self.deduped_transfers,
            "promoted_transfers": self.promoted_transfers,
            **{f"rebalance_{k}": v for k, v in self.rebalance.items()},
            **{f"admission_{k}": v for k, v in self.admission.items()},
        }


def build_multiclient_rig(
    source: ViewSetSource, config: MultiClientConfig
) -> MultiClientRig:
    """Wire N clients onto one shared fabric (no events run yet).

    Topology extends the single-client testbed: all consoles and agents
    (``client-i`` / ``agent-i``) hang off the department LAN switch, so N
    clients contend for the same WAN bottleneck — the shared-infrastructure
    regime the paper argues depots are for.
    """
    base = config.base
    queue = EventQueue()
    net = Network(queue, tcp_window=base.tcp_window)

    # --- shared topology --------------------------------------------------
    base_idx = config.client_index_base
    lan_hosts = [f"lan-depot-{i}" for i in range(base.n_lan_depots)]
    xs_hosts: List[str] = []
    for i in range(config.n_clients):
        g = base_idx + i
        side = xs_hosts if config.crosses(g) else lan_hosts
        side += [f"client-{g}", f"agent-{g}"]
    net.add_node("lan-switch")
    for h in lan_hosts:
        net.add_link(h, "lan-switch", base.lan_bandwidth, base.lan_latency)
    net.add_link("lan-switch", "wan-router", base.wan_bandwidth,
                 base.wan_latency)
    if xs_hosts:
        # crossing clients live on a second campus switch with its own
        # backbone uplink — the link every shard's crossing traffic shares,
        # so sharded runs must exchange its load at barriers (lon.shard)
        net.add_node("xs-switch")
        for h in xs_hosts:
            net.add_link(h, "xs-switch", base.lan_bandwidth,
                         base.lan_latency)
        net.add_link("xs-switch", "lan-switch", base.lan_bandwidth,
                     base.lan_latency)
        bb_bw = (config.backbone_bandwidth
                 if config.backbone_bandwidth is not None
                 else base.wan_bandwidth)
        bb_lat = (config.backbone_latency
                  if config.backbone_latency is not None
                  else base.wan_latency)
        net.add_link("xs-switch", "wan-router", bb_bw, bb_lat)
    wan_hosts = [f"ca-depot-{i}" for i in range(base.n_wan_depots)]
    wan_hosts += ["server", "dvs"]
    for h in wan_hosts:
        net.add_link(h, "wan-router", base.depot_access_bandwidth, 0.002)

    # --- shared storage fabric -------------------------------------------
    lbone = LBone(net)
    lan_depots = []
    for i in range(base.n_lan_depots):
        d = Depot(f"lan-depot-{i}", queue, capacity=base.depot_capacity)
        lbone.register(d, location="knoxville")
        lan_depots.append(d)
    wan_depots = []
    for i in range(base.n_wan_depots):
        d = Depot(f"ca-depot-{i}", queue, capacity=base.depot_capacity)
        lbone.register(d, location="california")
        wan_depots.append(d)

    tracer: Optional[Tracer] = None
    obs: Optional[MetricsRegistry] = None
    if base.tracing:
        tracer = Tracer(queue.clock, enabled=True)
        obs = MetricsRegistry(namespace=config.obs_namespace)
    scheduler = TransferScheduler(
        net, policy=base.scheduling_policy, tracer=tracer,
    )
    lors = LoRS(queue, net, lbone, scheduler=scheduler)

    dvs = DVSServer(node="dvs")
    home_depots = lan_depots if base.case == 1 else wan_depots
    server_agent = ServerAgent(
        node="server",
        queue=queue,
        network=net,
        lors=lors,
        dvs=dvs,
        source=source,
        depots=home_depots,
        stripe_width=min(base.stripe_width, len(home_depots)),
        replicas=base.replicas,
        block_size=base.block_size,
        tracer=tracer,
    )
    server_agent.pre_distribute()

    # --- per-client consoles ----------------------------------------------
    clients: List[Client] = []
    agents: List[ClientAgent] = []
    metrics: List[SessionMetrics] = []
    stagings: List[StagingPump] = []
    traces: List[CursorTrace] = []
    policy_name = base.prefetch_policy
    for i in range(config.n_clients):
        g = base_idx + i
        m = SessionMetrics(
            case_name=f"case{base.case}-client{g}",
            resolution=source.resolution,
            scheduling_policy=base.scheduling_policy,
        )
        if tracer is not None:
            m.tracer = tracer
            m.obs = obs
        agent = ClientAgent(
            node=f"agent-{g}",
            queue=queue,
            network=net,
            lors=lors,
            dvs=dvs,
            dvs_node="dvs",
            lattice=source.lattice,
            server_agents={"server": server_agent},
            cache_bytes=base.agent_cache_bytes,
            max_streams=base.max_streams,
            prefetch_cancel_beyond=base.prefetch_cancel_beyond,
            tracer=tracer,
        )
        staging: Optional[StagingPump] = None
        if base.case == 3:
            staging = StagingPump(
                queue=queue,
                lors=lors,
                dvs=dvs,
                agent=agent,
                lan_depot=lan_depots[g % len(lan_depots)],
                lattice=source.lattice,
                max_concurrent=base.staging_concurrency,
                streams_per_copy=base.staging_streams,
                order=base.staging_order,
                cancel_beyond=base.staging_cancel_beyond,
                tracer=tracer,
            )
            stagings.append(staging)
        client = Client(
            node=f"client-{g}",
            queue=queue,
            network=net,
            agent=agent,
            lattice=source.lattice,
            metrics=m,
            resident_capacity=base.resident_capacity,
            policy=policy_by_name(policy_name),
            cpu_scale=base.cpu_scale,
            cpu_seconds_per_byte=base.cpu_seconds_per_byte,
            on_cursor=(staging.update_cursor if staging is not None
                       else None),
            tracer=tracer,
        )
        trace = standard_trace(
            source.lattice,
            n_accesses=base.n_accesses,
            step_period=base.step_period,
            seed=base.trace_seed + g * config.seed_stride,
            heading_noise=base.heading_noise,
        ).shifted(g * config.start_stagger)
        clients.append(client)
        agents.append(agent)
        metrics.append(m)
        traces.append(trace)

    samplers: List[PeriodicSampler] = []
    if tracer is not None and obs is not None:
        samplers = standard_samplers(
            queue, tracer, obs,
            network=net,
            scheduler=scheduler,
            depots=lan_depots + wan_depots,
            agent=agents,
            period=base.sample_period,
        )
    return MultiClientRig(
        config=config,
        queue=queue,
        network=net,
        lbone=lbone,
        lors=lors,
        scheduler=scheduler,
        dvs=dvs,
        server_agent=server_agent,
        clients=clients,
        client_agents=agents,
        metrics=metrics,
        stagings=stagings,
        traces=traces,
        lan_depots=lan_depots,
        wan_depots=wan_depots,
        tracer=tracer,
        obs=obs,
        samplers=samplers,
    )


def run_multiclient_session(
    source: ViewSetSource,
    config: MultiClientConfig,
    settle_seconds: float = 60.0,
    rig_hook: Optional[Callable[[MultiClientRig], None]] = None,
) -> MultiClientResult:
    """Run a full N-client session and return per-client + fleet results.

    ``settle_seconds`` bounds how long after the last client's final cursor
    sample the simulation may drain outstanding fetches.  Wall time covers
    the simulation loop only (not rig construction), which is what the
    scale benchmark reports.
    """
    rig = build_multiclient_rig(source, config)
    if rig_hook is not None:
        rig_hook(rig)
    # synthesize (and cache) every payload up front: dataset generation is
    # not simulation work and must not pollute the wall-time measurement
    for key in source.lattice.all_viewsets():
        source.payload(key)
    for staging in rig.stagings:
        staging.start()
    for sampler in rig.samplers:
        sampler.start()
    for client, trace in zip(rig.clients, rig.traces):
        client.schedule_trace(trace)
    horizon = max(t.duration for t in rig.traces) + settle_seconds
    # measuring how fast the *simulator* runs, not simulated time: the
    # reading never feeds back into the event stream
    t0 = time.perf_counter()  # repro: allow[SIM001]
    rig.queue.run_until(horizon, max_events=200_000_000)
    for staging in rig.stagings:
        staging.stop()
    for sampler in rig.samplers:
        sampler.stop()
    rig.queue.run_until(horizon + settle_seconds, max_events=200_000_000)
    wall = time.perf_counter() - t0  # repro: allow[SIM001]
    if rig.tracer is not None:
        rig.tracer.finish_open()
    for m, agent, staging in zip(
        rig.metrics, rig.client_agents,
        rig.stagings if rig.stagings else [None] * len(rig.metrics),
    ):
        m.prefetch_used = agent.stats.prefetch_hits
        if staging is not None:
            m.staged_count = staging.stats.staged
            m.staged_bytes = staging.stats.bytes_staged
    return MultiClientResult(
        config=config,
        per_client=rig.metrics,
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
    )
