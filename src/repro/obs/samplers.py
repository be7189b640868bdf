"""Periodic samplers: turn live components into gauge time series.

Spans capture *per-request* structure; these samplers capture *system state
over time* — the two views NetLogger-style analyses cross-reference (e.g.
"this access was slow because the WAN link was at 100% serving staging").
Each sampler ticks at a fixed sim-time period on the session's event queue;
every tick records current values as series samples on the tracer, so the
series render as counter tracks under the span tracks in Perfetto.

Samplers are only wired when tracing is enabled — they cost simulated-time
events, so benchmarks must not carry them silently.

This module deliberately duck-types its targets (network, scheduler, depots,
agent) instead of importing :mod:`repro.lon` at runtime:
:mod:`repro.lon.scheduler` imports the tracer from this package, and a
runtime import back into ``lon`` would close an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List

from .tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only (see module docstring)
    from ..lon.ibp import Depot
    from ..lon.network import Network
    from ..lon.scheduler import TransferScheduler
    from ..lon.simtime import EventQueue

__all__ = [
    "PeriodicSampler",
    "LinkUtilizationSampler",
    "DepotSampler",
    "SchedulerOccupancySampler",
    "CacheSampler",
    "standard_samplers",
]


class PeriodicSampler:
    """Base class: a named probe ticking every ``period`` sim seconds."""

    def __init__(
        self,
        queue: EventQueue,
        tracer: Tracer,
        period: float = 0.5,
        name: str = "sampler",
        namespace: str = "",
    ) -> None:
        if period <= 0:
            raise ValueError("sample period must be positive")
        self.queue = queue
        self.tracer = tracer
        self.period = period
        self.name = name
        self._prefix = f"{namespace}." if namespace else ""
        #: bare series name -> the one qualified string every sample of it
        #: carries (12 k samples of a fleet run share ~200 names)
        self._names: Dict[str, str] = {}
        self.ticks = 0
        self._event = None
        self._running = False

    @property
    def running(self) -> bool:
        """True while a tick is pending."""
        return self._running

    def start(self, delay: float = 0.0) -> None:
        """Arm the first sample ``delay`` seconds from now."""
        if self._running:
            return
        self._running = True
        self._event = self.queue.schedule_in(delay, self._tick, self.name)

    def stop(self) -> None:
        """Cancel future samples (pending tick dropped)."""
        self._running = False
        if self._event is not None:
            self.queue.cancel(self._event)
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        self.sample()
        self._event = self.queue.schedule_in(
            self.period, self._tick, self.name
        )

    def emit(self, series: str, value: float) -> None:
        """Record one sample of ``series``, qualified by the namespace.

        Subclasses name series bare (``depot.lan-depot-0.queue_depth``);
        the shard prefix is applied here and nowhere else.
        """
        name = self._names.get(series)
        if name is None:
            name = self._names[series] = self._prefix + series
        self.tracer.counter(name, value)

    def sample(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class LinkUtilizationSampler(PeriodicSampler):
    """Per-link utilization (allocated rate / capacity), 0..1."""

    def __init__(self, queue: EventQueue, tracer: Tracer, network: Network,
                 period: float = 0.5, namespace: str = "") -> None:
        super().__init__(queue, tracer, period, "sample-links", namespace)
        self.network = network

    def sample(self) -> None:
        for (a, b), util in sorted(self.network.link_utilization().items()):
            self.emit(f"link.{a}--{b}.utilization", util)


class DepotSampler(PeriodicSampler):
    """Per-depot service counters: bytes served and in-flight flow count.

    "Bytes served" counts both service modes — direct loads to a client and
    third-party ``copy_out`` sourcing — plus ingest stores, since all three
    consume the depot's disk/NIC.  "Queue depth" is the number of active
    network flows touching the depot's node (either direction).
    """

    def __init__(self, queue: EventQueue, tracer: Tracer,
                 depots: Iterable["Depot"], network: Network,
                 period: float = 0.5, namespace: str = "") -> None:
        super().__init__(queue, tracer, period, "sample-depots", namespace)
        self.depots = list(depots)
        self.network = network

    def sample(self) -> None:
        flows = self.network.active_flows
        for depot in self.depots:
            served = (depot.stats.bytes_loaded + depot.stats.bytes_copied
                      + depot.stats.bytes_stored)
            depth = sum(
                1 for f in flows
                if depot.name in (f.src, f.dst) and not f.paused
            )
            self.emit(f"depot.{depot.name}.bytes_served", served)
            self.emit(f"depot.{depot.name}.queue_depth", depth)


class SchedulerOccupancySampler(PeriodicSampler):
    """How many admitted transfers run in each priority class."""

    def __init__(self, queue: EventQueue, tracer: Tracer,
                 scheduler: TransferScheduler, period: float = 0.5,
                 namespace: str = "") -> None:
        super().__init__(queue, tracer, period, "sample-scheduler", namespace)
        self.scheduler = scheduler

    def sample(self) -> None:
        # scheduler.weights enumerates every priority class, so idle classes
        # still emit an explicit zero sample
        counts = {prio: 0 for prio in self.scheduler.weights}
        for handle in self.scheduler.active_handles:
            counts[handle.priority] = counts.get(handle.priority, 0) + 1
        for prio, n in counts.items():
            self.emit(f"scheduler.{prio.name.lower()}.active", n)


class CacheSampler(PeriodicSampler):
    """Client-agent cache fill and LAN-depot staging coverage.

    Accepts one agent or several (the multi-client harness).  A single
    agent keeps the historical series names (``agent.cache.bytes`` ...);
    with several, each agent's series is namespaced by its node
    (``agent.<node>.cache.bytes``) and an aggregate ``agents.cache.bytes``
    totals the fleet.
    """

    def __init__(self, queue: EventQueue, tracer: Tracer, agent: object,
                 period: float = 0.5, namespace: str = "") -> None:
        super().__init__(queue, tracer, period, "sample-cache", namespace)
        self.agents = (list(agent) if isinstance(agent, (list, tuple))
                       else [agent])

    def sample(self) -> None:
        if len(self.agents) == 1:
            agent = self.agents[0]
            self.emit("agent.cache.bytes", agent._payload_total)
            self.emit("agent.cache.payloads", len(agent._payloads))
            self.emit("agent.staged.viewsets", len(agent._staged_lan))
            return
        total_bytes = total_payloads = total_staged = 0
        for agent in self.agents:
            prefix = f"agent.{agent.node}"
            self.emit(f"{prefix}.cache.bytes", agent._payload_total)
            self.emit(f"{prefix}.cache.payloads", len(agent._payloads))
            self.emit(f"{prefix}.staged.viewsets", len(agent._staged_lan))
            total_bytes += agent._payload_total
            total_payloads += len(agent._payloads)
            total_staged += len(agent._staged_lan)
        self.emit("agents.cache.bytes", total_bytes)
        self.emit("agents.cache.payloads", total_payloads)
        self.emit("agents.staged.viewsets", total_staged)


def standard_samplers(
    queue: EventQueue,
    tracer: Tracer,
    network: Network,
    scheduler: TransferScheduler,
    depots: Iterable["Depot"],
    agent: object,
    period: float = 0.5,
    namespace: str = "",
) -> List[PeriodicSampler]:
    """The full sampler set a traced session runs (not yet started).

    ``agent`` may be a single client agent or a list of them (multi-client
    sessions share one network/scheduler/depot fleet, so only the cache
    sampler fans out).  ``namespace`` (a shard's ``"shard3"``) prefixes
    every series name.
    """
    return [
        LinkUtilizationSampler(queue, tracer, network, period, namespace),
        DepotSampler(queue, tracer, depots, network, period, namespace),
        SchedulerOccupancySampler(queue, tracer, scheduler, period,
                                  namespace),
        CacheSampler(queue, tracer, agent, period, namespace),
    ]
