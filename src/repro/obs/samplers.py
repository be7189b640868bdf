"""Periodic samplers: turn live components into gauge time series.

Spans capture *per-request* structure; these samplers capture *system state
over time* — the two views NetLogger-style analyses cross-reference (e.g.
"this access was slow because the WAN link was at 100% serving staging").
Each sampler ticks at a fixed sim-time period on the session's event queue;
every tick records current values as one row on the tracer, so the series
render as counter tracks under the span tracks in Perfetto.

Samplers are only wired when tracing is enabled — they cost simulated-time
events, so benchmarks must not carry them silently.

This module deliberately duck-types its targets (network, scheduler, depots,
agent) instead of importing :mod:`repro.lon` at runtime:
:mod:`repro.lon.scheduler` imports the tracer from this package, and a
runtime import back into ``lon`` would close an import cycle.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Sequence,
    Tuple,
)

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


#: sim seconds between two ticks of every sampler
PERIOD = 0.5


class PeriodicSampler:
    """Base class: a named probe ticking every :data:`PERIOD` sim seconds.

    A tick is one row on the tracer: the values of every series the
    sampler reads, under a names tuple that all ticks of one schema share.
    """

    def __init__(
        self,
        queue: EventQueue,
        tracer: Tracer,
        name: str = "sampler",
        namespace: str = "",
    ) -> None:
        self.queue = queue
        self.tracer = tracer
        self.name = name
        self._prefix = f"{namespace}." if namespace else ""
        #: what the current names tuple was built from, and the tuple
        self._schema_key: object = None
        self._schema: Tuple[str, ...] = ()
        self.ticks = 0
        self._event = None
        self._running = False

    def start(self) -> None:
        """Arm the first sample, now."""
        if self._running:
            return
        self._running = True
        self._event = self.queue.schedule_in(0.0, self._tick, self.name)

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
        self._event = self.queue.schedule_in(PERIOD, self._tick, self.name)

    def schema(self, key: object,
               series: Callable[[], Iterable[str]]) -> Tuple[str, ...]:
        """The names tuple of this tick's row.

        ``series()`` names the series bare (``depot.lan-depot-0.queue_depth``)
        and runs only when ``key`` — what the names derive from: the link
        set, the depot list, the class set — differs from the last tick's;
        the shard prefix is applied here and nowhere else.
        """
        if key != self._schema_key:
            self._schema_key = key
            self._schema = tuple(self._prefix + s for s in series())
        return self._schema

    def emit(self, names: Tuple[str, ...], values: Sequence[object]) -> None:
        """Record one tick: ``values[i]`` is a sample of ``names[i]``."""
        self.tracer.row(names, values)

    def sample(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class LinkUtilizationSampler(PeriodicSampler):
    """Per-link utilization (allocated rate / capacity), 0..1."""

    def __init__(self, queue: EventQueue, tracer: Tracer, network: Network,
                 namespace: str = "") -> None:
        super().__init__(queue, tracer, "sample-links", namespace)
        self.network = network
        #: the link set in series order, (a, b) sorted
        self._links: List[Tuple[str, str]] = []

    def sample(self) -> None:
        util = self.network.link_utilization()
        names = self.schema(util.keys(), lambda: self._relink(util))
        self.emit(names, tuple(map(util.__getitem__, self._links)))

    def _relink(self, util: Dict[Tuple[str, str], float]) -> Iterable[str]:
        self._links = sorted(util)
        return (f"link.{a}--{b}.utilization" for a, b in self._links)


class DepotSampler(PeriodicSampler):
    """Per-depot service counters: bytes served and in-flight flow count.

    "Bytes served" counts both service modes — direct loads to a client and
    third-party ``copy_out`` sourcing — plus ingest stores, since all three
    consume the depot's disk/NIC.  "Queue depth" is the number of active
    network flows touching the depot's node (either direction).
    """

    def __init__(self, queue: EventQueue, tracer: Tracer,
                 depots: Iterable["Depot"], network: Network,
                 namespace: str = "") -> None:
        super().__init__(queue, tracer, "sample-depots", namespace)
        self.depots = list(depots)
        self.network = network

    def sample(self) -> None:
        depots = tuple(d.name for d in self.depots)
        depth = dict.fromkeys(depots, 0)
        for f in self.network.active_flows:
            if f.paused:
                continue
            if f.src in depth:
                depth[f.src] += 1
            if f.dst in depth and f.dst != f.src:
                depth[f.dst] += 1
        values: List[int] = []
        for depot in self.depots:
            stats = depot.stats
            values.append(stats.bytes_loaded + stats.bytes_copied
                          + stats.bytes_stored)
            values.append(depth[depot.name])
        names = self.schema(depots, lambda: (
            f"depot.{name}.{figure}" for name in depots
            for figure in ("bytes_served", "queue_depth")))
        self.emit(names, tuple(values))


class SchedulerOccupancySampler(PeriodicSampler):
    """How many admitted transfers run in each priority class."""

    def __init__(self, queue: EventQueue, tracer: Tracer,
                 scheduler: TransferScheduler, namespace: str = "") -> None:
        super().__init__(queue, tracer, "sample-scheduler", namespace)
        self.scheduler = scheduler

    def sample(self) -> None:
        # scheduler.weights enumerates every priority class, so idle classes
        # still emit an explicit zero sample
        counts = {prio: 0 for prio in self.scheduler.weights}
        for handle in self.scheduler.active_handles:
            counts[handle.priority] = counts.get(handle.priority, 0) + 1
        classes = tuple(counts)
        names = self.schema(classes, lambda: (
            f"scheduler.{prio.name.lower()}.active" for prio in classes))
        self.emit(names, tuple(counts.values()))


class CacheSampler(PeriodicSampler):
    """Client-agent cache fill and LAN-depot staging coverage.

    Accepts one agent or several (the multi-client harness).  A single
    agent keeps the historical series names (``agent.cache.bytes`` ...);
    with several, each agent's series is namespaced by its node
    (``agent.<node>.cache.bytes``) and an aggregate ``agents.cache.bytes``
    totals the fleet.
    """

    _FIGURES = ("cache.bytes", "cache.payloads", "staged.viewsets")

    def __init__(self, queue: EventQueue, tracer: Tracer, agent: object,
                 namespace: str = "") -> None:
        super().__init__(queue, tracer, "sample-cache", namespace)
        self.agents = (list(agent) if isinstance(agent, (list, tuple))
                       else [agent])

    def _series(self) -> Iterable[str]:
        if len(self.agents) == 1:
            return [f"agent.{fig}" for fig in self._FIGURES]
        return [f"agent.{agent.node}.{fig}" for agent in self.agents
                for fig in self._FIGURES] + [
                    f"agents.{fig}" for fig in self._FIGURES]

    def sample(self) -> None:
        values: List[int] = []
        for agent in self.agents:
            values += (agent._payload_total, len(agent._payloads),
                       len(agent._staged_lan))
        if len(self.agents) > 1:
            values += (sum(values[0::3]), sum(values[1::3]),
                       sum(values[2::3]))
        names = self.schema(tuple(self.agents), self._series)
        self.emit(names, tuple(values))


def standard_samplers(
    queue: EventQueue,
    tracer: Tracer,
    network: Network,
    scheduler: TransferScheduler,
    depots: Iterable["Depot"],
    agent: object,
    namespace: str = "",
) -> List[PeriodicSampler]:
    """The full sampler set a traced session runs (not yet started).

    ``agent`` may be a single client agent or a list of them (multi-client
    sessions share one network/scheduler/depot fleet, so only the cache
    sampler fans out).  ``namespace`` (a shard's ``"shard3"``) prefixes
    every series name.
    """
    return [
        LinkUtilizationSampler(queue, tracer, network, namespace),
        DepotSampler(queue, tracer, depots, network, namespace),
        SchedulerOccupancySampler(queue, tracer, scheduler, namespace),
        CacheSampler(queue, tracer, agent, namespace),
    ]
