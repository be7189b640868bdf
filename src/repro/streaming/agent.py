"""The client agent: cache, broker and prefetcher (Section 3.5).

The client agent "brokers the communication from client to all other
modules".  Its request path mirrors the paper exactly:

1. **cache hit** — the view set is in the agent's payload cache: served at
   memory speed (~1e-4 s data-access latency);
2. **staged** — the exNode (cached or fetched from the DVS) has replicas on
   the LAN depot placed by aggressive staging: LoRS downloads from the LAN,
   bypassing "the relatively slower wide area network";
3. **WAN** — otherwise the exNode's wide-area replicas serve the blocks
   (multi-stream, replica-ranked by proximity).

The database is pre-distributed, so the DVS knows every view set; a query it
cannot answer fails the request loudly.

All in-flight fetches live in the scheduler's shared
:class:`~repro.lon.scheduler.InFlightRegistry`: duplicate requests coalesce
onto one download, a demand arrival *promotes* an in-flight prefetch or
staging copy to DEMAND class instead of starting a duplicate, and cursor
moves cancel speculative fetches that are no longer nearby.  Demand misses
run at DEMAND priority; prefetches at PREFETCH — they warm the cache without
crowding out a waiting user.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ..lightfield.lattice import CameraLattice, ViewSetKey, parse_viewset_id
from ..lon.exnode import ExNode, Mapping
from ..lon.lors import Deferred, DownloadJob, LoRS
from ..lon.network import Network
from ..lon.scheduler import InFlightRegistry, Priority
from ..lon.simtime import EventQueue
from ..obs.tracer import NOOP_SPAN, NULL_TRACER, Tracer
from .dvs import DVSServer
from .metrics import AccessSource

__all__ = ["ClientAgent", "AgentStats"]

#: data-access latency of an agent cache hit (memory copy), Figure 12's floor
HIT_LATENCY = 1e-4
#: network node of the DVS the agents (and their staging pumps) query
DVS_NODE = "dvs"

#: on a cursor retarget, in-flight prefetches farther than this view-set
#: grid distance from the new cursor are cancelled
PREFETCH_CANCEL_BEYOND = 2


@dataclass
class AgentStats:
    """Counters for hit-rate and prefetch-efficiency analysis."""

    requests: int = 0
    hits: int = 0
    lan_depot_fetches: int = 0
    wan_fetches: int = 0
    prefetches_issued: int = 0
    prefetch_hits: int = 0           # demand requests served by prefetched data
    coalesced: int = 0
    evictions: int = 0
    deduped: int = 0                 # duplicate cross-layer fetches suppressed
    promoted: int = 0                # background fetches promoted to DEMAND
    cancelled: int = 0               # stale prefetches cancelled on retarget


@dataclass
class _Waiter:
    on_payload: Callable[[bytes, AccessSource, float], None]
    t_arrival: float
    prefetch: bool


@dataclass
class _Flight:
    """Agent-side bookkeeping for one registry entry it waits on."""

    waiters: List[_Waiter] = field(default_factory=list)
    prefetch_only: bool = True
    priority: Priority = Priority.PREFETCH
    job: Optional[DownloadJob] = None
    foreign: bool = False      # bytes are moving under another layer's entry
    retried: bool = False
    cancelled: bool = False
    span: object = NOOP_SPAN   # this fetch's trace span
    #: sim time the first data flow was admitted (the queue-wait boundary);
    #: None when the payload never rode a flow (shouldn't happen on misses)
    t_first_flow: Optional[float] = None


class ClientAgent:
    """Broker + cache between clients and the storage network.

    Parameters
    ----------
    cache_bytes:
        Payload-cache budget (LRU).  ``None`` = unbounded.
    max_streams:
        Parallel block streams per download (LoRS multi-threading).
    """

    def __init__(
        self,
        node: str,
        queue: EventQueue,
        network: Network,
        lors: LoRS,
        dvs: DVSServer,
        lattice: CameraLattice,
        cache_bytes: Optional[int] = None,
        max_streams: int = 8,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.node = node
        self.queue = queue
        self.network = network
        self.lors = lors
        self.scheduler = lors.scheduler
        self.registry: InFlightRegistry = lors.scheduler.registry
        self.dvs = dvs
        self.lattice = lattice
        self.cache_bytes = cache_bytes
        self.max_streams = max_streams
        self._payloads: OrderedDict[str, bytes] = OrderedDict()
        self._payload_total = 0
        self._exnodes: Dict[str, ExNode] = {}
        self._staged_lan: Dict[str, ExNode] = {}
        self._flights: Dict[str, _Flight] = {}
        self._prefetched: Set[str] = set()
        self.stats = AgentStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # per-viewset timing marks left behind by _deliver for the client's
        # stage-span reconstruction (populated only when tracing is on)
        self._marks: Dict[str, Dict[str, Optional[float]]] = {}

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    def _cache_put(self, vid: str, payload: bytes) -> None:
        if vid in self._payloads:
            self._payload_total -= len(self._payloads.pop(vid))
        self._payloads[vid] = payload
        self._payload_total += len(payload)
        if self.cache_bytes is None:
            return
        while self._payload_total > self.cache_bytes and len(self._payloads) > 1:
            old_vid, old = self._payloads.popitem(last=False)
            self._payload_total -= len(old)
            self._prefetched.discard(old_vid)
            self.stats.evictions += 1

    def _cache_get(self, vid: str) -> Optional[bytes]:
        payload = self._payloads.get(vid)
        if payload is not None:
            self._payloads.move_to_end(vid)
        return payload

    # ------------------------------------------------------------------
    # exNode overlay maintained by staging
    # ------------------------------------------------------------------
    def note_exnode(self, vid: str, exnode: ExNode) -> None:
        """Cache an exNode (from a DVS answer or staging)."""
        self._exnodes[vid] = exnode

    def exnode_for(self, vid: str) -> Optional[ExNode]:
        """The cached exNode, if any."""
        return self._exnodes.get(vid)

    def note_staged(self, vid: str, lan_exnode: ExNode,
                    mappings: List[Mapping]) -> None:
        """Record a complete LAN-depot replica produced by staging.

        ``lan_exnode`` must cover the payload entirely from LAN depots; the
        mappings are also merged into the agent's exNode overlay so ordinary
        downloads rank the LAN replicas first.
        """
        self._staged_lan[vid] = lan_exnode
        base = self._exnodes.get(vid)
        if base is not None:
            for m in mappings:
                base.add_mapping(m)

    def is_staged(self, vid: str) -> bool:
        """True if a complete LAN replica exists."""
        return vid in self._staged_lan

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def request(
        self,
        vid: str,
        on_payload: Callable[[bytes, AccessSource, float], None],
        prefetch: bool = False,
        span: object = None,
    ) -> None:
        """Ask for a view set (invoked at the request's arrival time).

        ``on_payload(payload, source, comm_latency)`` fires at the sim time
        the payload is available *at the agent*; ``comm_latency`` is the
        Figure 12 data-access latency.  ``span``, when given, parents the
        fetch's trace spans (normally the client's access root span).
        """
        self.stats.requests += 1
        if prefetch:
            self.stats.prefetches_issued += 1
        t0 = self.queue.now
        payload = self._cache_get(vid)
        if payload is not None:
            if not prefetch:
                self.stats.hits += 1
                if vid in self._prefetched:
                    self.stats.prefetch_hits += 1
            self.queue.schedule_in(
                HIT_LATENCY,
                lambda: on_payload(payload, AccessSource.AGENT_CACHE,
                                   HIT_LATENCY),
                f"agent-hit:{vid}",
            )
            return
        waiter = _Waiter(on_payload=on_payload, t_arrival=t0,
                         prefetch=prefetch)
        flight = self._flights.get(vid)
        if flight is not None:
            # coalesce onto the flight we already wait on; a demand arrival
            # promotes whatever transfer is moving the bytes
            self.stats.coalesced += 1
            flight.waiters.append(waiter)
            flight.prefetch_only &= prefetch
            flight.span.event("coalesced", prefetch=prefetch)
            if not prefetch:
                if self.registry.promote(vid, Priority.DEMAND):
                    self.stats.promoted += 1
            return
        if vid in self.registry:
            # another layer (staging) is already moving these bytes: ride
            # its completion instead of starting a duplicate download
            self.stats.deduped += 1
            self.registry.note_deduped(vid)
            flight = _Flight(
                waiters=[waiter], prefetch_only=prefetch, foreign=True,
                priority=Priority.PREFETCH if prefetch else Priority.DEMAND,
            )
            flight.span = self._begin_fetch_span(vid, prefetch, span)
            flight.span.event("riding-foreign-transfer")
            self._flights[vid] = flight
            if not prefetch:
                if self.registry.promote(vid, Priority.DEMAND):
                    self.stats.promoted += 1
            self.registry.subscribe(
                vid, lambda ok: self._foreign_done(vid, ok)
            )
            return
        flight = _Flight(
            waiters=[waiter], prefetch_only=prefetch,
            priority=Priority.PREFETCH if prefetch else Priority.DEMAND,
        )
        flight.span = self._begin_fetch_span(vid, prefetch, span)
        self._flights[vid] = flight
        self._register_flight(vid, flight)
        self._resolve(vid)

    def _begin_fetch_span(self, vid: str, prefetch: bool,
                          parent: object) -> object:
        """Open the span tracking one agent fetch.

        Demand fetches hang under the client's access span; prefetches have
        no demand parent and become roots in the "prefetch" track.
        """
        if not self.tracer.enabled:
            return NOOP_SPAN
        return self.tracer.begin(
            f"fetch:{vid}",
            parent=parent,
            category="prefetch" if (prefetch and parent is None) else "fetch",
            viewset=vid,
        )

    def _register_flight(self, vid: str, flight: _Flight) -> None:
        self.registry.register(
            vid,
            "prefetch" if flight.prefetch_only else "demand",
            flight.priority,
            promote_cb=lambda p: self._promote_flight(vid, p),
            cancel_cb=lambda: self._cancel_flight(vid),
            span=flight.span,
        )

    def _promote_flight(self, vid: str, priority: Priority) -> None:
        flight = self._flights.get(vid)
        if flight is None:
            return
        flight.priority = Priority(priority)
        if flight.job is not None:
            flight.job.promote(priority)

    def _cancel_flight(self, vid: str) -> None:
        flight = self._flights.pop(vid, None)
        if flight is None:
            return
        flight.cancelled = True
        self.stats.cancelled += 1
        flight.span.finish(state="cancelled")
        if flight.job is not None:
            flight.job.cancel()

    def _foreign_done(self, vid: str, ok: bool) -> None:
        """The other layer's transfer finished (or died): resolve normally.

        On success the view set is now staged on the LAN depot, so this
        turns into a fast local fetch; on failure we fall back to the usual
        exNode/DVS path.
        """
        flight = self._flights.get(vid)
        if flight is None or flight.cancelled:
            return
        if vid in self.registry:
            # several agents rode the same transfer and another rider
            # re-claimed the key first (multi-client sessions); keep riding
            # — its local fetch is LAN-fast now that the bytes are staged
            flight.span.event("riding-foreign-transfer")
            if not flight.prefetch_only:
                if self.registry.promote(vid, Priority.DEMAND):
                    self.stats.promoted += 1
            self.registry.subscribe(
                vid, lambda ok2: self._foreign_done(vid, ok2)
            )
            return
        flight.foreign = False
        self._register_flight(vid, flight)
        self._resolve(vid)

    def retarget(self, key: ViewSetKey) -> None:
        """Cursor moved: cancel speculative fetches now far from it."""
        for vid, flight in list(self._flights.items()):
            if not flight.prefetch_only or flight.foreign:
                continue
            if (self.lattice.viewset_distance(key, parse_viewset_id(vid))
                    > PREFETCH_CANCEL_BEYOND):
                self.registry.cancel(vid)

    # -- resolution pipeline ---------------------------------------------
    def _resolve(self, vid: str) -> None:
        staged = self._staged_lan.get(vid)
        if staged is not None:
            self._download_classified(vid, staged)
            return
        exnode = self._exnodes.get(vid)
        if exnode is not None:
            self._download_classified(vid, exnode)
            return
        # DVS query: RPC to the DVS node + hierarchical lookup delay
        delay = self.network.rpc_delay(self.node, DVS_NODE)
        flight = self._flights.get(vid)
        fspan = flight.span if flight is not None else NOOP_SPAN
        dvs_span = (fspan.child("dvs-query", viewset=vid)
                    if self.tracer.enabled else NOOP_SPAN)

        def do_query() -> None:
            result = self.dvs.query(vid)

            def after_lookup() -> None:
                if dvs_span is not NOOP_SPAN:
                    dvs_span.finish(
                        found="exnode" if result.exnodes else "nothing")
                if result.exnodes:
                    ex = result.exnodes[0].read_only_view()
                    self._exnodes[vid] = ex
                    self._download_classified(vid, ex)
                else:
                    self._fail(vid, RuntimeError(
                        f"DVS has no exNode for {vid}"))

            self.queue.schedule_in(result.lookup_delay, after_lookup,
                                   f"dvs-lookup:{vid}")

        self.queue.schedule_in(delay, do_query, f"dvs-rpc:{vid}")

    def _download_classified(self, vid: str, exnode: ExNode) -> None:
        """Download via LoRS; classify the source by which depots served."""
        flight = self._flights.get(vid)
        if flight is None or flight.cancelled:
            return
        job = self.lors.download(exnode, self.node,
                                 max_streams=self.max_streams,
                                 priority=flight.priority,
                                 span=flight.span)
        flight.job = job

        def done(_: Deferred) -> None:
            if self._flights.get(vid) is not flight or flight.cancelled:
                return  # cancelled or superseded: nobody is waiting
            flight.job = None
            if job.failed:
                # drop the stale exNode and retry through the DVS once
                self._exnodes.pop(vid, None)
                self._staged_lan.pop(vid, None)
                if not flight.retried:
                    flight.retried = True
                    self._resolve(vid)
                else:
                    self._fail(vid, RuntimeError(f"download failed for {vid}"))
                return
            if flight.t_first_flow is None:
                flight.t_first_flow = job.t_first_flow
            lan_names = set(self._lan_depot_names())
            depots_used = set(job.per_depot_bytes)
            if depots_used and depots_used <= lan_names:
                source = AccessSource.LAN_DEPOT
                self.stats.lan_depot_fetches += 1
            else:
                source = AccessSource.WAN_DEPOT
                self.stats.wan_fetches += 1
            self._deliver(vid, bytes(job.result()), source)

        job.add_callback(done)

    def _lan_depot_names(self) -> List[str]:
        """Depots reachable at LAN latency (< 5 ms) from this agent."""
        out = []
        for depot in self.lors.lbone.all_depots():
            if self.lors.lbone.latency_from(self.node, depot.name) < 0.005:
                out.append(depot.name)
        return out

    def _deliver(self, vid: str, payload: bytes,
                 source: AccessSource) -> None:
        flight = self._flights.pop(vid, None)
        self._cache_put(vid, payload)
        self.registry.complete(vid, success=True)
        if flight is None:
            return
        if self.tracer.enabled:
            if not flight.prefetch_only:
                # only demand deliveries leave a mark: the client's
                # on_payload is the one consumer, so prefetch-only
                # deliveries would leak stale boundary times into a later
                # cache hit's stage spans
                self._marks[vid] = {"t_first_flow": flight.t_first_flow}
            flight.span.finish(source=source.value, bytes=len(payload),
                               waiters=len(flight.waiters))
        if flight.prefetch_only:
            self._prefetched.add(vid)
        now = self.queue.now
        for w in flight.waiters:
            if w.prefetch:
                self._prefetched.add(vid)
            w.on_payload(payload, source, now - w.t_arrival)

    def _fail(self, vid: str, exc: Exception) -> None:
        flight = self._flights.pop(vid, None)
        self.registry.complete(vid, success=False)
        if flight is None:
            return
        flight.span.finish(state="failed")
        for w in flight.waiters:
            if not w.prefetch:
                raise exc  # demand path has no fallback: surface loudly

    def take_flight_mark(self, vid: str) -> Optional[Dict[str, Optional[float]]]:
        """Pop the timing marks _deliver left for ``vid`` (tracing only).

        The client uses these to place the queue-wait / network-transfer
        boundary in its per-access stage spans; None on cache hits (no
        flight ever existed) or when tracing is disabled.
        """
        return self._marks.pop(vid, None)

    # ------------------------------------------------------------------
    def prefetch(self, keys: List[ViewSetKey]) -> None:
        """Warm the cache for likely-next view sets (Figure 4 policy)."""
        for key in keys:
            vid = self.lattice.viewset_id(key)
            if vid in self._payloads or vid in self._flights:
                continue
            if vid in self.registry:
                # staging (or another layer) is already moving these bytes
                self.stats.deduped += 1
                self.registry.note_deduped(vid)
                continue
            self.request(vid, lambda *a: None, prefetch=True)
