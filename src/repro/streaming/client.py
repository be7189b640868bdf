"""The client: user console, local residency and access accounting.

The client "takes user input and renders the desired view, if that view is
within the current view set that is locally stored.  Otherwise, it asks the
client agent to request new view sets."  Every view-set boundary crossing is
one *access* — the x-axis of Figures 8-12 — and the client measures what the
user experiences: request brokering + communication + decompression.

Decompression is **charged from a model**, never measured: an arriving
payload costs ``len(payload) * cpu_seconds_per_byte`` simulated seconds, so
simulated time is the only clock that reaches the event stream and every run
of a seed is bit-identical.  The console keeps the payload itself resident
and inflates it only when somebody asks for the pixels
(:meth:`Client.get_resident`); the host cost of a real inflate is Figure 8's
subject (``experiments.scenarios.decompression_point``), not the session's.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..lightfield.compression import codec_for_payload
from ..lightfield.lattice import CameraLattice, ViewSetKey
from ..lightfield.viewset import ViewSet
from ..lon.network import Network
from ..lon.simtime import EventQueue
from ..obs.tracer import NULL_TRACER, SpanLike, Tracer
from .agent import ClientAgent
from .metrics import AccessRecord, AccessSource, SessionMetrics
from .prefetch import PrefetchPolicy, QuadrantPolicy
from .trace import CursorSample, CursorTrace

__all__ = ["Client"]

#: local bookkeeping cost of switching to an already-resident view set
RESIDENT_SWAP_LATENCY = 1e-4

#: modelled decompression cost — roughly a 2003-era workstation inflating
#: zlib at ~500 MB/s.  Every committed figure charges it; this host's
#: measured inflate is 8.5-8.9x slower (``BENCH_decompression.json``).
CPU_SECONDS_PER_BYTE = 2e-9


class Client:
    """User console driven by a cursor trace.

    Parameters
    ----------
    resident_capacity:
        Number of view sets kept on the console.  1 models a PDA ("for
        those low-end devices ... without any local caching on the client
        at all" beyond the current view set); larger values model
        workstations.
    cpu_seconds_per_byte:
        Decompression delay charged per payload byte, in simulated seconds
        (a larger value models a slower console CPU; 0 makes inflation
        free).  Host timing never enters the simulation, so identical
        seeds give bit-identical event streams across machines and runs.
    """

    def __init__(
        self,
        node: str,
        queue: EventQueue,
        network: Network,
        agent: ClientAgent,
        lattice: CameraLattice,
        metrics: SessionMetrics,
        resident_capacity: int = 2,
        policy: Optional[PrefetchPolicy] = None,
        cpu_seconds_per_byte: float = CPU_SECONDS_PER_BYTE,
        on_cursor: Optional[Callable[[ViewSetKey], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if resident_capacity < 1:
            raise ValueError("resident_capacity must be >= 1")
        if cpu_seconds_per_byte < 0:
            raise ValueError("cpu_seconds_per_byte must be non-negative")
        self.node = node
        self.queue = queue
        self.network = network
        self.agent = agent
        self.scheduler = agent.lors.scheduler
        self.lattice = lattice
        self.metrics = metrics
        self.resident_capacity = resident_capacity
        self.policy = policy if policy is not None else QuadrantPolicy()
        self.cpu_seconds_per_byte = cpu_seconds_per_byte
        self.on_cursor = on_cursor
        # payloads as they arrived; get_resident swaps in the decoded form
        self._resident: OrderedDict[
            ViewSetKey, Union[bytes, ViewSet]] = OrderedDict()
        self._current: Optional[ViewSetKey] = None
        self._last_quadrant: Optional[Tuple[ViewSetKey, Tuple[int, int]]] = None
        self._access_index = 0
        # vid -> [(access index, request time)] for accesses that landed
        # while the same view set was already being fetched
        self._outstanding: Dict[str, List[Tuple[int, float]]] = {}
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # access index -> open root span, joined back up in complete()
        self._access_spans: Dict[int, SpanLike] = {}

    # ------------------------------------------------------------------
    def get_resident(self, key: ViewSetKey) -> Optional[ViewSet]:
        """ViewSetProvider protocol — lets a synthesizer render from here.

        The first request for a resident key inflates its payload and keeps
        the :class:`ViewSet` in the payload's place, so repeated calls
        return the same object; residency order is not touched.
        """
        held = self._resident.get(key)
        if isinstance(held, bytes):
            held, _ = codec_for_payload(held).decompress(held)
            self._resident[key] = held
        return held

    def _keep(self, key: ViewSetKey, payload: bytes) -> None:
        self._resident[key] = payload
        self._resident.move_to_end(key)
        while len(self._resident) > self.resident_capacity:
            self._resident.popitem(last=False)

    # ------------------------------------------------------------------
    # trace driving
    # ------------------------------------------------------------------
    def schedule_trace(self, trace: CursorTrace) -> None:
        """Arrange every cursor sample on the event queue."""
        for sample in trace:
            self.queue.schedule(
                sample.time, lambda s=sample: self.handle_cursor(s),
                "cursor",
            )

    def handle_cursor(self, sample: CursorSample) -> None:
        """Process one cursor position (called at its trace time)."""
        key, quadrant = self.lattice.locate(sample.theta, sample.phi)
        if self.on_cursor is not None:
            self.on_cursor(key)
        if key != self._current:
            # retarget before the access: stale far-away prefetches yield
            # their bandwidth to the fetch the user is about to wait on
            self.agent.retarget(key)
            self._current = key
            self._access(key)
        # Figure 4 policy: when the cursor settles in a quadrant, prefetch
        # the neighbors on that side.  Fires on (view set, quadrant) change,
        # not on every sample — prefetch is movement-driven, "spontaneous".
        if (key, quadrant) == self._last_quadrant:
            return
        self._last_quadrant = (key, quadrant)
        targets = self.policy.targets(self.lattice, key, quadrant)
        wanted = [
            k for k in targets
            if k not in self._resident
        ]
        if wanted:
            self.metrics.prefetch_issued += len(wanted)
            if self.tracer.enabled:
                self.tracer.instant(
                    "prefetch-decision",
                    cursor=self.lattice.viewset_id(key),
                    quadrant=str(quadrant),
                    targets=len(wanted),
                )
            delay = self.network.path_latency(self.node, self.agent.node)
            self.queue.schedule_in(
                delay, lambda w=wanted: self.agent.prefetch(w),
                "client-prefetch",
            )

    # ------------------------------------------------------------------
    def _access(self, key: ViewSetKey) -> None:
        self._access_index += 1
        index = self._access_index
        vid = self.lattice.viewset_id(key)
        t0 = self.queue.now
        resident = self._resident.get(key)
        if resident is not None:
            self._resident.move_to_end(key)
            if self.tracer.enabled:
                root = self.tracer.record(
                    f"access:{vid}", t0, t0 + RESIDENT_SWAP_LATENCY,
                    category="access", index=index, viewset=vid,
                    client=self.node,
                    source=AccessSource.CLIENT_RESIDENT.value,
                    total_latency=RESIDENT_SWAP_LATENCY,
                )
                self.tracer.record(
                    "resident-swap", t0, t0 + RESIDENT_SWAP_LATENCY,
                    parent=root, category="stage",
                )
            self.metrics.record(
                AccessRecord(
                    index=index,
                    viewset_id=vid,
                    source=AccessSource.CLIENT_RESIDENT,
                    request_time=t0,
                    comm_latency=0.0,
                    decompress_seconds=0.0,
                    total_latency=RESIDENT_SWAP_LATENCY,
                )
            )
            return
        root = self.tracer.begin(f"access:{vid}", t=t0, category="access",
                                 index=index, viewset=vid, client=self.node)
        if self.tracer.enabled:
            self._access_spans[index] = root
        pending = self._outstanding.get(vid)
        if pending is not None:
            # the user re-entered a view set that is still in flight: the
            # wait continues and is recorded against this access too
            pending.append((index, t0))
            return
        self._outstanding[vid] = [(index, t0)]
        req_delay = self.network.path_latency(self.node, self.agent.node)

        def on_payload(payload: bytes, source: AccessSource,
                       comm_latency: float) -> None:
            # payload is at the agent NOW; remember the boundary times the
            # stage spans need before shipping it down to the console
            t_payload = self.queue.now
            mark = self.agent.take_flight_mark(vid)
            # ship the payload from the agent to the client console (the
            # user is waiting: DEMAND class)
            self.scheduler.submit(
                self.agent.node,
                self.node,
                len(payload),
                on_complete=lambda fl: finish(payload, source, comm_latency,
                                              t_payload, mark),
                label=f"to-client:{vid}",
                span=root,
            )

        def finish(payload: bytes, source: AccessSource,
                   comm_latency: float, t_payload: float,
                   mark: Optional[Dict[str, Optional[float]]]) -> None:
            decompress = len(payload) * self.cpu_seconds_per_byte
            self.queue.schedule_in(
                decompress,
                lambda: complete(payload, source, comm_latency, decompress,
                                 t_payload, mark),
                f"decompress:{vid}",
            )

        def complete(payload: bytes, source: AccessSource,
                     comm_latency: float, decompress: float,
                     t_payload: float,
                     mark: Optional[Dict[str, Optional[float]]]) -> None:
            waiters = self._outstanding.pop(vid, [(index, t0)])
            self._keep(key, payload)
            now = self.queue.now
            traced = self.tracer.enabled
            # cache hits never rode a flow this access; any mark present is
            # a leftover from the fetch that originally filled the cache
            t_first_flow = (
                mark.get("t_first_flow")
                if mark and source is not AccessSource.AGENT_CACHE else None
            )
            for w_index, w_t0 in waiters:
                if traced:
                    w_root = self._access_spans.pop(w_index, None)
                    if w_root is not None:
                        self._emit_stage_spans(
                            w_root, w_t0, t_payload - comm_latency,
                            t_first_flow, t_payload, now - decompress, now,
                        )
                        w_root.finish(
                            t=now, source=source.value,
                            total_latency=now - w_t0,
                            comm_latency=comm_latency,
                            decompress_seconds=decompress,
                        )
                self.metrics.record(
                    AccessRecord(
                        index=w_index,
                        viewset_id=vid,
                        source=source,
                        request_time=w_t0,
                        comm_latency=comm_latency,
                        decompress_seconds=decompress,
                        total_latency=now - w_t0,
                    )
                )

        self.queue.schedule_in(
            req_delay,
            lambda: self.agent.request(vid, on_payload, span=root),
            f"client-req:{vid}",
        )

    def _emit_stage_spans(
        self,
        root: SpanLike,
        w_t0: float,
        agent_arrival: float,
        t_first_flow: Optional[float],
        t_payload: float,
        t_ship_end: float,
        t_end: float,
    ) -> None:
        """Partition one access's wait into consecutive stage spans.

        Boundaries are forced monotone and clipped into the access window
        ``[w_t0, t_end]`` so the stage durations always sum *exactly* to the
        recorded total latency — including for coalesced accesses whose
        request arrived mid-flight.  When no data flow ever ran (agent cache
        hit) the transfer stages collapse into a single ``cache-lookup``.
        """
        if t_first_flow is None:
            names = ["request-rpc", "cache-lookup",
                     "ship-to-console", "decompress"]
            bounds = [w_t0, agent_arrival, t_payload, t_ship_end, t_end]
        else:
            names = ["request-rpc", "queue-wait", "network-transfer",
                     "ship-to-console", "decompress"]
            bounds = [w_t0, agent_arrival, t_first_flow, t_payload,
                      t_ship_end, t_end]
        clipped: List[float] = []
        prev = w_t0
        for b in bounds:
            prev = min(max(b, prev), t_end)
            clipped.append(prev)
        for name, cs, ce in zip(names, clipped, clipped[1:]):
            self.tracer.record(name, cs, ce, parent=root, category="stage")
