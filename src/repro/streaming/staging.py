"""Aggressive two-stage prefetching via a LAN depot (Figure 5, Section 4.3).

"While the network is vacant, aggressive staging of view sets that may be
soon requested are performed ... All such LoN operations take place as third
party communication without consuming resources on either the client or the
client agent."

The pump keeps a queue over the *entire database*, ordered by view-set grid
distance from the cursor's current view set ("ordered by distance from the
current position of the cursor, and this order is updated dynamically as the
cursor moves").  Up to ``max_concurrent`` third-party copies run at once;
each copy moves a view set's blocks from the WAN depots onto the LAN depot
as *soft* IBP allocations, then registers the LAN replica with the client
agent so subsequent misses are served locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..lightfield.lattice import CameraLattice, ViewSetKey
from ..lon.exnode import ExNode, Mapping
from ..lon.ibp import Depot
from ..lon.lors import CopyJob, Deferred, LoRS
from ..lon.scheduler import Priority
from ..lon.simtime import EventQueue, Process
from ..obs.tracer import NOOP_SPAN, NULL_TRACER, Tracer
from .agent import DVS_NODE, ClientAgent
from .dvs import DVSServer

__all__ = ["StagingPump", "StagingStats"]


@dataclass
class StagingStats:
    """Progress counters for staging analysis."""

    staged: int = 0
    failed: int = 0
    bytes_staged: int = 0
    reorders: int = 0
    deduped: int = 0     # copies suppressed: bytes already in flight elsewhere
    promoted: int = 0    # copies promoted to DEMAND by an early user arrival
    #: always 0: a retarget re-sorts the queue and never cancels a copy
    cancelled: int = 0


class StagingPump:
    """Background third-party copier onto the LAN depot.

    Parameters
    ----------
    order:
        ``"proximity"`` (the paper's dynamic cursor-distance order) or
        ``"fifo"`` (ablation: row-major database order).
    max_concurrent:
        Simultaneous third-party copies ("exploiting every bit of available
        network bandwidth" — more streams, more aggression).

    The pump wakes every 0.05 simulated seconds to launch copies into free
    slots, until the whole database is localized.
    """

    def __init__(
        self,
        queue: EventQueue,
        lors: LoRS,
        dvs: DVSServer,
        agent: ClientAgent,
        lan_depot: Depot,
        lattice: CameraLattice,
        max_concurrent: int = 2,
        streams_per_copy: int = 2,
        order: str = "proximity",
        tracer: Optional[Tracer] = None,
    ) -> None:
        if order not in ("proximity", "fifo"):
            raise ValueError("order must be 'proximity' or 'fifo'")
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.queue = queue
        self.lors = lors
        self.registry = lors.scheduler.registry
        self.dvs = dvs
        self.agent = agent
        self.lan_depot = lan_depot
        self.lattice = lattice
        self.max_concurrent = max_concurrent
        self.streams_per_copy = max(1, streams_per_copy)
        self.order = order
        self._pending: List[ViewSetKey] = list(lattice.all_viewsets())
        self._in_flight: Set[str] = set()
        self._done: Set[str] = set()
        self._cursor_key: Optional[ViewSetKey] = None
        self._jobs: Dict[str, CopyJob] = {}
        self._priority: Dict[str, Priority] = {}
        self.stats = StagingStats()
        self._process = Process(queue, self._tick, "staging-pump")
        self._sorted = False
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._spans: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin staging "as soon as visualization of a dataset begins"."""
        self._process.start()

    def stop(self) -> None:
        """Halt the pump (in-flight copies complete)."""
        self._process.stop()

    @property
    def complete(self) -> bool:
        """True once every view set is localized, or given up because the
        DVS lacks it."""
        return not self._pending and not self._in_flight

    def update_cursor(self, key: ViewSetKey) -> None:
        """Dynamic retarget: re-sort the queue around the new cursor.

        Copies already in flight run to completion; only the order of what
        is still queued follows the cursor.
        """
        if key == self._cursor_key:
            return
        self._cursor_key = key
        if self.order == "proximity":
            self._sorted = False
            self.stats.reorders += 1

    # ------------------------------------------------------------------
    def _tick(self) -> Optional[float]:
        self._launch_copies()
        if self.complete:
            return None  # everything localized; the pump retires
        return 0.05

    def _launch_copies(self) -> None:
        while self._pending and len(self._in_flight) < self.max_concurrent:
            if self.order == "proximity" and not self._sorted:
                anchor = self._cursor_key or self._pending[0]
                self._pending.sort(
                    key=lambda k: self.lattice.viewset_distance(anchor, k),
                    reverse=True,  # pop() takes from the end: nearest last
                )
                self._sorted = True
            key = self._pending.pop()
            vid = self.lattice.viewset_id(key)
            if vid in self._done or self.agent.is_staged(vid):
                continue
            if vid in self.registry:
                # another layer (agent demand/prefetch) is already moving
                # these bytes: suppress the duplicate copy, requeue the key
                # and wait for the next tick
                self.stats.deduped += 1
                self.registry.note_deduped(vid)
                self._pending.insert(0, key)
                break
            self._in_flight.add(vid)
            span = (self.tracer.begin(f"stage:{vid}", category="staging",
                                      viewset=vid)
                    if self.tracer.enabled else NOOP_SPAN)
            self._spans[vid] = span
            self.registry.register(
                vid, "staging", Priority.STAGING,
                promote_cb=lambda p, v=vid: self._promote(v, p),
                span=span,
            )
            self._stage_one(key, vid)

    def _promote(self, vid: str, priority: Priority) -> None:
        """A user arrived early: raise this copy's class mid-flight."""
        self._priority[vid] = Priority(priority)
        self.stats.promoted += 1
        job = self._jobs.get(vid)
        if job is not None:
            job.promote(priority)

    def _release(self, vid: str, key: ViewSetKey, state: str) -> None:
        """Free ``vid``'s copy slot and close its span as ``state``
        (``staged``, ``requeued`` or ``missing``); only a requeued view
        set goes back on the queue."""
        self._in_flight.discard(vid)
        self._jobs.pop(vid, None)
        self._priority.pop(vid, None)
        span = self._spans.pop(vid, None)
        if span is not None:
            span.finish(state=state)
        if state == "requeued":
            self._pending.insert(0, key)

    def _stage_one(self, key: ViewSetKey, vid: str) -> None:
        exnode = self.agent.exnode_for(vid)
        if exnode is not None:
            self._copy(key, vid, exnode)
            return
        # third-party staging still needs the exNode: ask the DVS
        delay = self.agent.network.rpc_delay(self.agent.node, DVS_NODE)

        def do_query() -> None:
            result = self.dvs.query(vid)
            if not result.exnodes:
                # unknown to the DVS (the database is pre-distributed, so
                # only a dropped entry gets here): asking again would find
                # nothing either, so the view set is given up, not requeued
                self.stats.failed += 1
                self._release(vid, key, "missing")
                self.registry.complete(vid, success=False)
                return
            ex = result.exnodes[0].read_only_view()
            self.agent.note_exnode(vid, ex)
            self.queue.schedule_in(
                result.lookup_delay, lambda: self._copy(key, vid, ex),
                f"stage-lookup:{vid}",
            )

        self.queue.schedule_in(delay, do_query, f"stage-dvs:{vid}")

    def _copy(self, key: ViewSetKey, vid: str, exnode: ExNode) -> None:
        job = self._jobs[vid] = self.lors.augment(
            exnode, self.lan_depot, max_streams=self.streams_per_copy,
            priority=self._priority.get(vid, Priority.STAGING),
            span=self._spans.get(vid),
        )

        def done(dfd: Deferred) -> None:
            if dfd.failed:
                self.stats.failed += 1
                # requeue at the back; depot pressure may clear
                self._release(vid, key, "requeued")
                self.registry.complete(vid, success=False)
                return
            mappings: List[Mapping] = dfd.result()
            lan_only = ExNode(
                name=vid, length=exnode.length, mappings=mappings,
                metadata=dict(exnode.metadata),
            )
            if not lan_only.is_fully_covered():
                self.stats.failed += 1
                self._release(vid, key, "requeued")
                self.registry.complete(vid, success=False)
                return
            self._done.add(vid)
            self.stats.staged += 1
            self.stats.bytes_staged += exnode.length
            self._release(vid, key, "staged")
            self.agent.note_staged(vid, lan_only, mappings)
            self.registry.complete(vid, success=True)
            self._launch_copies()

        job.add_callback(done)
