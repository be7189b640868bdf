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
from ..obs.tracer import NULL_TRACER, Tracer
from .agent import ClientAgent
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
    cancelled: int = 0   # copies cancelled by a cursor retarget (requeued)


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
        cancel_beyond: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """``cancel_beyond``: on a cursor move, in-flight copies farther
        than this view-set grid distance from the new cursor are cancelled
        and requeued (``None`` — the default — disables cancellation;
        promoted copies someone is waiting on are never cancelled)."""
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
        self.cancel_beyond = cancel_beyond
        self._pending: List[ViewSetKey] = list(lattice.all_viewsets())
        self._in_flight: Set[str] = set()
        self._done: Set[str] = set()
        self._cursor_key: Optional[ViewSetKey] = None
        self._inflight_keys: Dict[str, ViewSetKey] = {}
        self._jobs: Dict[str, CopyJob] = {}
        self._priority: Dict[str, Priority] = {}
        self._cancelled: Set[str] = set()
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
        """True once the whole database is localized."""
        return not self._pending and not self._in_flight

    def update_cursor(self, key: ViewSetKey) -> None:
        """Dynamic retarget: re-sort the queue and drop far in-flight work.

        The queue re-sorts around the new cursor; with ``cancel_beyond``
        set, in-flight copies now farther than that distance are cancelled
        (and requeued) so their bandwidth goes to nearer view sets.  Copies
        promoted to DEMAND are exempt — a user is waiting on them.
        """
        if key == self._cursor_key:
            return
        self._cursor_key = key
        if self.order == "proximity":
            self._sorted = False
            self.stats.reorders += 1
        if self.cancel_beyond is None:
            return
        for vid, k in list(self._inflight_keys.items()):
            entry = self.registry.get(vid)
            if entry is None or entry.priority < Priority.STAGING:
                continue
            if self.lattice.viewset_distance(key, k) > self.cancel_beyond:
                self.registry.cancel(vid)

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
            self._inflight_keys[vid] = key
            span = self.tracer.begin(f"stage:{vid}", category="staging",
                                     viewset=vid)
            self._spans[vid] = span
            self.registry.register(
                vid, "staging", Priority.STAGING,
                promote_cb=lambda p, v=vid: self._promote(v, p),
                cancel_cb=lambda v=vid, k=key: self._cancel(v, k),
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

    def _cancel(self, vid: str, key: ViewSetKey) -> None:
        """Registry cancel hook: tear down the copy, requeue the key."""
        self._cancelled.add(vid)
        job = self._jobs.get(vid)
        if job is not None:
            job.cancel()  # rejects the deferred; done() sees _cancelled
        # pre-copy phases (DVS query in flight) unwind in _copy/_release

    def _release(self, vid: str, key: ViewSetKey, requeue: bool) -> None:
        self._in_flight.discard(vid)
        self._inflight_keys.pop(vid, None)
        self._jobs.pop(vid, None)
        self._priority.pop(vid, None)
        span = self._spans.pop(vid, None)
        if span is not None:
            span.finish(state="requeued" if requeue else "staged")
        if requeue:
            self._pending.insert(0, key)

    def _stage_one(self, key: ViewSetKey, vid: str) -> None:
        exnode = self.agent.exnode_for(vid)
        if exnode is not None:
            self._copy(key, vid, exnode)
            return
        # third-party staging still needs the exNode: ask the DVS
        delay = self.agent.network.rpc_delay(self.agent.node,
                                             self.agent.dvs_node)

        def do_query() -> None:
            result = self.dvs.query(vid)
            if not result.exnodes:
                # not yet generated: skip — demand path will trigger the
                # server; retry staging later
                self._release(vid, key, requeue=True)
                self._cancelled.discard(vid)
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
        if vid in self._cancelled:
            # cancelled while still looking up the exNode: nothing started
            self._cancelled.discard(vid)
            self.stats.cancelled += 1
            self._release(vid, key, requeue=True)
            self.registry.complete(vid, success=False)
            return
        job = self._jobs[vid] = self.lors.augment(
            exnode, self.lan_depot, max_streams=self.streams_per_copy,
            priority=self._priority.get(vid, Priority.STAGING),
            span=self._spans.get(vid),
        )

        def done(dfd: Deferred) -> None:
            if vid in self._cancelled:
                # a cursor retarget killed this copy: requeue quietly (the
                # registry entry is completed by the cancel path)
                self._cancelled.discard(vid)
                self.stats.cancelled += 1
                self._release(vid, key, requeue=True)
                return
            if dfd.failed:
                self.stats.failed += 1
                # requeue at the back; depot pressure may clear
                self._release(vid, key, requeue=True)
                self.registry.complete(vid, success=False)
                return
            mappings: List[Mapping] = dfd.result()
            lan_only = ExNode(
                name=vid, length=exnode.length, mappings=mappings,
                metadata=dict(exnode.metadata),
            )
            if not lan_only.is_fully_covered():
                self.stats.failed += 1
                self._release(vid, key, requeue=True)
                self.registry.complete(vid, success=False)
                return
            self._done.add(vid)
            self.stats.staged += 1
            self.stats.bytes_staged += exnode.length
            self._release(vid, key, requeue=False)
            self.agent.note_staged(vid, lan_only, mappings)
            self.registry.complete(vid, success=True)
            self._launch_copies()

        job.add_callback(done)
