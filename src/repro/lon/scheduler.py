"""Priority-aware transfer scheduling: one choke point for every byte moved.

The paper's Section 4.3 observes that "prefetching ... places a burden" on
the network: aggressive staging competes with foreground view-set misses for
the same WAN links.  In the seed reproduction that interference was an
accident of four independent transfer paths (demand downloads, agent
prefetches, third-party staging copies, uploads) each driving
:class:`~repro.lon.network.Network` flows directly.  This module makes it a
*scheduled* behaviour:

* every transfer is submitted through a :class:`TransferScheduler` carrying a
  :class:`Priority` class (``DEMAND > PREFETCH > STAGING > MAINTENANCE``);
* the ``weighted`` policy maps priority classes to weighted max-min fair
  shares, so a demand miss sharing the WAN with staging still gets most of
  the bottleneck; ``strict`` additionally pauses background flows whose path
  overlaps a live higher-class flow (they resume, with progress kept, when
  the foreground drains); ``off`` reproduces the seed's priority-blind equal
  sharing;
* an :class:`InFlightRegistry` shared by the client agent, the prefetcher and
  the staging pump deduplicates cross-layer fetches of the same view set and
  lets a demand arrival *promote* an in-flight background transfer instead of
  starting a duplicate download;
* every lifecycle step (queued → admitted → re-rated → paused/resumed →
  promoted → completed/cancelled/failed) is emitted as a
  :class:`TransferEvent` so experiments can attribute client latency to
  scheduling interference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..obs.tracer import NOOP_SPAN, NULL_TRACER, SpanLike, Tracer
from .network import Flow, Network

__all__ = [
    "Priority",
    "TransferEvent",
    "TransferHandle",
    "TransferSpec",
    "InFlightEntry",
    "InFlightRegistry",
    "RegistryStats",
    "SchedulerStats",
    "TransferScheduler",
    "DEFAULT_CLASS_WEIGHTS",
    "SCHEDULING_POLICIES",
]


class Priority(IntEnum):
    """Transfer urgency classes, most urgent first (lower value = hotter)."""

    DEMAND = 0       # a user is waiting on this right now
    PREFETCH = 1     # speculative warm-up of the agent cache
    STAGING = 2      # third-party background copies to the LAN depot
    MAINTENANCE = 3  # uploads, lease upkeep, replica repair


def _priority(value: int) -> Priority:
    """``value`` as a :class:`Priority`, without a second enum lookup when it
    already is one (the admission path passes one through several calls)."""
    return value if isinstance(value, Priority) else Priority(value)


#: default weighted-fair-share weights per priority class.  An 8:2:1:0.5
#: split gives a lone demand flow ~70% of a bottleneck it shares with one
#: prefetch and one staging flow, without starving the background entirely.
DEFAULT_CLASS_WEIGHTS: Dict[Priority, float] = {
    Priority.DEMAND: 8.0,
    Priority.PREFETCH: 2.0,
    Priority.STAGING: 1.0,
    Priority.MAINTENANCE: 0.5,
}

#: recognized scheduling policies (the experiment ablation knob).
SCHEDULING_POLICIES = ("off", "weighted", "strict")


@dataclass
class TransferEvent:
    """One lifecycle step of a scheduled transfer (for latency attribution)."""

    time: float
    label: str
    priority: str        # Priority name, JSON-friendly
    event: str           # queued|admitted|rerated|paused|resumed|promoted|
    #                      completed|cancelled|failed
    detail: str = ""
    #: id of the span owning this transfer (None when tracing is off), so
    #: dedup/promotion can be read inside the demand trace that benefited
    span_id: Optional[int] = None


@dataclass
class SchedulerStats:
    """Counters over a scheduler's lifetime."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    promoted: int = 0
    preempted: int = 0   # strict-policy pauses
    resumed: int = 0
    rerates: int = 0
    # the three below always read 0: there is no batch admission path
    # kept because perf/ reads it by name; goes with ROADMAP 1(b)
    batches_flushed: int = 0
    # kept because perf/ reads it by name; goes with ROADMAP 1(b)
    submissions_coalesced: int = 0
    # kept because perf/ reads it by name; goes with ROADMAP 1(b)
    scalar_fallbacks: int = 0


class TransferHandle:
    """A scheduled transfer: the scheduler client's view of one flow."""

    def __init__(
        self,
        scheduler: TransferScheduler,
        priority: Priority,
        label: str,
    ) -> None:
        self.scheduler = scheduler
        self.priority = priority
        self.label = label
        self.flow: Optional[Flow] = None
        self.state = "queued"  # queued|active|completed|cancelled|failed
        #: per-transfer span (real when tracing is on)
        self.span: SpanLike = NOOP_SPAN

    @property
    def done(self) -> bool:
        """True once the transfer reached a terminal state."""
        return self.state in ("completed", "cancelled", "failed")

    def cancel(self) -> None:
        """Abort this transfer; completion callbacks never fire."""
        self.scheduler.cancel(self)

    def promote(self, priority: Priority) -> bool:
        """Raise urgency mid-flight (returns True if anything changed)."""
        return self.scheduler.promote(self, priority)


@dataclass
class TransferSpec:
    """One transfer request, as an inert value for
    :meth:`TransferScheduler.submit_batch`.

    Field-for-field the arguments of :meth:`TransferScheduler.submit`, plus
    the priority class and an ``on_fail`` callback.
    """

    src: str
    dst: str
    size: int
    on_complete: Callable[[Flow], None]
    on_fail: Optional[Callable[[Flow, Exception], None]] = None
    label: str = ""
    priority: Priority = Priority.DEMAND
    span: Optional[SpanLike] = None


@dataclass
class InFlightEntry:
    """One resource (view set) currently being transferred by some layer."""

    key: str
    kind: str            # "demand" | "prefetch" | "staging"
    priority: Priority
    promote_cb: Optional[Callable[[Priority], None]] = None
    cancel_cb: Optional[Callable[[], None]] = None
    subscribers: List[Callable[[bool], None]] = field(default_factory=list)
    #: span of the layer moving the bytes; dedup/promotion events land here
    span: SpanLike = NOOP_SPAN


@dataclass
class RegistryStats:
    """Cross-layer coordination counters."""

    registered: int = 0
    deduped: int = 0     # duplicate fetches suppressed
    promoted: int = 0    # background entries promoted to DEMAND
    cancelled: int = 0   # entries cancelled as no longer useful


class InFlightRegistry:
    """Shared index of resources in flight across every transfer path.

    The client agent (demand + prefetch), the staging pump and any other
    byte-moving layer register here under the resource key (a view-set id),
    so no two layers ever fetch the same bytes concurrently, and a demand
    arrival can promote — rather than duplicate — background work.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, InFlightEntry] = {}
        self.stats = RegistryStats()

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def register(
        self,
        key: str,
        kind: str,
        priority: Priority,
        promote_cb: Optional[Callable[[Priority], None]] = None,
        cancel_cb: Optional[Callable[[], None]] = None,
        span: SpanLike = NOOP_SPAN,
    ) -> InFlightEntry:
        """Claim ``key``; raises if another layer already holds it."""
        if key in self._entries:
            raise ValueError(f"resource {key!r} is already in flight")
        entry = InFlightEntry(
            key=key, kind=kind, priority=priority,
            promote_cb=promote_cb, cancel_cb=cancel_cb,
            span=span if span is not None else NOOP_SPAN,
        )
        self._entries[key] = entry
        self.stats.registered += 1
        return entry

    def note_deduped(self, key: str) -> None:
        """Record that a duplicate fetch of ``key`` was suppressed."""
        self.stats.deduped += 1
        entry = self._entries.get(key)
        if entry is not None:
            entry.span.event("deduped", key=key)

    def promote(self, key: str, priority: Priority) -> bool:
        """Raise the urgency of an in-flight entry (e.g. to DEMAND)."""
        entry = self._entries.get(key)
        if entry is None or priority >= entry.priority:
            return False
        entry.priority = priority
        self.stats.promoted += 1
        if entry.span is not NOOP_SPAN:
            entry.span.event("promoted", priority=Priority(priority)._name_)
        if entry.promote_cb is not None:
            entry.promote_cb(priority)
        return True

    def subscribe(self, key: str, cb: Callable[[bool], None]) -> bool:
        """Run ``cb(success)`` when the entry completes; False if absent."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry.subscribers.append(cb)
        return True

    def complete(self, key: str, success: bool = True) -> None:
        """Release ``key`` and notify subscribers (no-op if absent)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for cb in entry.subscribers:
            cb(success)

    def cancel(self, key: str) -> bool:
        """Cancel the in-flight work holding ``key`` (via its cancel_cb).

        The holder's teardown is expected to call :meth:`complete`; if it
        does not, the entry is dropped here with ``success=False``.  Only
        *this* entry is dropped: a teardown that synchronously resubmits
        the key (retarget cancellation racing a fresh demand) re-registers
        a new entry, which must survive the old entry's cleanup — a plain
        ``key in self._entries`` check here would tear the new entry down
        and leave the resource permanently unfetchable.
        """
        entry = self._entries.get(key)
        if entry is None:
            return False
        self.stats.cancelled += 1
        if entry.cancel_cb is not None:
            entry.cancel_cb()
        if self._entries.get(key) is entry:
            self.complete(key, success=False)
        return True


class TransferScheduler:
    """Admission point mapping priority classes onto network flow shares.

    Parameters
    ----------
    network:
        The simulated network every flow runs over.
    policy:
        ``"off"`` — priority-blind equal sharing (the seed behaviour);
        ``"weighted"`` — weighted max-min fair sharing by class weight;
        ``"strict"`` — weighted, plus background flows sharing a link with a
        live higher-class flow are paused (progress kept) until it drains.
    tracer:
        Observability tracer; per-transfer spans are opened under the parent
        span passed to :meth:`submit`.  Defaults to the shared disabled
        tracer (no spans, negligible overhead).
    """

    def __init__(
        self,
        network: Network,
        policy: str = "weighted",
        tracer: Optional[Tracer] = None,
    ) -> None:
        if policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown scheduling policy {policy!r}; "
                f"choose from {SCHEDULING_POLICIES}"
            )
        self.network = network
        self.policy = policy
        self.weights = DEFAULT_CLASS_WEIGHTS
        #: optional ``callback(TransferEvent)`` receiving lifecycle events
        self.on_event: Optional[Callable[[TransferEvent], None]] = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = InFlightRegistry()
        self.stats = SchedulerStats()
        #: admitted transfers, in admission order (a dict: O(1) retire)
        self._active: Dict[TransferHandle, None] = {}

    # ------------------------------------------------------------------
    def weight_for(self, priority: Priority) -> float:
        """The fair-share weight a flow of this class runs at."""
        if self.policy == "off":
            return 1.0
        return self.weights[_priority(priority)]

    @property
    def active_handles(self) -> List[TransferHandle]:
        """Transfers currently admitted (snapshot)."""
        return list(self._active)

    # ------------------------------------------------------------------
    def submit(
        self,
        src: str,
        dst: str,
        size: int,
        on_complete: Callable[[Flow], None],
        label: str = "",
        span: Optional[SpanLike] = None,
    ) -> TransferHandle:
        """Admit one DEMAND-class transfer (a user waits on it).

        Semantics match :meth:`Network.transfer` (``NoRouteError`` raises
        immediately, callbacks fire at simulated delivery time) with the
        flow's bandwidth share governed by the scheduling policy.  ``span``
        (optional) becomes the parent of this transfer's own span, linking
        the flow into the request trace that caused it.
        """
        spec = TransferSpec(
            src, dst, size, on_complete, None, label, Priority.DEMAND, span)
        return self._submit_spec(spec)

    def submit_batch(
        self, specs: Sequence[TransferSpec]
    ) -> List[TransferHandle]:
        """Admit transfers that start at one instant, in spec order.

        A loop of the one admission sequence :meth:`submit` runs, each spec
        at its own priority.  Handles are returned in spec order; like
        :meth:`submit`, ``NoRouteError`` propagates from the offending
        spec's position and earlier specs remain admitted.
        """
        return [self._submit_spec(s) for s in specs]

    def _submit_spec(self, spec: TransferSpec) -> TransferHandle:
        """The one admission sequence: open the span, emit ``queued``,
        admit the flow through ``Network.transfer`` and emit ``admitted``."""
        priority = _priority(spec.priority)
        handle = TransferHandle(self, priority, spec.label)
        if self.tracer.enabled:
            handle.span = self.tracer.begin(
                f"xfer:{spec.label}" if spec.label else "xfer",
                parent=spec.span,
                category="transfer",
                src=spec.src, dst=spec.dst, bytes=spec.size,
                priority=priority._name_,
            )
        if self.on_event is not None:
            self._emit("queued", handle)
        self.stats.submitted += 1
        on_complete = spec.on_complete
        on_fail = spec.on_fail

        def _complete(flow: Flow) -> None:
            if handle.done:
                return
            handle.state = "completed"
            self.stats.completed += 1
            self._retire(handle, "completed")
            on_complete(flow)

        def _fail(flow: Flow, exc: Exception) -> None:
            if handle.done:
                return
            handle.state = "failed"
            self.stats.failed += 1
            self._retire(handle, "failed", detail=str(exc))
            if on_fail is not None:
                on_fail(flow, exc)

        flow = self.network.transfer(
            spec.src, spec.dst, spec.size, on_complete=_complete,
            on_fail=_fail, label=spec.label, weight=self.weight_for(priority),
        )
        handle.flow = flow
        handle.state = "active"
        if self.on_event is not None:
            def _rerated(fl: Flow, old_rate: float) -> None:
                self.stats.rerates += 1
                self._emit(
                    "rerated", handle,
                    detail=f"{old_rate:.0f}->{fl.rate:.0f}B/s",
                )
            flow.on_rate_change = _rerated
        self._active[handle] = None
        self._emit("admitted", handle)
        if self.policy == "strict":
            self._apply_strict()
        return handle

    def cancel(self, handle: TransferHandle) -> None:
        """Abort a scheduled transfer (no-op once terminal)."""
        if handle.done:
            return
        handle.state = "cancelled"
        self.stats.cancelled += 1
        if handle.flow is not None:
            self.network.cancel_flow(handle.flow)
        self._retire(handle, "cancelled")

    def promote(self, handle: TransferHandle, priority: Priority) -> bool:
        """Raise a transfer's class mid-flight; re-rates immediately."""
        priority = Priority(priority)
        if handle.done or priority >= handle.priority:
            return False
        handle.priority = priority
        self.stats.promoted += 1
        if handle.flow is not None:
            self.network.set_flow_weight(
                handle.flow, self.weight_for(priority)
            )
        handle.span.annotate(priority=priority.name)
        self._emit("promoted", handle, detail=priority.name)
        if self.policy == "strict":
            self._apply_strict()
        return True

    # ------------------------------------------------------------------
    def _retire(self, handle: TransferHandle, event: str,
                detail: str = "") -> None:
        self._active.pop(handle, None)
        if self.on_event is not None:
            self._emit(event, handle, detail=detail)
        if handle.span is not NOOP_SPAN:
            handle.span.finish(state=handle.state)
        if self.policy == "strict":
            self._apply_strict()

    def _apply_strict(self) -> None:
        """Pause background flows sharing a link with hotter live flows.

        Flows are visited in urgency order; links claimed by running flows
        of strictly higher classes force lower-class flows off the network
        (paused, progress kept).  When the foreground drains, the next
        admission change resumes the survivors.
        """
        live = [
            h for h in self._active
            if h.flow is not None
            and not (h.flow.done or h.flow.failed)
            and h.flow.path_links
        ]
        live.sort(key=lambda h: h.priority)
        claimed: Set[object] = set()
        tier_links: Set[object] = set()
        tier: Optional[Priority] = None
        for h in live:
            if tier is None or h.priority != tier:
                claimed |= tier_links
                tier_links = set()
                tier = h.priority
            preempted = any(lk in claimed for lk in h.flow.path_links)
            if preempted and not h.flow.paused:
                self.network.pause_flow(h.flow)
                self.stats.preempted += 1
                self._emit("paused", h)
            elif not preempted and h.flow.paused:
                self.network.resume_flow(h.flow)
                self.stats.resumed += 1
                self._emit("resumed", h)
            if not preempted:
                tier_links |= set(h.flow.path_links)

    def _emit(self, event: str, handle: TransferHandle,
              detail: str = "") -> None:
        span = handle.span
        # span events are kept distinct from the open/close pair: "queued"
        # and the terminal events, which come here only for ``on_event``,
        # already bound the span itself
        if span is not NOOP_SPAN and event not in (
                "queued", "completed", "cancelled", "failed"):
            span.event(event, detail=detail)
        if self.on_event is None:
            return
        self.on_event(TransferEvent(
            self.network.queue.now, handle.label, handle.priority.name,
            event, detail, span.span_id,
        ))
