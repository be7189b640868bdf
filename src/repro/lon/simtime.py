"""Discrete-event simulation clock and event queue.

The streaming experiments in the paper (Figures 9-12) are driven by the
relative latencies of three storage tiers: the client agent's in-memory cache
(~1e-4 s), a depot on the client's LAN (~1e-2..1e-1 s) and depots across the
WAN (~1 s).  Rather than sleeping for real seconds, every network and storage
operation in this reproduction advances a shared :class:`SimClock` through a
:class:`EventQueue`.  CPU costs enter the same way — client decompression is
a modelled service time of ``bytes x seconds-per-byte`` — so client-observed
latency composes brokering, communication and decompression as the paper
measures it at the client, and no host-clock reading ever reaches the queue.

The queue is a binary heap (``heapq``) of ``(time, seq, event)`` triples
ordered by time with a monotonically increasing sequence number as the
tiebreaker, which makes simultaneous events fire in schedule order and keeps
runs bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "SimClock",
    "Event",
    "EventQueue",
    "Process",
    "SimulationError",
]

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an inconsistent state."""


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Events compare by ``(time, seq)`` so that heap ordering is total even when
    two events share a timestamp.  ``cancelled`` events stay in the heap but
    are skipped when popped (lazy deletion), which keeps cancellation O(1).
    ``__slots__`` matters at scale: rebalancing and scheduler retargeting
    churn through millions of events per multi-client session.

    The queue's heap stores ``(time, seq, event)`` triples rather than bare
    events, so sift comparisons resolve on the C-level float/int pair and
    never call back into this class's generated ``__lt__`` — at hundreds of
    thousands of events per session those interpreter re-entries were one
    of the hottest lines in the whole simulator.
    """

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)


class SimClock:
    """Monotonic simulation time in seconds.

    Only :class:`EventQueue` should advance the clock; everything else reads
    ``now``.  Attempting to move time backwards raises
    :class:`SimulationError` instead of silently corrupting causality.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def _advance_to(self, t: float) -> None:
        if t < self._now - 1e-12:
            raise SimulationError(
                f"clock cannot run backwards: now={self._now!r}, target={t!r}"
            )
        self._now = max(self._now, t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"


#: the share of cancelled entries, and the heap size, from which
#: :class:`EventQueue` compacts its heap
COMPACT_THRESHOLD = 0.5
COMPACT_MIN = 512


class EventQueue:
    """Priority queue of timed callbacks driving a :class:`SimClock`.

    Typical use::

        q = EventQueue()
        q.schedule(1.5, lambda: print("fires at t=1.5"))
        q.run()

    ``run_until`` executes events up to (and including) a horizon, which the
    streaming session harness uses to interleave user-input processing with
    background staging traffic.

    Cancelled events are lazily deleted: they stay in the heap until popped.
    Workloads that retarget heavily (rate rebalancing, prefetch
    cancellation) can leave the heap mostly garbage, so whenever the
    cancelled fraction reaches :data:`COMPACT_THRESHOLD` (and the heap
    holds at least :data:`COMPACT_MIN` entries) the heap is compacted in
    O(n) — the (time, seq) total order makes ``heapify`` deterministic.
    """

    def __init__(self) -> None:
        self.clock = SimClock()
        # (time, seq, event) triples: heap sift orders on the C float/int
        # pair without re-entering python (see Event docstring)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._live = 0  # number of non-cancelled events in the heap
        self._garbage = 0  # cancelled events still sitting in the heap
        self.compactions = 0  # times the heap was rebuilt (for tests/bench)
        self.fired_total = 0  # events fired over the queue's lifetime
        #: observer called as ``on_fire(event)`` just before each event's
        #: callback runs.  Stream collectors and the pinned-digest tests
        #: hash the fired events here; ``None`` costs one attribute test
        #: per event.
        self.on_fire: Optional[Callable[[Event], None]] = None

    def __len__(self) -> int:
        return self._live

    @property
    def now(self) -> float:
        """Shortcut for ``self.clock.now`` (read without its property)."""
        return self.clock._now

    def schedule(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        now = self.clock._now
        if not now <= time < _INF:  # one test on the hot path; nan fails it
            if not math.isfinite(time):
                raise SimulationError(
                    f"event time must be finite, got {time!r}")
            if time < now - 1e-12:
                raise SimulationError(
                    f"cannot schedule into the past: now={now}, t={time}"
                )
            time = now
        seq = next(self._seq)
        ev = Event(time, seq, callback, label, False, False)
        heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def schedule_in(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        return self.schedule(self.clock._now + delay, callback, label)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        if not event.cancelled and not event.fired:
            event.cancelled = True
            self._live -= 1
            self._garbage += 1
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap once lazy-deletion garbage dominates it."""
        if (len(self._heap) >= COMPACT_MIN
                and self._garbage >= COMPACT_THRESHOLD * len(self._heap)):
            self._heap = [e for e in self._heap if not e[2].cancelled]
            heapq.heapify(self._heap)
            self._garbage = 0
            self.compactions += 1

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        self._drop_cancelled_head()
        return self._heap[0][0] if self._heap else None

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
            self._garbage -= 1

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the queue drains.  Returns the number of events fired."""
        fired = self._dispatch(_INF, max_events)
        self._check_budget(fired, max_events, _INF)
        return fired

    def run_until(self, horizon: float, max_events: int = 10_000_000) -> int:
        """Run events with time <= horizon, then advance the clock to it."""
        fired = self._dispatch(horizon, max_events)
        self._check_budget(fired, max_events, horizon)
        self.clock._advance_to(horizon)
        return fired

    def _check_budget(self, fired: int, max_events: int,
                      horizon: float) -> None:
        """Raise when the budget ran out with an event still due: a budget
        a run uses up exactly is not a runaway loop."""
        if fired >= max_events:
            due = self.peek_time()
            if due is not None and due <= horizon:
                raise SimulationError(
                    f"event budget exhausted after {fired} events with "
                    "more due; likely a self-rescheduling loop"
                )

    def _dispatch(self, horizon: float, max_events: int) -> int:
        """Fire up to ``max_events`` events due at or before ``horizon``:
        the one loop behind :meth:`run` and :meth:`run_until`.
        """
        heappop = heapq.heappop
        clock = self.clock
        fired = 0
        while fired < max_events:
            # re-read the heap each iteration: a callback can cancel events
            # and trigger a compaction, which rebinds self._heap — a cached
            # alias would go stale and this loop would spin on (and
            # mis-drop from) the pre-compaction list
            heap = self._heap
            if not heap:
                break
            t, _, ev = heap[0]
            if ev.cancelled:
                heappop(heap)
                self._garbage -= 1
                continue
            if t > horizon:
                break
            heappop(heap)
            self._live -= 1
            ev.fired = True
            self.fired_total += 1
            # heap order guarantees monotonic time (schedule() rejects the
            # past), so the clock can be bumped without the backwards check
            if t > clock._now:
                clock._now = t
            if self.on_fire is not None:
                self.on_fire(ev)
            ev.callback()
            fired += 1
        return fired


class Process:
    """A resumable activity built on the event queue.

    Thin convenience wrapper for periodic work (the staging pump).  ``body``
    is a callable returning the delay until it wants to run again, or
    ``None`` to stop.
    """

    def __init__(
        self,
        queue: EventQueue,
        body: Callable[[], Optional[float]],
        label: str = "process",
    ) -> None:
        self.queue = queue
        self.body = body
        self.label = label
        self._event: Optional[Event] = None
        self._running = False

    def start(self) -> None:
        """Arm the first tick, now."""
        if self._running:
            return
        self._running = True
        self._event = self.queue.schedule_in(0.0, self._tick, self.label)

    def stop(self) -> None:
        """Cancel any pending tick."""
        self._running = False
        if self._event is not None:
            self.queue.cancel(self._event)
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        delay = self.body()
        if delay is None or not self._running:
            self._running = False
            self._event = None
        else:
            self._event = self.queue.schedule_in(delay, self._tick, self.label)
