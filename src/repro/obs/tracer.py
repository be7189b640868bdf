"""Sim-time-aware hierarchical tracing (the NetLogger lineage).

The paper's headline results are *latency attributions*: Figures 9-12 break a
view-set access's wait into brokerage, cache lookup, WAN transfer and
decompression.  This module records exactly that as a tree of **spans** —
named intervals of simulated time carrying ``trace_id``/``span_id``/
``parent_id`` plus free-form key-value attributes — the same model Bethel et
al. used (via NetLogger) to make their WAN visualization pipeline debuggable.

Design constraints:

* **sim-time, not wall-clock** — timestamps come from the simulation clock,
  so a trace of a 40-second simulated session reads in simulated seconds no
  matter how fast the host ran it;
* **cheap when off** — a disabled :class:`Tracer` hands out one shared
  :data:`NOOP_SPAN` whose methods do nothing, so instrumented hot paths pay a
  single predictable method call (benchmarks keep tracing off; examples turn
  it on);
* **cheap when on** — a clock read is one attribute read of the simulation
  clock, a span takes its attribute dict as given and an event is one dict
  literal, so a traced run costs little more than an untraced one;
* **retroactive spans** — event-driven code often knows a stage's boundaries
  only at completion time; :meth:`Tracer.record` creates an already-closed
  span from explicit timestamps, which is how the client emits its exact
  per-access stage partition.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypedDict,
    Union,
    runtime_checkable,
)

__all__ = [
    "Row",
    "Span",
    "SpanDict",
    "SpanLike",
    "Tracer",
    "NoopSpan",
    "NOOP_SPAN",
    "NULL_TRACER",
    "series_samples",
]


class SpanDict(TypedDict):
    """The JSON shape of one exported span (``Span.to_dict``)."""

    name: str
    cat: str
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float
    attrs: Dict[str, object]
    events: List[Dict[str, object]]


@runtime_checkable
class SpanLike(Protocol):
    """What instrumented code may assume about a span it was handed.

    Both :class:`Span` and :class:`NoopSpan` satisfy this, so hot paths can
    carry a ``SpanLike`` without caring whether tracing is on.
    """

    @property
    def trace_id(self) -> Optional[int]: ...

    @property
    def span_id(self) -> Optional[int]: ...

    def annotate(self, **attrs: object) -> SpanLike: ...

    def event(self, name: str, **attrs: object) -> None: ...

    def finish(self, t: Optional[float] = None,
               **attrs: object) -> SpanLike: ...

    def child(self, name: str, **attrs: object) -> SpanLike: ...


class Span:
    """One named interval of simulated time in a trace tree."""

    __slots__ = (
        "tracer", "name", "category", "trace_id", "span_id", "parent_id",
        "start", "end", "attrs", "events",
    )

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        category: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        attrs: Dict[str, object],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.category = category
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        #: owned by the span: the caller hands over a fresh dict
        self.attrs = attrs
        #: the shared empty tuple until the first event makes it a list
        self.events: Sequence[Dict[str, object]] = ()

    # ------------------------------------------------------------------
    def annotate(self, **attrs: object) -> Span:
        """Attach key-value attributes (later keys overwrite earlier)."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: object) -> None:
        """Record an instant event inside this span (promotion, pause...)."""
        ev = {"name": name, "t": self.tracer._clock._now, **attrs}
        if self.events:
            self.events.append(ev)  # type: ignore[attr-defined]
        else:
            self.events = [ev]

    def finish(self, t: Optional[float] = None, **attrs: object) -> Span:
        """Close the span (idempotent; the first close wins)."""
        if attrs:
            self.attrs.update(attrs)
        if self.end is None:
            tracer = self.tracer
            end = tracer._clock._now if t is None else t
            self.end = self.start if end < self.start else end
            if tracer._listeners:
                tracer._notify("span", self)
        return self

    def child(self, name: str, **attrs: object) -> Span:
        """Open a child span under this one, now."""
        return self.tracer.begin(name, parent=self, **attrs)

    def to_dict(self) -> SpanDict:
        """JSON-ready representation (the exporters' input)."""
        return {
            "name": self.name,
            "cat": self.category,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "attrs": dict(self.attrs),
            "events": list(self.events),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, [{self.start:.6f}, {self.end}])")


class NoopSpan:
    """The disabled tracer's universal span: every method is a no-op."""

    __slots__ = ()

    name = ""
    category = ""
    trace_id = None
    span_id = None
    parent_id = None
    start = 0.0
    end = 0.0
    finished = True
    duration = 0.0
    attrs: Dict[str, object] = {}
    events: List[Dict[str, object]] = []

    def annotate(self, **attrs: object) -> NoopSpan:
        return self

    def event(self, name: str, **attrs: object) -> None:
        return None

    def finish(self, t: Optional[float] = None,
               **attrs: object) -> NoopSpan:
        return self

    def child(self, name: str, **attrs: object) -> NoopSpan:
        return self


#: shared do-nothing span handed out by disabled tracers.
NOOP_SPAN = NoopSpan()

AnySpan = Union[Span, NoopSpan]

#: one sampler tick, ``(t, names, values)``: ``values[i]`` is the sample of
#: series ``names[i]`` at ``t``.  A sampler hands every tick of one schema
#: the same ``names`` tuple, so a row costs a tuple of values, not a dict
#: per sample.
Row = Tuple[float, Tuple[str, ...], Sequence[object]]


def series_samples(rows: Iterable[Row]) -> List[Dict[str, object]]:
    """Rows as ``{"name", "t", "value"}`` sample dicts, in record order.

    The one place sample dicts are made: exporters, the metrics fold and
    the fleet stitcher read these, built when they ask.
    """
    return [{"name": name, "t": t, "value": value}
            for t, names, values in rows
            for name, value in zip(names, values)]


class _ClockReader:
    """A clock that is not a ``SimClock``, read through ``_now`` as one is:
    ``read()`` gives the time, ``float()``-ed."""

    __slots__ = ("read",)

    def __init__(self, read: Callable[[], float]) -> None:
        self.read = read

    @property
    def _now(self) -> float:
        return float(self.read())


def _clock_of(clock: object) -> object:
    """What the tracer reads ``_now`` from: a
    :class:`~repro.lon.simtime.SimClock` itself (its time is a float
    attribute), any other clock through a :class:`_ClockReader`."""
    if clock is None:
        return _ClockReader(lambda: 0.0)
    inner = getattr(clock, "clock", clock)   # an EventQueue's SimClock
    if isinstance(getattr(inner, "_now", None), float):
        return inner
    if callable(clock):
        return _ClockReader(clock)
    return _ClockReader(lambda: clock.now)  # type: ignore[attr-defined]


class Tracer:
    """Factory and container for spans over one simulated run.

    Parameters
    ----------
    clock:
        Either an object with a ``now`` attribute (a
        :class:`~repro.lon.simtime.SimClock` or ``EventQueue``) or a
        zero-argument callable returning the current time.  ``None`` pins
        the clock at 0.0 (explicit timestamps still work).
    enabled:
        When False every factory method returns :data:`NOOP_SPAN` and
        nothing is recorded.
    """

    def __init__(self, clock: object = None, enabled: bool = True) -> None:
        self.enabled = enabled
        #: resolved once: its ``_now`` is read per span, per span event and
        #: per sampler tick
        self._clock = _clock_of(clock)
        self.spans: List[Span] = []
        #: series samples, one :data:`Row` per sampler tick
        self.rows: List[Row] = []
        self.instants: List[Dict[str, object]] = []
        self._next_span_id = 1
        self._next_trace_id = 1
        #: finish/instant/counter listeners (the flight recorder's hook);
        #: hot paths pay one truthiness check while the list stays empty
        self._listeners: List[Callable[[str, object], None]] = []

    # ------------------------------------------------------------------
    def add_listener(self, fn: Callable[[str, object], None]) -> None:
        """Subscribe to telemetry as it lands.

        ``fn(kind, payload)`` is called with ``("span", Span)`` when a span
        closes, ``("instant", dict)`` as one is recorded and
        ``("counter", dict)`` once per sample of a recorded row.
        Listeners must not mutate the payload.
        """
        if fn not in self._listeners:
            self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[str, object], None]) -> None:
        """Unsubscribe (no-op when not subscribed)."""
        if fn in self._listeners:
            self._listeners.remove(fn)

    def _notify(self, kind: str, payload: object) -> None:
        for fn in self._listeners:
            fn(kind, payload)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time according to the wired clock."""
        return self._clock._now

    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        parent: Optional[SpanLike] = None,
        t: Optional[float] = None,
        category: str = "",
        **attrs: object,
    ) -> AnySpan:
        """Open a span now (or at ``t``); root when ``parent`` is None.

        The span takes the fresh ``attrs`` dict as its own.
        """
        if not self.enabled:
            return NOOP_SPAN
        span_id = self._next_span_id
        self._next_span_id = span_id + 1
        if t is None:
            t = self._clock._now
        if parent is None or parent is NOOP_SPAN:
            trace_id = self._next_trace_id
            self._next_trace_id = trace_id + 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(self, name, category, trace_id, span_id, parent_id, t,
                    attrs)
        self.spans.append(span)
        return span

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[SpanLike] = None,
        category: str = "",
        **attrs: object,
    ) -> AnySpan:
        """Create an already-closed span from explicit timestamps."""
        if not self.enabled:
            return NOOP_SPAN
        span = self.begin(name, parent, start, category, **attrs)
        span.finish(t=max(start, end))
        return span

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[SpanLike] = None,
        **attrs: object,
    ) -> Iterator[AnySpan]:
        """Context manager for synchronous sections (closes on exit)."""
        s = self.begin(name, parent=parent, **attrs)
        try:
            yield s
        finally:
            s.finish()

    # ------------------------------------------------------------------
    def instant(self, name: str, **attrs: object) -> None:
        """A global instant event (e.g. a prefetch decision), now."""
        if not self.enabled:
            return
        ev: Dict[str, object] = {"name": name, "t": self._clock._now, **attrs}
        self.instants.append(ev)
        if self._listeners:
            self._notify("instant", ev)

    def row(self, names: Tuple[str, ...], values: Sequence[object]) -> None:
        """One sampler tick now: ``values[i]`` is a sample of ``names[i]``.

        Listeners get one ``("counter", dict)`` call per sample; the dicts
        are made only while one is attached.
        """
        if not self.enabled:
            return
        t = self._clock._now
        self.rows.append((t, names, values))
        if self._listeners:
            for name, value in zip(names, values):
                self._notify("counter", {"name": name, "t": t, "value": value})

    @property
    def counters(self) -> List[Dict[str, object]]:
        """Every series sample as a dict (:func:`series_samples` of
        ``rows``), built anew on each read."""
        return series_samples(self.rows)

    # ------------------------------------------------------------------
    def finish_open(self) -> int:
        """Close every still-open span now (end of run); returns how many.

        The ``unfinished`` flag is set before the close, so listeners
        notified by it (a flight recorder) see it too.
        """
        n = 0
        for span in self.spans:
            if span.end is None:
                span.attrs.setdefault("unfinished", True)
                span.finish()
                n += 1
        return n

    def span_dicts(self) -> List[SpanDict]:
        """All spans as plain dicts (report/export input)."""
        return [s.to_dict() for s in self.spans]


#: shared disabled tracer: instrument against this by default.
NULL_TRACER = Tracer(enabled=False)
