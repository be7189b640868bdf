"""Trace exporter and loader.

One output format, built from :meth:`Tracer.span_dicts`: **Chrome
``trace_event`` JSON**, loadable in Perfetto / ``chrome://tracing``.  Each
trace tree (root span) gets its own track (``tid``), grouped into processes
(``pid``) by root category: demand accesses, prefetch flights, staging
pipelines and ungrouped transfers each render as separate process lanes,
with sampler series as counter tracks.  Span/trace ids are embedded in
``args`` so a saved file round-trips through :func:`load_trace` back into
span dicts for ``trace-report``.

Sim-time seconds are stored as microseconds in Chrome ``ts``/``dur`` fields
(the format's native unit).
"""

from __future__ import annotations

import json
import os
from typing import IO, Dict, Iterable, List, Mapping, Optional, Tuple, Union, cast

from .metrics import fold_metrics
from .tracer import Tracer

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "load_trace",
]

_US = 1e6  # seconds -> microseconds

# pid lanes: category of the *root* span decides the process a tree lands in
_PID_BY_CATEGORY = {
    "access": (1, "demand accesses"),
    "prefetch": (2, "prefetch"),
    "staging": (3, "staging"),
}
_PID_OTHER = (4, "transfers")
_PID_COUNTERS = (5, "samplers")

#: a span as handed to the exporters: either a strict
#: :class:`~repro.obs.tracer.SpanDict` from a live tracer or a loose dict
#: loaded back out of a trace file
SpanDict = Mapping[str, object]


def _span_sort_key(span: SpanDict) -> Tuple[float, int]:
    return (cast(float, span["start"]), cast(int, span["span_id"]))


def chrome_trace_events(
    spans: Iterable[SpanDict],
    counters: Iterable[Dict[str, object]] = (),
    instants: Iterable[Dict[str, object]] = (),
) -> List[Dict[str, object]]:
    """Build the ``traceEvents`` list from span/counter/instant dicts."""
    spans = sorted(spans, key=_span_sort_key)

    # Assign each trace tree a (pid, tid) track keyed by its root span.
    track: Dict[int, Tuple[int, int, str]] = {}  # trace_id -> (pid, tid, label)
    pids_seen: Dict[int, str] = {}
    next_tid: Dict[int, int] = {}
    for span in spans:
        if span["parent_id"] is not None:
            continue
        cat = str(span.get("cat") or "")
        pid, pid_label = _PID_BY_CATEGORY.get(cat, _PID_OTHER)
        pids_seen.setdefault(pid, pid_label)
        tid = next_tid.get(pid, 1)
        next_tid[pid] = tid + 1
        track[cast(int, span["trace_id"])] = (pid, tid, str(span["name"]))

    events: List[Dict[str, object]] = []
    for pid, label in sorted(pids_seen.items()):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
    for _trace_id, (pid, tid, label) in track.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": label},
        })

    for span in spans:
        # orphan children whose root is missing park on tid 0
        pid, tid, _ = track.get(cast(int, span["trace_id"]),
                                (_PID_OTHER[0], 0, ""))
        start = float(cast(float, span["start"]))
        end = float(cast(float, span["end"]))
        args: Dict[str, object] = {
            "span_id": span["span_id"],
            "trace_id": span["trace_id"],
            "parent_id": span["parent_id"],
        }
        attrs = cast(Dict[str, object], span.get("attrs") or {})
        args.update(attrs)
        events.append({
            "name": span["name"],
            "cat": span.get("cat") or "span",
            "ph": "X",
            "ts": start * _US,
            "dur": max(0.0, end - start) * _US,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
        for ev in cast(List[Dict[str, object]],
                       span.get("events") or ()):
            ev_args = {k: v for k, v in ev.items() if k not in ("name", "t")}
            ev_args["span_id"] = span["span_id"]
            events.append({
                "name": ev["name"],
                "cat": "event",
                "ph": "i",
                "s": "t",
                "ts": float(cast(float, ev["t"])) * _US,
                "pid": pid,
                "tid": tid,
                "args": ev_args,
            })

    cpid, clabel = _PID_COUNTERS
    any_counter = False
    for sample in counters:
        any_counter = True
        events.append({
            "name": sample["name"],
            "cat": "counter",
            "ph": "C",
            "ts": float(sample["t"]) * _US,
            "pid": cpid,
            "tid": 0,
            "args": {"value": sample["value"]},
        })
    if any_counter:
        events.append({
            "name": "process_name", "ph": "M", "pid": cpid, "tid": 0,
            "args": {"name": clabel},
        })

    for ev in instants:
        ev_args = {k: v for k, v in ev.items() if k not in ("name", "t")}
        events.append({
            "name": ev["name"],
            "cat": "instant",
            "ph": "i",
            "s": "g",
            "ts": float(ev["t"]) * _US,
            "pid": _PID_OTHER[0],
            "tid": 0,
            "args": ev_args,
        })
    return events


def write_chrome_trace(
    tracer_or_spans: Union[Tracer, Iterable[SpanDict]],
    path_or_file: Union[str, os.PathLike, IO[str]],
    counters: Optional[List[Dict[str, object]]] = None,
    instants: Optional[List[Dict[str, object]]] = None,
) -> int:
    """Write a Chrome/Perfetto trace file; returns the event count.

    ``counters``/``instants`` override the tracer's own lists — the fleet
    stitcher passes merged spans with merged sample streams.
    ``otherData.metrics`` is :func:`~repro.obs.metrics.fold_metrics` of the
    spans and series written.
    """
    if isinstance(tracer_or_spans, Tracer):
        spans: Iterable[SpanDict] = tracer_or_spans.span_dicts()
        counters = tracer_or_spans.counters if counters is None else counters
        instants = tracer_or_spans.instants if instants is None else instants
    else:
        spans = tracer_or_spans
        counters = [] if counters is None else counters
        instants = [] if instants is None else instants
    # the order the events are written in, so a reader folding the file's
    # own spans sums the same latencies in the same order
    spans = sorted(spans, key=_span_sort_key)
    events = chrome_trace_events(spans, counters, instants)
    doc: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "sim-seconds", "format": "repro.obs/1",
            "metrics": fold_metrics(spans, counters),
        },
    }
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    else:
        json.dump(doc, path_or_file)
    return len(events)


def _spans_from_chrome(doc: Dict[str, object]) -> List[SpanDict]:
    spans: List[SpanDict] = []
    for ev in cast(List[Dict[str, object]], doc.get("traceEvents") or []):
        if ev.get("ph") != "X":
            continue
        args = cast(Dict[str, object], ev.get("args") or {})
        if "span_id" not in args:
            continue
        attrs = {k: v for k, v in args.items()
                 if k not in ("span_id", "trace_id", "parent_id")}
        start = float(cast(float, ev["ts"])) / _US
        spans.append({
            "name": ev.get("name", ""),
            "cat": ev.get("cat", ""),
            "trace_id": args.get("trace_id"),
            "span_id": args["span_id"],
            "parent_id": args.get("parent_id"),
            "start": start,
            "end": start + float(cast(float, ev.get("dur", 0.0))) / _US,
            "attrs": attrs,
            "events": [],
        })
    return spans


def load_trace(path: str) -> List[SpanDict]:
    """Load span dicts back out of a Chrome trace written by
    :func:`write_chrome_trace`; anything else raises ``ValueError`` naming
    ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.loads(fh.read())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: not a JSON trace ({exc})") from None
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome trace (no traceEvents)")
    if not isinstance(doc["traceEvents"], list):
        raise ValueError(f"{path}: not a Chrome trace (traceEvents is not "
                         "a list)")
    return _spans_from_chrome(doc)
