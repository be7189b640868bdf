"""Cross-process fleet telemetry: export per-worker, stitch in the parent.

Shard workers (:mod:`repro.lon.shard`) run their rigs in separate
processes, so a fleet-scale question — "what was the p99 across 256
clients?", "which depot served a skewed share of the bytes?" — cannot be
answered by any single worker's :class:`~repro.obs.tracer.Tracer`.  This
module makes workers first-class telemetry *sources*:

* :func:`export_telemetry` — one rig's tracer store as a
  :class:`WorkerTelemetry`: plain picklable data (span dicts, series rows
  and instant samples) that crosses the process boundary with the shard
  result;
* :func:`stitch` — merge worker exports into one :class:`FleetTrace`:
  span/trace ids are re-based per worker so they stay unique, every span
  is annotated with its ``worker``, and series — expanded from rows into
  sample dicts here, once — keep the per-shard namespace their sampler
  stamped at record time;
* :meth:`FleetTrace.write_chrome` — one merged Perfetto artifact for the
  whole fleet.

Per-client namespacing comes from the spans themselves: every access root
span carries a ``client`` attribute (the console node, globally unique
across shards), so the stitched timeline attributes every access to both
its worker and its client.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import IO, Dict, Iterable, List, Union, cast

from .export import write_chrome_trace
from .tracer import Row, SpanDict, Tracer, series_samples

__all__ = [
    "FleetTrace",
    "WorkerTelemetry",
    "export_telemetry",
    "stitch",
]


@dataclass
class WorkerTelemetry:
    """One worker's tracer store (plain picklable data)."""

    #: stable worker label, e.g. ``"shard0"`` (doubles as the namespace the
    #: worker's samplers recorded under)
    worker: str
    spans: List[SpanDict] = field(default_factory=list)
    #: the tracer's series rows (a pickled names tuple is shared by every
    #: row of its schema, as in the tracer)
    rows: List[Row] = field(default_factory=list)
    instants: List[Dict[str, object]] = field(default_factory=list)

    @property
    def max_span_id(self) -> int:
        return max((int(cast(int, s["span_id"])) for s in self.spans),
                   default=0)

    @property
    def max_trace_id(self) -> int:
        return max((int(cast(int, s["trace_id"])) for s in self.spans),
                   default=0)


def export_telemetry(worker: str, tracer: Tracer) -> WorkerTelemetry:
    """A finished rig's tracer store as picklable telemetry.

    Spans become dicts; rows and instant dicts are shared, not copied —
    nothing downstream writes to one.
    """
    return WorkerTelemetry(
        worker=worker,
        spans=tracer.span_dicts(),
        rows=list(tracer.rows),
        instants=list(tracer.instants),
    )


@dataclass
class FleetTrace:
    """The stitched fleet timeline: one span / series / instant space."""

    workers: List[str]
    spans: List[SpanDict]
    counters: List[Dict[str, object]]
    instants: List[Dict[str, object]]

    def write_chrome(
        self, path_or_file: Union[str, os.PathLike, IO[str]]
    ) -> int:
        """Write the merged Perfetto artifact; returns the event count."""
        return write_chrome_trace(
            self.spans, path_or_file,
            counters=self.counters, instants=self.instants,
        )


def stitch(telemetries: Iterable[WorkerTelemetry]) -> FleetTrace:
    """Merge worker exports into one fleet timeline.

    Ids are re-based deterministically in worker order: worker *k*'s
    span/trace ids are shifted past the running maximum of workers
    ``0..k-1``, so the merged id space is collision-free and a given
    (worker order, telemetry) input always stitches to the identical
    output.  Spans gain a ``worker`` attribute; series samples (built from
    the rows) and instants are concatenated (series names already carry
    the worker's namespace).
    """
    telems = list(telemetries)
    workers = [t.worker for t in telems]
    if len(set(workers)) != len(workers):
        raise ValueError(f"duplicate worker labels: {workers}")
    spans: List[SpanDict] = []
    counters: List[Dict[str, object]] = []
    instants: List[Dict[str, object]] = []
    span_base = 0
    trace_base = 0
    for t in telems:
        for s in t.spans:
            out = dict(s)
            out["span_id"] = int(cast(int, s["span_id"])) + span_base
            out["trace_id"] = int(cast(int, s["trace_id"])) + trace_base
            parent = s.get("parent_id")
            out["parent_id"] = (None if parent is None
                                else int(cast(int, parent)) + span_base)
            attrs = dict(cast(Dict[str, object], s.get("attrs") or {}))
            attrs["worker"] = t.worker
            out["attrs"] = attrs
            spans.append(cast(SpanDict, out))
        counters.extend(series_samples(t.rows))
        instants.extend(t.instants)
        span_base += t.max_span_id
        trace_base += t.max_trace_id
    spans.sort(key=lambda s: (cast(float, s["start"]),
                              cast(int, s["span_id"])))
    counters.sort(key=lambda c: (cast(float, c["t"]), str(c["name"])))
    instants.sort(key=lambda i: (cast(float, i["t"]), str(i["name"])))
    return FleetTrace(
        workers=workers,
        spans=spans,
        counters=counters,
        instants=instants,
    )
