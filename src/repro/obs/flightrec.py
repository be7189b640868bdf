"""Flight recorder: a bounded ring of recent telemetry, dumped on demand.

Fleet runs are long and mostly healthy; the interesting part of a fault
is the few seconds *before* it.  A :class:`FlightRecorder` subscribes to
a :class:`~repro.obs.tracer.Tracer` through its listener hooks and keeps
the most recent finished spans and counter samples in fixed-size ring
buffers — O(capacity) memory no matter how long the run is.  When a
fault schedule fires (:mod:`repro.lon.faults`) or a caller asks,
:meth:`trigger` freezes the rings — plus any spans still open at that
instant — into a dump; :meth:`write_dumps` writes each dump as a
standalone JSON file.

All timestamps are simulated seconds straight off the recorded spans;
the recorder itself never reads a clock, so dumps are bit-reproducible
across runs.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Deque, Dict, List, Optional

from .tracer import Span, Tracer

__all__ = ["FlightRecorder"]


#: finished spans a recorder retains; counter samples get ``4 * CAPACITY``
#: slots (samplers tick much faster than spans close)
CAPACITY = 256


class FlightRecorder:
    """Bounded ring buffer of recent spans and counter samples.

    ``worker`` is the label stamped into every dump (e.g. ``"shard3"``).
    """

    def __init__(self, worker: str = "") -> None:
        self.capacity = CAPACITY
        self.worker = worker
        self._spans: Deque[Dict[str, object]] = deque(maxlen=CAPACITY)
        self._counters: Deque[Dict[str, object]] = deque(
            maxlen=4 * CAPACITY)
        self._tracer: Optional[Tracer] = None
        #: frozen dumps, in trigger order
        self.dumps: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    def attach(self, tracer: Tracer) -> "FlightRecorder":
        """Start recording this tracer's telemetry (one tracer at a time)."""
        if self._tracer is not None:
            self.detach()
        self._tracer = tracer
        tracer.add_listener(self._on_telemetry)
        return self

    def detach(self) -> None:
        """Stop recording (keeps buffered data and existing dumps)."""
        if self._tracer is not None:
            self._tracer.remove_listener(self._on_telemetry)
            self._tracer = None

    def _on_telemetry(self, kind: str, payload: object) -> None:
        if kind == "span" and isinstance(payload, Span):
            self._spans.append(payload.to_dict())
        elif kind == "counter" and isinstance(payload, dict):
            self._counters.append(dict(payload))
        # instants ride along in the counter ring: they are rare and
        # carry the same (name, t) shape the dump reader wants
        elif kind == "instant" and isinstance(payload, dict):
            self._counters.append(dict(payload))

    # ------------------------------------------------------------------
    def trigger(self, reason: str, t: Optional[float] = None) -> Dict[str, object]:
        """Freeze the rings into a dump (returned and kept in ``dumps``).

        ``t`` is the simulated time of the triggering event; when omitted
        it falls back to the latest end time in the ring.  Spans still
        open on the attached tracer are included with ``"open": True`` —
        a fault usually interrupts work mid-span, and those interrupted
        spans are exactly what the post-mortem wants.
        """
        spans = [dict(s) for s in self._spans]
        if t is None:
            t = max((float(s["end"]) for s in spans),  # type: ignore[arg-type]
                    default=0.0)
        open_spans: List[Dict[str, object]] = []
        if self._tracer is not None:
            for live in self._tracer.spans:
                if live.end is None:
                    d = dict(live.to_dict())
                    d["open"] = True
                    open_spans.append(d)
        dump: Dict[str, object] = {
            "format": "repro.flight/1",
            "worker": self.worker,
            "reason": reason,
            "t": t,
            "capacity": self.capacity,
            "spans": spans,
            "open_spans": open_spans,
            "counters": [dict(c) for c in self._counters],
        }
        self.dumps.append(dump)
        return dump

    def write_dumps(
        self, directory: str, prefix: str = "worker"
    ) -> List[str]:
        """Write every dump as ``flight-<prefix>-<seq>-<reason>.json``."""
        os.makedirs(directory, exist_ok=True)
        paths: List[str] = []
        for seq, dump in enumerate(self.dumps):
            reason = str(dump["reason"])
            slug = "".join(c if (c.isalnum() or c in "-_") else "-"
                           for c in reason) or "dump"
            path = os.path.join(
                directory, f"flight-{prefix}-{seq}-{slug}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dump, fh)
            paths.append(path)
        return paths
