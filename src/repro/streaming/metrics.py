"""Latency accounting for streaming sessions.

The paper reports two latency channels per view-set access:

* **client latency** (Figures 9-11): everything the user waits for — request
  brokerage, communication, decompression;
* **communication latency** (Figure 12): the data-access component alone,
  measured at the client agent, which spans four decades between a cache hit
  (~1e-4 s) and a WAN fetch (~1 s).

Each access also records *where* the bytes came from, which yields the hit
rates and WAN-access rates quoted in Section 4.3 and the "initial phase"
boundary (the access index after which no WAN fetches occur).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..lon.scheduler import TransferEvent

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = ["AccessSource", "AccessRecord", "DEMAND_MISS_SOURCES",
           "HIT_SOURCES", "SessionMetrics", "WAN_SOURCES"]


class AccessSource(str, Enum):
    """Where a requested view set was ultimately served from."""

    CLIENT_RESIDENT = "client"      # already on the client console
    AGENT_CACHE = "hit"             # client agent cache hit
    LAN_DEPOT = "lan-depot"         # prestaged replica on the LAN depot
    WAN_DEPOT = "wan"               # fetched across the wide area
    SERVER_RUNTIME = "server"       # never produced; perf/workloads.py names it


#: the demand-miss pool: sources that missed every local tier.  A tuple, so
#: ``source in DEMAND_MISS_SOURCES`` also holds for the bare value strings
#: a span's ``source`` attribute carries (members compare as their values).
DEMAND_MISS_SOURCES = (AccessSource.LAN_DEPOT, AccessSource.WAN_DEPOT,
                       AccessSource.SERVER_RUNTIME)
#: what Section 4.3 counts as a hit (client-resident counts too), tuples for
#: the same reason ...
HIT_SOURCES = (AccessSource.AGENT_CACHE, AccessSource.CLIENT_RESIDENT)
#: ... and as a wide-area access
WAN_SOURCES = (AccessSource.WAN_DEPOT, AccessSource.SERVER_RUNTIME)


@dataclass
class AccessRecord:
    """One view-set access as observed at the client."""

    index: int                      # 1-based Nth access (the figures' x-axis)
    viewset_id: str
    source: AccessSource
    request_time: float             # sim time the client asked
    comm_latency: float             # data-access time at the client agent
    decompress_seconds: float       # client-side zlib inflate (sim, modelled)
    total_latency: float            # client-observed wait

    def __post_init__(self) -> None:
        if self.total_latency < 0 or self.comm_latency < 0:
            raise ValueError("latencies cannot be negative")


@dataclass
class SessionMetrics:
    """Accumulated records + derived statistics for one session run."""

    case_name: str = ""
    resolution: int = 0
    accesses: List[AccessRecord] = field(default_factory=list)
    prefetch_issued: int = 0
    prefetch_used: int = 0
    staged_count: int = 0
    staged_bytes: int = 0
    scheduling_policy: str = ""
    transfer_events: List[TransferEvent] = field(default_factory=list)
    #: the scheduler's registry counts, filled in by ``run_session`` only.
    #: A fleet's consoles share one scheduler, so these stay 0 on
    #: ``per_client[i]`` and the counts are reported fleet-wide on the result
    #: (``deduped_transfers``/``promoted_transfers``).
    deduped: int = 0                # cross-layer duplicate fetches suppressed
    promoted_transfers: int = 0     # background transfers promoted to DEMAND
    cancelled_transfers: int = 0    # transfers cancelled as no longer useful
    #: the session's tracer, set by the testbed wiring when tracing is on
    #: (None otherwise); breakdown() reads it
    tracer: Optional[Tracer] = None
    _seen_indices: Set[int] = field(default_factory=set, repr=False)

    def record_transfer_event(self, ev: TransferEvent) -> None:
        """Scheduler hook: append one transfer lifecycle event."""
        self.transfer_events.append(ev)

    def record(self, rec: AccessRecord) -> None:
        """Add an access record.

        Records may *complete* out of order (a slow WAN fetch can outlive
        the next boundary crossing); the list is kept sorted by access
        index so the figures' x-axes are monotone.  Duplicate detection and
        the sorted insert are both O(log n) per record (a seen-index set +
        ``bisect.insort``), so recording a long session stays linear.
        """
        if rec.index in self._seen_indices:
            raise ValueError(f"duplicate access index {rec.index}")
        self._seen_indices.add(rec.index)
        insort(self.accesses, rec, key=lambda a: a.index)

    # ------------------------------------------------------------------
    # the figures' series
    # ------------------------------------------------------------------
    def latency_series(self) -> List[float]:
        """Per-access client latency (Figures 9-11's y values)."""
        return [a.total_latency for a in self.accesses]

    def comm_latency_series(self) -> List[float]:
        """Per-access communication latency (Figure 12's y values)."""
        return [a.comm_latency for a in self.accesses]

    def decompress_series(self) -> List[float]:
        """Per-access decompression time (Figure 8's y values)."""
        return [a.decompress_seconds for a in self.accesses]

    # ------------------------------------------------------------------
    # Section 4.3 statistics
    # ------------------------------------------------------------------
    def hit_rate(self) -> float:
        """Agent-cache hit rate (client-resident counts as a hit too)."""
        if not self.accesses:
            return 0.0
        hits = sum(1 for a in self.accesses if a.source in HIT_SOURCES)
        return hits / len(self.accesses)

    def wan_rate(self) -> float:
        """Fraction of accesses that went to the WAN."""
        if not self.accesses:
            return 0.0
        wan = sum(1 for a in self.accesses if a.source in WAN_SOURCES)
        return wan / len(self.accesses)

    def demand_miss_latency(self) -> Tuple[float, int]:
        """Mean client latency over accesses that missed every local tier.

        These are the transfers that actually contend with background
        staging and prefetch traffic, so they isolate the scheduling
        policy's effect.  Returns ``(mean_seconds, miss_count)``;
        ``(0.0, 0)`` if no misses.
        """
        pool = [a for a in self.accesses
                if a.source in DEMAND_MISS_SOURCES]
        if not pool:
            return 0.0, 0
        return sum(a.total_latency for a in pool) / len(pool), len(pool)

    def initial_phase_length(self) -> int:
        """Index of the last WAN access (0 if none).

        The paper's "initial phase" ends when the system stops touching the
        wide area; afterwards latency is LAN-class.
        """
        last = 0
        for a in self.accesses:
            if a.source in WAN_SOURCES:
                last = a.index
        return last

    def mean_latency(self, skip: int = 0) -> float:
        """Average client latency over accesses after the first ``skip``."""
        pool = self.accesses[skip:]
        if not pool:
            return 0.0
        return sum(a.total_latency for a in pool) / len(pool)

    def breakdown(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-stage latency statistics from the session's trace.

        Requires the session to have run with tracing on (the testbed
        wiring sets the tracer); returns
        ``{source: {stage: {count, mean, p50, p95, total}}}`` — the
        trace-report table as data.  Empty when no tracer was attached.
        """
        if self.tracer is None:
            return {}
        from ..obs.report import stage_breakdown
        return stage_breakdown(self.tracer.span_dicts())

    def summary(self) -> Dict[str, object]:
        """One-line dict of everything a bench table row needs."""
        return {
            "case": self.case_name,
            "resolution": self.resolution,
            "accesses": len(self.accesses),
            "hit_rate": round(self.hit_rate(), 3),
            "wan_rate": round(self.wan_rate(), 3),
            "initial_phase": self.initial_phase_length(),
            "mean_latency_s": round(self.mean_latency(), 4),
            "steady_latency_s": round(
                self.mean_latency(skip=self.initial_phase_length()), 4
            ),
            "staged": self.staged_count,
            "scheduling": self.scheduling_policy,
            "deduped": self.deduped,
            "promoted": self.promoted_transfers,
            "cancelled": self.cancelled_transfers,
        }
