"""Log-scale latency histograms and the metrics summary of a traced run.

Session latencies span four decades — an agent-cache hit costs ~1e-4 s while
a cold WAN fetch approaches a second — so linear histogram buckets are
useless.  :class:`LogHistogram` uses fixed-ratio buckets (each bucket's upper
edge is ``growth`` times the previous), giving constant *relative* resolution
across the whole range, and derives p50/p95/p99 from the bucket counts.

A traced run is stored once, in its :class:`~repro.obs.tracer.Tracer`;
:func:`fold_metrics` reads the gauge and histogram summary a trace file
embeds (``otherData.metrics``) off that store, so the summary cannot
disagree with the events written beside it.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Set, TypedDict, cast

__all__ = [
    "GaugeRecord",
    "HistogramRecord",
    "LogHistogram",
    "MetricsSnapshot",
    "fold_metrics",
]


class GaugeRecord(TypedDict):
    """JSON shape of one sampled series in a metrics snapshot."""

    value: float
    min: float
    max: float
    samples: int


class HistogramRecord(TypedDict):
    """JSON shape of one histogram in a metrics snapshot."""

    count: int
    mean: float
    min: float
    max: float
    p50: float
    p95: float
    p99: float


class _FleetKeys(TypedDict, total=False):
    #: worker labels, on a stitched fleet trace only
    fleet_workers: List[str]


class MetricsSnapshot(_FleetKeys):
    """JSON shape of :func:`fold_metrics` (``otherData.metrics``)."""

    #: always empty: format ``repro.obs/1`` names a metric kind nothing writes
    counters: Dict[str, float]
    gauges: Dict[str, GaugeRecord]
    histograms: Dict[str, HistogramRecord]


#: the latency histograms' range, seconds, and resolution
LATENCY_LO = 1e-4
LATENCY_HI = 1.0
BUCKETS_PER_DECADE = 10


class LogHistogram:
    """Histogram with fixed-ratio (geometric) bucket edges.

    Buckets cover ``[lo, hi)`` with edges ``lo * growth**k``; values below
    ``lo`` land in an underflow bucket, values at or above ``hi`` in an
    overflow bucket.  The range covers the session's four latency decades
    (:data:`LATENCY_LO` .. :data:`LATENCY_HI`) at
    :data:`BUCKETS_PER_DECADE` buckets per decade (growth ≈ 1.26, i.e.
    every estimate is within ±12% of the true quantile).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.lo = lo = LATENCY_LO
        self.hi = hi = LATENCY_HI
        self.buckets_per_decade = BUCKETS_PER_DECADE
        self.growth = 10.0 ** (1.0 / BUCKETS_PER_DECADE)
        n = int(math.ceil(
            math.log(hi / lo) / math.log(self.growth) - 1e-9))
        # edges[i] is the upper bound of bucket i (excluding under/overflow)
        self.edges: List[float] = [lo * self.growth ** (k + 1)
                                   for k in range(n)]
        self.counts: List[int] = [0] * n
        self.underflow = 0
        self.overflow = 0
        self.total = 0
        self.sum = 0.0
        self.min_seen = math.inf
        self.max_seen = -math.inf
        self._log_growth = math.log(self.growth)

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError("latencies are non-negative")
        self.total += 1
        self.sum += value
        if value < self.min_seen:
            self.min_seen = value
        if value > self.max_seen:
            self.max_seen = value
        if value < self.lo:
            self.underflow += 1
            return
        idx = int(math.log(value / self.lo) / self._log_growth)
        if idx >= len(self.counts):
            self.overflow += 1
        else:
            self.counts[idx] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket counts (geometric midpoint).

        Underflow resolves to ``lo``; overflow to the observed max.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        seen = self.underflow
        if seen and rank <= seen:
            return min(self.lo, self.max_seen)
        lower = self.lo
        for upper, count in zip(self.edges, self.counts):
            seen += count
            if rank <= seen and count:
                return math.sqrt(lower * upper)
            lower = upper
        return self.max_seen

    def percentiles(self) -> Dict[str, float]:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


def fold_metrics(
    spans: Iterable[Mapping[str, object]],
    series: Iterable[Mapping[str, object]],
) -> MetricsSnapshot:
    """The metrics summary of a traced run, read off its store.

    ``series`` — the sampler samples, in record order — folds into one
    gauge per name: last value, observed min / max, sample count.  Every
    finished access root (a parentless ``access`` span carrying
    ``total_latency``) is observed into ``fleet.access_latency`` and, when
    its ``source`` missed every local tier, ``fleet.demand_miss_latency``.
    Stitched spans carry their ``worker``: it prefixes the histogram names
    the way the shard namespace already prefixes the series, and the
    workers seen are listed under ``fleet_workers``.
    """
    # at call time: streaming imports lon.scheduler, which imports obs.tracer
    from ..streaming.metrics import DEMAND_MISS_SOURCES

    gauges: Dict[str, GaugeRecord] = {}
    for sample in series:
        name = cast(str, sample["name"])
        value = cast(float, sample["value"])
        g = gauges.get(name)
        if g is None:
            gauges[name] = {
                "value": value, "min": value, "max": value, "samples": 1}
            continue
        g["value"] = value
        g["samples"] += 1
        if value < g["min"]:
            g["min"] = value
        if value > g["max"]:
            g["max"] = value

    histograms: Dict[str, LogHistogram] = {}
    workers: Set[str] = set()
    for span in spans:
        attrs = cast(Mapping[str, object], span.get("attrs") or {})
        worker = attrs.get("worker")
        if worker is not None:
            workers.add(str(worker))
        if (span["parent_id"] is not None or span.get("cat") != "access"
                or "total_latency" not in attrs):
            continue
        prefix = f"{worker}." if worker is not None else ""
        names = [prefix + "fleet.access_latency"]
        if attrs.get("source") in DEMAND_MISS_SOURCES:
            names.append(prefix + "fleet.demand_miss_latency")
        for name in names:
            h = histograms.get(name)
            if h is None:
                h = histograms[name] = LogHistogram(name)
            h.observe(cast(float, attrs["total_latency"]))

    out: MetricsSnapshot = {
        "counters": {},
        "gauges": dict(sorted(gauges.items())),
        "histograms": {
            name: {"count": h.total, "mean": h.mean,
                   "min": h.min_seen, "max": h.max_seen,
                   **h.percentiles()}  # type: ignore[typeddict-item]
            for name, h in sorted(histograms.items())
        },
    }
    if workers:
        out["fleet_workers"] = sorted(workers)
    return out
