"""Depot-fleet health: load skew, queue depth, QGR and tail latency.

The paper's depots are best-effort shared infrastructure, so fleet health
is a *distributional* question: not "how fast was the mean access" but
"which depot soaked up the bytes, how deep did its queue get, and what
fraction of users stayed under the interactivity threshold".  This module
turns the telemetry the fleet plane collects (per-depot gauges sampled by
:class:`~repro.obs.samplers.DepotSampler`, per-access records, merged
latency histograms) into those answers:

* :func:`gini` / :func:`load_skew` — max/mean and Gini-coefficient skew
  over bytes served per depot (0 = perfectly balanced fleet);
* :func:`depot_stats_from_registry` — per-depot bytes-served and
  queue-depth figures recovered from sampled gauges, across any number of
  shard namespaces;
* :func:`fleet_qgr` — the steady-state fraction of accesses under the
  interactivity threshold (the paper's Quality Guaranteed Rate
  criterion), pooled over every client in the fleet;
* :func:`demand_miss_histogram` — the demand-miss latency distribution as
  a mergeable :class:`~repro.obs.metrics.LogHistogram` (the SLO engine's
  p99 source);
* :func:`fleet_health` — one :class:`FleetHealth` summary combining all
  of the above for reports and BENCH artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .metrics import LogHistogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    # runtime import would close the obs -> streaming -> lon -> obs cycle
    # (streaming.metrics imports lon.scheduler, which imports obs.tracer)
    from ..streaming.metrics import AccessRecord

__all__ = [
    "DepotStat",
    "FleetHealth",
    "demand_miss_histogram",
    "depot_stats_from_registry",
    "fleet_health",
    "fleet_qgr",
    "gini",
    "load_skew",
    "miss_events",
]

#: interactivity threshold (seconds) behind the QGR criterion — matches
#: the ``qgr`` sweep spec's ``qgr_point`` scenario
QGR_THRESHOLD_S = 0.25

#: accesses with index <= warmup are excluded from steady-state figures
QGR_WARMUP = 5

#: sources that missed every local tier (the demand-miss pool, matching
#: ``SessionMetrics.demand_miss_latency``).  These are the
#: *values* of :class:`repro.streaming.metrics.AccessSource` — a str enum,
#: so ``record.source in MISS_SOURCES`` compares by string — spelled out
#: here to keep this module import-cycle-free (a test pins the mapping).
MISS_SOURCES = ("lan-depot", "wan", "server")


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative sample (0 balanced, ->1 skewed).

    Computed from the sorted-sample identity
    ``G = (2 * sum(i * x_i) / (n * sum(x))) - (n + 1) / n`` with 1-based
    ranks over ascending values; 0.0 for empty or all-zero input.
    """
    xs = sorted(float(v) for v in values)
    if any(x < 0 for x in xs):
        raise ValueError("gini is defined for non-negative values")
    n = len(xs)
    total = sum(xs)
    if n == 0 or total == 0.0:
        return 0.0
    weighted = sum(rank * x for rank, x in enumerate(xs, start=1))
    return (2.0 * weighted / (n * total)) - (n + 1.0) / n


def load_skew(bytes_served: Mapping[str, float]) -> Dict[str, float]:
    """Skew figures over per-depot bytes served.

    ``max_over_mean`` is 1.0 for a perfectly balanced fleet and grows as
    one depot becomes the hotspot; ``gini`` summarizes the whole
    distribution.
    """
    values = [float(v) for v in bytes_served.values()]
    n = len(values)
    total = sum(values)
    mean = total / n if n else 0.0
    return {
        "depots": float(n),
        "total_bytes": total,
        "max_over_mean": (max(values) / mean) if mean > 0 else 1.0,
        "gini": gini(values),
    }


@dataclass
class DepotStat:
    """One depot's sampled service figures (namespace-qualified name)."""

    name: str
    bytes_served: float = 0.0
    queue_depth_peak: float = 0.0
    queue_depth_last: float = 0.0


def depot_stats_from_registry(
    registry: MetricsRegistry,
) -> List[DepotStat]:
    """Per-depot figures recovered from ``depot.<name>.*`` gauges.

    Works on a merged fleet registry: shard namespaces are part of the
    gauge names (``shard3.depot.lan-depot-0.bytes_served``), so depots
    from different shards stay distinct.  ``bytes_served`` is the gauge's
    final value (the sampler emits a cumulative counter through a gauge);
    queue depth keeps both the observed peak and the last sample.
    """
    stats: Dict[str, DepotStat] = {}

    def stat(depot: str) -> DepotStat:
        if depot not in stats:
            stats[depot] = DepotStat(name=depot)
        return stats[depot]

    for name, g in sorted(registry.gauges.items()):
        if ".bytes_served" in name and ".depot." in f".{name}":
            depot = name[: -len(".bytes_served")]
            stat(depot).bytes_served = g.value
        elif ".queue_depth" in name and ".depot." in f".{name}":
            depot = name[: -len(".queue_depth")]
            s = stat(depot)
            s.queue_depth_peak = (g.max_seen if g.samples else 0.0)
            s.queue_depth_last = g.value
    return [stats[k] for k in sorted(stats)]


def _steady(
    accesses: Iterable[AccessRecord], warmup: int
) -> List[AccessRecord]:
    return [a for a in accesses if a.index > warmup]


def fleet_qgr(
    accesses: Iterable[AccessRecord],
    threshold: float = QGR_THRESHOLD_S,
    warmup: int = QGR_WARMUP,
) -> float:
    """Steady-state fraction of accesses under the threshold, fleet-wide.

    Pools every client's accesses (the fleet is the population), skips
    each client's first ``warmup`` accesses as the initial phase, and
    applies the same ``latency < threshold`` criterion as the per-session
    QGR sweep, so single-rig and fleet numbers are directly comparable.
    """
    pool = _steady(accesses, warmup)
    if not pool:
        return 0.0
    return sum(1 for a in pool if a.total_latency < threshold) / len(pool)


def demand_miss_histogram(
    accesses: Iterable[AccessRecord],
    registry: Optional[MetricsRegistry] = None,
    name: str = "fleet.demand_miss_latency",
) -> LogHistogram:
    """Demand-miss latency distribution as a mergeable log histogram.

    When ``registry`` is given the histogram lives there (namespace
    applied); otherwise a standalone histogram is returned.  The miss
    pool matches ``demand_miss_latency``: every access that was not
    served by the client console or the agent cache.
    """
    h = (registry.histogram(name) if registry is not None
         else LogHistogram(name))
    for a in accesses:
        if a.source in MISS_SOURCES:
            h.observe(a.total_latency)
    return h


@dataclass
class FleetHealth:
    """One fleet's health summary (reports + BENCH artifacts read this)."""

    n_clients: int
    accesses: int
    qgr: float
    misses: int
    demand_miss_p50_s: float
    demand_miss_p99_s: float
    load_skew_max_over_mean: float
    load_skew_gini: float
    depots: List[DepotStat] = field(default_factory=list)
    #: full state of the merged demand-miss histogram (mergeable further)
    miss_histogram: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (depot list included, histogram elided)."""
        return {
            "n_clients": self.n_clients,
            "accesses": self.accesses,
            "qgr": round(self.qgr, 4),
            "misses": self.misses,
            "demand_miss_p50_s": round(self.demand_miss_p50_s, 6),
            "demand_miss_p99_s": round(self.demand_miss_p99_s, 6),
            "load_skew_max_over_mean": round(
                self.load_skew_max_over_mean, 4
            ),
            "load_skew_gini": round(self.load_skew_gini, 4),
            "depots": [
                {
                    "name": d.name,
                    "bytes_served": d.bytes_served,
                    "queue_depth_peak": d.queue_depth_peak,
                }
                for d in self.depots
            ],
        }


def fleet_health(
    per_client: Sequence[Sequence[AccessRecord]],
    registry: MetricsRegistry,
    miss_histogram: Optional[LogHistogram] = None,
    threshold: float = QGR_THRESHOLD_S,
    warmup: int = QGR_WARMUP,
) -> FleetHealth:
    """Assemble the fleet health summary from merged telemetry.

    ``per_client`` is every client's access records (global order);
    ``registry`` is the merged fleet registry (depot gauges across all
    shard namespaces).  ``miss_histogram`` defaults to a histogram built
    from the access records; pass the exact merge of per-shard histograms
    to assert merge/pooled bit-equality upstream.
    """
    accesses = [a for client in per_client for a in client]
    if miss_histogram is None:
        miss_histogram = demand_miss_histogram(accesses)
    depots = depot_stats_from_registry(registry)
    skew = load_skew({d.name: d.bytes_served for d in depots})
    return FleetHealth(
        n_clients=len(per_client),
        accesses=len(accesses),
        qgr=fleet_qgr(accesses, threshold=threshold, warmup=warmup),
        misses=miss_histogram.total,
        demand_miss_p50_s=miss_histogram.quantile(0.50),
        demand_miss_p99_s=miss_histogram.quantile(0.99),
        load_skew_max_over_mean=skew["max_over_mean"],
        load_skew_gini=skew["gini"],
        depots=depots,
        miss_histogram=miss_histogram.to_state(),
    )


def miss_events(
    per_client: Sequence[Sequence[AccessRecord]],
) -> List[Tuple[float, float]]:
    """(completion_time, latency) for every demand miss, time-ordered.

    The SLO engine's input: completion time is ``request_time +
    total_latency`` in simulated seconds.
    """
    events = [
        (a.request_time + a.total_latency, a.total_latency)
        for client in per_client
        for a in client
        if a.source in MISS_SOURCES
    ]
    events.sort()
    return events
