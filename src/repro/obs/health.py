"""Depot-fleet health: load skew, queue depth, QGR and tail latency.

The paper's depots are best-effort shared infrastructure, so fleet health
is a *distributional* question: not "how fast was the mean access" but
"which depot soaked up the bytes, how deep did its queue get, and what
fraction of users stayed under the interactivity threshold".  This module
reads those answers off what a traced sharded run already holds — the
per-depot series rows :class:`~repro.obs.samplers.DepotSampler` recorded in
every worker's telemetry, and every client's access records:

* :func:`gini` / :func:`load_skew` — max/mean and Gini-coefficient skew
  over bytes served per depot (0 = perfectly balanced fleet);
* :func:`depot_stats` — per-depot bytes-served and queue-depth figures
  read off the series rows, across any number of shard namespaces;
* :func:`fleet_qgr` — the steady-state fraction of accesses under the
  interactivity threshold (the paper's Quality Guaranteed Rate
  criterion), pooled over every client in the fleet;
* :func:`demand_miss_histogram` — the demand-miss latency distribution as
  a :class:`~repro.obs.metrics.LogHistogram` (the p50 / p99 source);
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
    Sequence,
    cast,
)

from .metrics import LogHistogram
from .tracer import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    # runtime import would close the obs -> streaming -> lon -> obs cycle
    # (streaming.metrics imports lon.scheduler, which imports obs.tracer)
    from ..lon.shard import ShardedResult
    from ..streaming.metrics import AccessRecord

__all__ = [
    "DepotStat",
    "FleetHealth",
    "demand_miss_histogram",
    "depot_stats",
    "fleet_health",
    "fleet_qgr",
    "gini",
    "load_skew",
]

#: interactivity threshold (seconds) behind the QGR criterion — matches
#: the ``qgr`` sweep spec's ``qgr_point`` scenario
QGR_THRESHOLD_S = 0.25

#: accesses with index <= warmup are excluded from steady-state figures
QGR_WARMUP = 5


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


def depot_stats(rows: Iterable[Row]) -> List[DepotStat]:
    """Per-depot figures read off the ``depot.<name>.*`` series rows.

    Works across workers: shard namespaces are part of the series names
    (``shard3.depot.lan-depot-0.bytes_served``), so depots from different
    shards stay distinct, and one worker's rows after another's keep each
    name's samples in record order — all this needs.  ``bytes_served`` is
    the last sample (the sampler emits a cumulative count); queue depth
    keeps both the observed peak and the last sample.
    """
    stats: Dict[str, DepotStat] = {}
    for _t, names, values in rows:
        for name, value in zip(names, values):
            depot, _, figure = name.rpartition(".")
            if (figure not in ("bytes_served", "queue_depth")
                    or ".depot." not in f".{depot}"):
                continue
            stat = stats.get(depot)
            if stat is None:
                stat = stats[depot] = DepotStat(name=depot)
            sample = cast(float, value)
            if figure == "bytes_served":
                stat.bytes_served = sample
            else:
                stat.queue_depth_peak = max(stat.queue_depth_peak, sample)
                stat.queue_depth_last = sample
    return [stats[k] for k in sorted(stats)]


def fleet_qgr(accesses: Iterable[AccessRecord]) -> float:
    """Steady-state fraction of accesses under the threshold, fleet-wide.

    Pools every client's accesses (the fleet is the population), skips
    each client's first :data:`QGR_WARMUP` accesses as the initial phase,
    and applies the same ``latency <`` :data:`QGR_THRESHOLD_S` criterion
    as the per-session QGR sweep, so single-rig and fleet numbers are
    directly comparable.
    """
    pool = [a for a in accesses if a.index > QGR_WARMUP]
    if not pool:
        return 0.0
    return (sum(1 for a in pool if a.total_latency < QGR_THRESHOLD_S)
            / len(pool))


def demand_miss_histogram(accesses: Iterable[AccessRecord]) -> LogHistogram:
    """Demand-miss latency distribution as a log histogram.

    The miss pool is ``SessionMetrics.demand_miss_latency``'s: every
    access that was not served by the client console or the agent cache.
    """
    # at call time: see the TYPE_CHECKING note above
    from ..streaming.metrics import DEMAND_MISS_SOURCES

    h = LogHistogram("fleet.demand_miss_latency")
    for a in accesses:
        if a.source in DEMAND_MISS_SOURCES:
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


def fleet_health(
    result: ShardedResult,
) -> FleetHealth:
    """The fleet health summary of a traced sharded run.

    QGR and the demand-miss quantiles pool every client's access records;
    the depot figures are read off each worker's series rows (nothing is
    stitched).
    """
    accesses = [a for m in result.per_client for a in m.accesses]
    misses = demand_miss_histogram(accesses)
    depots = depot_stats(row for telemetry in result.telemetries()
                         for row in telemetry.rows)
    skew = load_skew({d.name: d.bytes_served for d in depots})
    return FleetHealth(
        n_clients=len(result.per_client),
        accesses=len(accesses),
        qgr=fleet_qgr(accesses),
        misses=misses.total,
        demand_miss_p50_s=misses.quantile(0.50),
        demand_miss_p99_s=misses.quantile(0.99),
        load_skew_max_over_mean=skew["max_over_mean"],
        load_skew_gini=skew["gini"],
        depots=depots,
    )
