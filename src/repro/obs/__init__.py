"""repro.obs — sim-time-aware observability for the streaming pipeline.

The paper's evaluation is a latency-attribution exercise (Figures 9-12):
every claim is about *where* a view-set access's wait went.  This package
supplies the machinery to record and read that attribution:

* :mod:`~repro.obs.tracer` — hierarchical spans, series rows (one per
  sampler tick) and instants over simulated time, with a free no-op mode so
  instrumentation can stay in hot paths.  It is the one store of a traced
  run; everything below reads it;
* :mod:`~repro.obs.samplers` — periodic probes of link utilization, depot
  service, scheduler class occupancy and cache fill, recorded as series;
* :mod:`~repro.obs.metrics` — the log-scale latency histogram (fixed-ratio
  buckets spanning the four latency decades) and the gauge / histogram
  summary folded from a run's series and access-root spans;
* :mod:`~repro.obs.export` — the Chrome ``trace_event`` JSON (Perfetto)
  writer and its loader;
* :mod:`~repro.obs.report` — the ``trace-report`` CLI's waterfall and
  per-stage breakdown tables;
* :mod:`~repro.obs.fleet` — per-worker telemetry export and the fleet
  stitcher (one merged timeline across shard processes);
* :mod:`~repro.obs.health` — depot load skew, fleet QGR and demand-miss
  latency distributions of a traced sharded run;
* :mod:`~repro.obs.flightrec` — a bounded ring of recent telemetry,
  dumped when a fault schedule fires.
"""

from .export import (
    chrome_trace_events,
    load_trace,
    write_chrome_trace,
)
from .fleet import (
    FleetTrace,
    WorkerTelemetry,
    export_telemetry,
    stitch,
)
from .flightrec import FlightRecorder
from .health import (
    DepotStat,
    FleetHealth,
    demand_miss_histogram,
    depot_stats,
    fleet_health,
    fleet_qgr,
    gini,
    load_skew,
)
from .metrics import (
    GaugeRecord,
    HistogramRecord,
    LogHistogram,
    MetricsSnapshot,
    fold_metrics,
)
from .report import (
    render_breakdown_table,
    render_waterfall,
    stage_breakdown,
    trace_report,
)
from .samplers import (
    CacheSampler,
    DepotSampler,
    LinkUtilizationSampler,
    PeriodicSampler,
    SchedulerOccupancySampler,
    standard_samplers,
)
from .tracer import (
    NOOP_SPAN,
    NULL_TRACER,
    NoopSpan,
    Span,
    SpanDict,
    SpanLike,
    Tracer,
    series_samples,
)

__all__ = [
    "Span",
    "SpanDict",
    "SpanLike",
    "Tracer",
    "NoopSpan",
    "NOOP_SPAN",
    "NULL_TRACER",
    "series_samples",
    "GaugeRecord",
    "HistogramRecord",
    "LogHistogram",
    "MetricsSnapshot",
    "fold_metrics",
    "PeriodicSampler",
    "LinkUtilizationSampler",
    "DepotSampler",
    "SchedulerOccupancySampler",
    "CacheSampler",
    "standard_samplers",
    "chrome_trace_events",
    "write_chrome_trace",
    "load_trace",
    "stage_breakdown",
    "render_breakdown_table",
    "render_waterfall",
    "trace_report",
    "FleetTrace",
    "WorkerTelemetry",
    "export_telemetry",
    "stitch",
    "DepotStat",
    "FleetHealth",
    "demand_miss_histogram",
    "depot_stats",
    "fleet_health",
    "fleet_qgr",
    "gini",
    "load_skew",
    "FlightRecorder",
]
