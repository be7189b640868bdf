"""Per-layer metrics of one traced pass.

Three sources, all outside ``src/``: the span tracer's self times and call
counts, the public ``stats`` dataclasses of the objects the wrappers saw,
and what the units' public results report.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Dict, Iterable, List, Sequence

from .trace import LAYERS, SpanTracer
from .workloads import Unit, sim_metrics

#: layers whose self time is reported under a name of its own; the codec's
#: is split into its two directions below
SELF_TIME_NAMES = {
    "lon.shard": "lon.shard.driver_self_s",
    "lightfield.viewset": "lightfield.viewset.from_bytes_s",
    "lightfield.compression": None,
}


def _sum(objects: Iterable[Any], *fields: str) -> float:
    return float(sum(getattr(o, f) for o in objects for f in fields))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: SpanTracer, units: Sequence[Unit]) -> Dict[str, float]:
    """Every per-layer metric one traced pass over ``units`` supports."""
    out: Dict[str, float] = {}
    calls = tracer.calls
    counters = tracer.counters

    def n(span_name: str) -> float:
        return float(calls.get(span_name, 0))

    def self_s(*span_names: str) -> float:
        return sum(tracer.name_self_s.get(s, 0.0) for s in span_names)

    for layer in LAYERS:
        name = SELF_TIME_NAMES.get(layer, f"{layer}.self_s")
        if name is not None:
            out[name] = tracer.self_s[layer]

    queues = tracer.seen("EventQueue")
    events = _sum(queues, "fired_total")
    out["lon.simtime.events_fired"] = events
    out["lon.simtime.heap_compactions"] = _sum(queues, "compactions")
    out["lon.simtime.self_us_per_event"] = _ratio(
        1e6 * tracer.self_s["lon.simtime"], events)

    net = [o.stats for o in tracer.seen("Network")]
    flushes = _sum(net, "recomputes", "full_recomputes")
    fast = _sum(net, "fast_rated")
    out["lon.network.flushes"] = flushes
    out["lon.network.coalesced_triggers"] = _sum(net, "coalesced")
    out["lon.network.component_flows"] = _sum(net, "component_flows")
    out["lon.network.flows_rerated"] = _sum(net, "flows_rerated")
    out["lon.network.events_rescheduled"] = _sum(net, "events_rescheduled")
    out["lon.network.vectorized_fills"] = _sum(net, "vectorized")
    out["lon.network.all_capped"] = _sum(net, "all_capped")
    out["lon.network.fast_rated"] = fast
    out["lon.network.fast_rated_share"] = _ratio(fast, fast + flushes)
    out["lon.network.remote_load_updates"] = n("Network.set_remote_load")

    schedulers = tracer.seen("TransferScheduler")
    sched = [o.stats for o in schedulers]
    registry = [o.registry.stats for o in schedulers]
    submitted = _sum(sched, "submitted")
    out["lon.scheduler.submitted"] = submitted
    out["lon.scheduler.batches_flushed"] = _sum(sched, "batches_flushed")
    out["lon.scheduler.submissions_coalesced"] = _sum(
        sched, "submissions_coalesced")
    out["lon.scheduler.scalar_fallbacks"] = _sum(sched, "scalar_fallbacks")
    out["lon.scheduler.batched_share"] = _ratio(
        _sum(sched, "submissions_coalesced"), submitted)
    out["lon.scheduler.deduped"] = _sum(registry, "deduped")
    out["lon.scheduler.promoted"] = _sum(registry, "promoted")
    out["lon.scheduler.cancelled"] = _sum(sched, "cancelled")
    out["lon.scheduler.preempted"] = _sum(sched, "preempted")

    out["lon.lors.downloads"] = n("LoRS.download")
    out["lon.lors.copies"] = n("LoRS.augment")
    out["lon.lors.placements"] = n("LoRS.place") + n("LoRS.upload")

    depots = [o.stats for o in tracer.seen("Depot")]
    for name in ("allocates", "stores", "loads", "bytes_loaded", "refusals",
                 "expired"):
        out[f"lon.ibp.{name}"] = _sum(depots, name)

    out["lon.shard.exchange_publishes"] = n("BoundaryExchange.publish")
    out["lon.shard.exchange_reads"] = n("BoundaryExchange.remote")

    sessions = [m for u in units for m in u.sessions]
    out["streaming.client.cursor_samples"] = counters.get(
        "streaming.client.cursor_samples", 0.0)
    out["streaming.client.accesses"] = float(
        sum(len(m.accesses) for m in sessions))

    agents = [o.stats for o in tracer.seen("ClientAgent")]
    for name in ("requests", "hits", "wan_fetches", "prefetches_issued",
                 "prefetch_hits", "cancelled"):
        out[f"streaming.agent.{name}"] = _sum(agents, name)
    out["streaming.agent.prefetch_useful_ratio"] = _ratio(
        _sum(agents, "prefetch_hits"), _sum(agents, "prefetches_issued"))

    staging = [o.stats for o in tracer.seen("StagingPump")]
    for name in ("staged", "bytes_staged", "cancelled"):
        out[f"streaming.staging.{name}"] = _sum(staging, name)

    out["obs.spans_recorded"] = float(
        sum(len(t.spans) for t in tracer.seen("Tracer")))
    out["obs.sampler_ticks"] = counters.get("obs.sampler_ticks", 0.0)

    compress = n("ZlibCodec.compress") + n("DeltaZlibCodec.compress")
    decompress = n("ZlibCodec.decompress") + n("DeltaZlibCodec.decompress")
    out["lightfield.compression.compress_calls"] = compress
    out["lightfield.compression.decompress_calls"] = decompress
    out["lightfield.compression.compress_s"] = self_s(
        "ZlibCodec.compress", "DeltaZlibCodec.compress")
    out["lightfield.compression.decompress_s"] = self_s(
        "ZlibCodec.decompress", "DeltaZlibCodec.decompress")
    # inflate plus the ViewSet.from_bytes it ends in
    out["lightfield.compression.decompress_mb_per_s"] = _ratio(
        counters.get("lightfield.compression.decompressed_bytes", 0.0) / 1e6,
        out["lightfield.compression.decompress_s"]
        + tracer.self_s["lightfield.viewset"])

    views = n("RaycastRenderer.render")
    rays = counters.get("render.raycast.rays", 0.0)
    out["render.raycast.views"] = views
    out["render.raycast.rays"] = rays
    out["render.raycast.steps"] = counters.get("render.raycast.steps", 0.0)
    out["render.raycast.steps_per_ray"] = _ratio(
        out["render.raycast.steps"], rays)
    out["render.raycast.skipped_rays"] = counters.get(
        "render.raycast.skipped_rays", 0.0)

    frames = n("LightFieldSynthesizer.render")
    out["lightfield.synthesis.frames"] = frames
    out["lightfield.synthesis.rays"] = counters.get(
        "lightfield.synthesis.rays", 0.0)
    out["lightfield.synthesis.ms_per_frame"] = _ratio(
        1e3 * tracer.self_s["lightfield.synthesis"], frames)

    out.update(sim_metrics(sessions))
    out.update(_unit_details(units))
    return out


def _unit_details(units: Sequence[Unit]) -> Dict[str, float]:
    """Sum the units' own figures; derive the per-view-set ratios."""
    total: Dict[str, float] = {}
    for unit in units:
        for key, value in unit.detail.items():
            total[key] = total.get(key, 0.0) + value
    out = dict(total)
    n = float(len(units))
    peak = "lon.shard.max_oversubscription"
    if peak in total:
        out[peak] = max(u.detail[peak] for u in units)
    per_viewset = "lightfield.compression.decompress_ms_per_viewset"
    if per_viewset in total:
        out[per_viewset] = total[per_viewset] / n
    raw = out.pop("lightfield.build.raw_bytes", 0.0)
    packed = out.pop("lightfield.build.compressed_bytes", 0.0)
    if packed:
        out["lightfield.build.compression_ratio"] = raw / packed
        out["lightfield.build.gen_s_per_viewset"] = (
            total["lightfield.build.render_s"]
            + total["lightfield.build.compress_s"]) / n
    return out


def median_of_passes(passes: List[Dict[str, float]],
                     exact: Iterable[str]) -> Dict[str, float]:
    """Median per metric over traced passes; ``exact`` ones must repeat."""
    exact = set(exact)
    out: Dict[str, float] = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        out[key] = values[0] if key in exact else median(values)
    return out
