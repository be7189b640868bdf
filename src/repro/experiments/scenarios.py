"""Per-run scenario callables for the sweep engine.

Every function here is one **independent unit of work**: plain keyword
parameters in (all JSON-serializable — the executor ships them to worker
processes by dotted name), one JSON-serializable result row out.  Host
timings go under the reserved ``wall_clock`` key of the row; everything
else must be deterministic given the parameters, because the executor
fingerprints rows for checkpoint/resume and the merged artifact's
byte-identity rests on it.

Scenarios deliberately do *not* share the :class:`StreamingSuite`
memoization — runs must be independent to parallelize — but synthetic
sources (the expensive, immutable inputs) are memoized per process, so a
worker that executes several runs at one resolution renders the database
once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.determinism import MODELED_CPU_SECONDS_PER_BYTE
from ..lightfield.lattice import CameraLattice
from ..lightfield.source import SyntheticSource
from ..streaming.metrics import SessionMetrics
from ..streaming.session import SessionConfig, run_session
from .artifacts import WALL_CLOCK_KEY, wall_timer
from .config import experiment_lattice

__all__ = [
    "agent_cache_arm",
    "codec_arm",
    "fleet_observability_point",
    "generation_kernel_point",
    "generation_viewset_point",
    "generation_zlib_point",
    "latency_point",
    "multiclient_point",
    "prefetch_arm",
    "scheduling_arm",
    "session_point",
    "sharded_point",
    "observability_point",
    "staging_arm",
    "stripe_arm",
    "viewset_size_arm",
]

Row = Dict[str, object]

#: per-process memo of synthetic sources keyed by (n_theta, n_phi, l, res)
_SOURCES: Dict[Tuple[int, int, int, int], SyntheticSource] = {}


def _source(
    resolution: int, lattice: Optional[CameraLattice] = None
) -> SyntheticSource:
    """A memoized synthetic source (default: the experiment lattice)."""
    lat = lattice if lattice is not None else experiment_lattice()
    key = (lat.n_theta, lat.n_phi, lat.l, resolution)
    if key not in _SOURCES:
        _SOURCES[key] = SyntheticSource(lat, resolution=resolution)
    return _SOURCES[key]


def _run(
    case: int,
    resolution: int,
    seed: int,
    lattice: Optional[CameraLattice] = None,
    **overrides: object,
) -> SessionMetrics:
    """One deterministic session (modeled decompression cost)."""
    cfg = SessionConfig(
        case=case, trace_seed=seed,
        cpu_seconds_per_byte=MODELED_CPU_SECONDS_PER_BYTE,
        **overrides,  # type: ignore[arg-type]
    )
    return run_session(_source(resolution, lattice), cfg)


# ----------------------------------------------------------------------
# sessions (smoke sweeps, Figures 9-12)
# ----------------------------------------------------------------------
def session_point(
    case: int,
    resolution: int,
    seed: int = 7,
    n_accesses: int = 10,
    n_theta: int = 9,
    n_phi: int = 18,
    l: int = 3,
) -> Row:
    """One small standalone session; fully deterministic row."""
    lat = CameraLattice(n_theta=n_theta, n_phi=n_phi, l=l)
    m = _run(case, resolution, seed, lattice=lat, n_accesses=n_accesses)
    return dict(m.summary())


def latency_point(case: int, resolution: int, seed: int = 7) -> Row:
    """One Figure 9-12 cell: a full session on the experiment lattice."""
    m = _run(case, resolution, seed)
    row: Row = dict(m.summary())
    phase = max(m.initial_phase_length(), 1)
    row["wan_rate_initial"] = round(m.wan_rate(upto=phase), 3)
    row["hit_rate_initial"] = round(m.hit_rate(upto=phase), 3)
    row["mean_decompress_s"] = round(
        sum(m.decompress_series()) / max(len(m.accesses), 1), 6
    )
    return row


# ----------------------------------------------------------------------
# transfer scheduling (BENCH_streaming.json)
# ----------------------------------------------------------------------
def scheduling_arm(
    arm: str,
    case: int,
    policy: str,
    resolution: int,
    seed: int = 7,
) -> Row:
    """One scheduling-ablation arm on the Figure-9 topology."""
    from .runners import demand_miss_latency

    m = _run(case, resolution, seed, scheduling_policy=policy)
    miss_latency, misses = demand_miss_latency(m)
    return {
        "arm": arm,
        "policy": policy,
        "staging": case == 3,
        "misses": misses,
        "demand_miss_latency_s": round(miss_latency, 6),
        "mean_latency_s": round(m.mean_latency(), 6),
        "initial_phase": m.initial_phase_length(),
        "deduped": m.deduped,
        "promoted": m.promoted_transfers,
        "cancelled": m.cancelled_transfers,
    }


# ----------------------------------------------------------------------
# observability overhead (BENCH_observability.json)
# ----------------------------------------------------------------------
def observability_point(
    resolution: int,
    n_accesses: int,
    repeats: int = 3,
    case: int = 3,
    seed: int = 7,
) -> Row:
    """Traced-vs-untraced wall cost of one session (timings quarantined)."""
    from .runners import observability_overhead

    return observability_overhead(
        resolution=resolution, case=case, n_accesses=n_accesses,
        repeats=repeats,
    )


def fleet_observability_point(
    n_clients: int,
    n_shards: int = 8,
    seed: int = 7,
    n_accesses: int = 8,
    repeats: int = 2,
) -> Row:
    """One client tier of the fleet observability curve.

    Runs the identical sharded fleet untraced and traced (``workers=1``,
    the deterministic reference execution), quarantines the wall costs,
    and reports fleet health off the stitched telemetry: QGR, demand-miss
    tail latency (from the exact merge of per-shard histograms) and depot
    load skew.

    The rig is deliberately **pinned** — 9×18 l=3 lattice, resolution 48,
    modeled CPU — independent of ``REPRO_SCALE``: payload rows must be
    bit-identical across scales so CI (small) can hold the committed
    (default-scale) figures to tight drift bounds on the shared client
    tiers.  Only the tier list in the spec varies with scale.
    """
    from ..lon.shard import run_sharded_session
    from ..obs.fleet import merged_histogram_state
    from ..obs.health import fleet_health
    from ..obs.metrics import LogHistogram
    from ..streaming.multiclient import MultiClientConfig

    source = _source(48, CameraLattice(n_theta=9, n_phi=18, l=3))

    def config(tracing: bool) -> MultiClientConfig:
        return MultiClientConfig(
            base=SessionConfig(
                case=3,
                n_accesses=n_accesses,
                trace_seed=seed,
                cpu_seconds_per_byte=MODELED_CPU_SECONDS_PER_BYTE,
                tracing=tracing,
            ),
            n_clients=n_clients,
            seed_stride=101,
            start_stagger=0.25,
        )

    def run(tracing: bool):
        with wall_timer() as t:
            res = run_sharded_session(
                source, config(tracing), n_shards=n_shards, workers=1,
            )
        return t.seconds, res

    untraced = min(run(False)[0] for _ in range(repeats))
    traced = float("inf")
    result = None
    for _ in range(repeats):
        dt, result = run(True)
        traced = min(traced, dt)
    assert result is not None
    fleet = result.stitched()
    merged = LogHistogram.from_state(merged_histogram_state(
        [s.telemetry for s in result.shards if s.telemetry is not None],
        "fleet.demand_miss_latency",
    ))
    per_client = [m.accesses for m in result.per_client]
    health = fleet_health(per_client, fleet.registry,
                          miss_histogram=merged)
    return {
        "n_clients": n_clients,
        "n_shards": len(result.shards),
        "accesses": health.accesses,
        "spans": len(fleet.spans),
        "qgr": round(health.qgr, 4),
        "misses": health.misses,
        "demand_miss_p50_s": round(health.demand_miss_p50_s, 6),
        "demand_miss_p99_s": round(health.demand_miss_p99_s, 6),
        "load_skew_max_over_mean": round(
            health.load_skew_max_over_mean, 4),
        "load_skew_gini": round(health.load_skew_gini, 4),
        WALL_CLOCK_KEY: {
            "untraced_s": round(untraced, 6),
            "traced_s": round(traced, 6),
            "ratio": round(traced / untraced, 4) if untraced else 0.0,
        },
    }


# ----------------------------------------------------------------------
# generation (BENCH_generation.json)
# ----------------------------------------------------------------------
def _generation_resolution() -> int:
    from .config import scale_small

    return 64 if scale_small() else 200


def _kernel_viewset(
    resolution: int, size: int
) -> "object":
    """One rendered view set for codec measurements (memoized)."""
    from ..lightfield.build import LightFieldBuilder
    from ..render.raycast import RenderSettings
    from ..volume.synthetic import neg_hip
    from ..volume.transfer import preset

    key = ("viewset", resolution, size)
    if key not in _GEN_CACHE:
        builder = LightFieldBuilder(
            neg_hip(size=size), preset("neghip"),
            CameraLattice(n_theta=12, n_phi=24, l=3),
            resolution=resolution, workers=1,
            settings=RenderSettings(shaded=False),
        )
        _GEN_CACHE[key] = builder.render_viewset((2, 3))
    return _GEN_CACHE[key]


_GEN_CACHE: Dict[Tuple[object, ...], object] = {}


def generation_kernel_point(
    stage: str = "kernel",
    seed: int = 7,
    size: Optional[int] = None,
    resolution: Optional[int] = None,
) -> Row:
    """Brute vs macrocell-accelerated generator kernel on negHip."""
    from dataclasses import replace

    import numpy as np

    from ..render.camera import orbit_camera
    from ..render.raycast import RaycastRenderer, RenderSettings
    from ..volume.synthetic import neg_hip
    from ..volume.transfer import preset

    from .config import scale_small

    if size is None:
        size = 32 if scale_small() else 64
    if resolution is None:
        resolution = _generation_resolution()
    vol = neg_hip(size=size)
    tf = preset("neghip")
    settings = RenderSettings()  # accelerated=True, macrocell_size=4
    accel = RaycastRenderer(vol, tf, settings)
    brute = RaycastRenderer(vol, tf, replace(settings, accelerated=False))
    cells = accel.prepare()
    empty_fraction = 1.0 - cells.active_fraction
    cams = [
        orbit_camera(theta, phi, radius=3.0 * vol.bounding_radius,
                     resolution=resolution)
        for theta, phi in ((1.2, 0.6), (1.9, 2.4), (0.8, 4.1))
    ]

    def run(renderer: RaycastRenderer) -> Tuple[float, float, List[object]]:
        """Best-of-3 wall seconds over the camera set + step stats."""
        best = float("inf")
        steps = rays = 0
        frames: List[object] = []
        for _ in range(3):
            with wall_timer() as t:
                frames, steps, rays = [], 0, 0
                for cam in cams:
                    frames.append(renderer.render(cam))
                    steps += renderer.last_render_stats.steps
                    rays += renderer.last_render_stats.rays
            best = min(best, t.seconds)
        return best, steps / rays, frames

    brute_s, brute_spr, brute_frames = run(brute)
    accel_s, accel_spr, accel_frames = run(accel)
    err = max(
        float(np.abs(a - b).max())
        for a, b in zip(accel_frames, brute_frames)
    )
    return {
        "stage": stage,
        "scene": f"neghip-{size}^3",
        "resolution": resolution,
        "macrocell_size": settings.macrocell_size,
        "empty_cell_fraction": round(empty_fraction, 4),
        "views_timed": len(cams),
        "brute": {"steps_per_ray": round(brute_spr, 2)},
        "accelerated": {"steps_per_ray": round(accel_spr, 2)},
        "max_abs_error": err,
        WALL_CLOCK_KEY: {
            "brute_seconds_per_view": round(brute_s / len(cams), 4),
            "accelerated_seconds_per_view": round(accel_s / len(cams), 4),
            "speedup": round(brute_s / accel_s, 3),
        },
    }


def generation_zlib_point(
    stage: str,
    level: int,
    seed: int = 7,
    size: int = 32,
    resolution: Optional[int] = None,
) -> Row:
    """One zlib level of the compression half of generation."""
    from ..lightfield.compression import ZlibCodec

    if resolution is None:
        resolution = _generation_resolution()
    vs = _kernel_viewset(resolution, size)
    result = ZlibCodec(level=level).compress(vs)  # type: ignore[arg-type]
    return {
        "stage": stage,
        "level": result.level,
        "ratio": round(result.ratio, 3),
        WALL_CLOCK_KEY: {
            "compress_s": round(result.compress_seconds, 4),
        },
    }


def generation_viewset_point(
    stage: str = "viewset",
    seed: int = 7,
    sample_viewsets: int = 2,
    volume_size: int = 32,
    resolution: Optional[int] = None,
) -> Row:
    """Per-view-set generation time, extrapolated to the paper database."""
    from .runners import text_generation_time

    if resolution is None:
        resolution = _generation_resolution()
    row = text_generation_time(
        resolution=resolution, volume_size=volume_size,
        sample_viewsets=sample_viewsets, workers=1,
    )
    row["stage"] = stage
    return row


# ----------------------------------------------------------------------
# multiclient / sharded scale curve (BENCH_scale.json)
# ----------------------------------------------------------------------
def _scale_source() -> SyntheticSource:
    from .config import scale_small

    if scale_small():
        return _source(48, CameraLattice(n_theta=9, n_phi=18, l=3))
    return _source(64, CameraLattice(n_theta=30, n_phi=60, l=3))


def _scale_config(regime: str, n_clients: int, seed: int) -> "object":
    from ..lon import gbps, mbps
    from ..streaming.multiclient import MultiClientConfig

    from .config import scale_small

    if regime == "contended":
        # bandwidth-scarce flash crowds: big windows over a thin WAN
        # defeat the quiet fast paths (flushes/coalescing/vectorized
        # fills really fire) while small blocks and wide stream fans
        # make every pump a same-timestamp submission batch, so the
        # admission plan forms real batches too
        base = SessionConfig(
            case=3,
            n_accesses=8,
            trace_seed=seed,
            wan_bandwidth=mbps(40.0),
            wan_latency=0.08,
            depot_access_bandwidth=mbps(50.0),
            tcp_window=256 * 1024,
            block_size=2048,
            cpu_seconds_per_byte=MODELED_CPU_SECONDS_PER_BYTE,
            max_streams=8,
            staging_concurrency=24,
            staging_streams=12,
            prefetch_policy="all-neighbors",
        )
    else:
        # window-capped steady state: the quiet fast path dominates
        base = SessionConfig(
            case=3,
            n_accesses=8 if scale_small() else 15,
            trace_seed=seed,
            wan_bandwidth=gbps(2.0),
            wan_latency=0.08,
            depot_access_bandwidth=mbps(400.0),
            tcp_window=8 * 1024,
            block_size=256 * 1024,
            cpu_seconds_per_byte=MODELED_CPU_SECONDS_PER_BYTE,
            staging_concurrency=16,
            staging_streams=4,
            prefetch_policy="all-neighbors",
        )
    return MultiClientConfig(
        base=base, n_clients=n_clients, seed_stride=101, start_stagger=0.25,
    )


def multiclient_point(regime: str, n_clients: int, seed: int = 7) -> Row:
    """One fleet size of the scale curve (or the contended rig)."""
    from ..streaming.multiclient import run_multiclient_session

    config = _scale_config(regime, n_clients, seed)
    result = run_multiclient_session(_scale_source(), config)  # type: ignore[arg-type]
    agg = result.aggregate()
    reb = result.rebalance
    adm = result.admission
    return {
        "regime": regime,
        "n_clients": n_clients,
        "admission_batches_flushed": adm.get("batches_flushed", 0),
        "admission_submissions_coalesced": adm.get(
            "submissions_coalesced", 0),
        "admission_scalar_fallbacks": adm.get("scalar_fallbacks", 0),
        "events_fired": result.events_fired,
        "sim_s": round(result.sim_seconds, 2),
        "accesses": agg["accesses"],
        "per_client_accesses": [len(m.accesses) for m in result.per_client],
        "mean_latency_s": agg["mean_latency"],
        "recomputes": reb["recomputes"],
        "coalesced": reb["coalesced"],
        "vectorized": reb["vectorized"],
        "fast_rated": reb["fast_rated"],
        "all_capped": reb["all_capped"],
        "queue_compactions": agg["queue_compactions"],
        WALL_CLOCK_KEY: {
            "wall_s": round(result.wall_seconds, 4),
            "events_per_second": round(result.events_per_second, 1),
        },
    }


def sharded_point(
    regime: str,
    n_clients: int,
    n_shards: int,
    seed: int = 7,
    cross_fraction: float = 0.0,
) -> Row:
    """One shard count (× cross-shard traffic fraction) of the
    sharded-fleet throughput curve.

    ``cross_fraction > 0`` routes that share of clients over the shared
    backbone (``xs-switch`` <-> ``wan-router`` boundary link), so shards
    stop being link-disjoint and exchange boundary-load summaries at the
    windowed barrier; the row then reports the measured bounded-staleness
    figures alongside the admission-batch counters.
    """
    from dataclasses import replace as dc_replace

    from ..lon.shard import run_sharded_session

    config = _scale_config("scaling", n_clients, seed)
    if cross_fraction:
        config = dc_replace(config, cross_shard_fraction=cross_fraction)  # type: ignore[type-var]
    sharded = run_sharded_session(
        _scale_source(), config, n_shards=n_shards, workers=1,  # type: ignore[arg-type]
    )
    agg = sharded.aggregate()
    row: Row = {
        "regime": regime,
        "n_clients": n_clients,
        "n_shards": n_shards,
        "cross_fraction": cross_fraction,
        "events_fired": sharded.events_fired,
        "accesses": agg["accesses"],
        "admission_batches_flushed": agg.get(
            "admission_batches_flushed", 0),
        "admission_submissions_coalesced": agg.get(
            "admission_submissions_coalesced", 0),
        WALL_CLOCK_KEY: {
            "makespan_s": round(sharded.wall_seconds, 4),
            "cpu_s": round(sharded.cpu_seconds, 4),
            "events_per_second": round(sharded.events_per_second, 1),
            "events_per_core_second": round(
                sharded.events_fired / sharded.cpu_seconds, 1
            ) if sharded.cpu_seconds else 0.0,
        },
    }
    for key in ("boundary_windows", "boundary_staleness_bound",
                "boundary_max_oversubscription"):
        if key in agg:
            row[key] = agg[key]
    return row


# ----------------------------------------------------------------------
# ablation arms (BENCH_ablations.json)
# ----------------------------------------------------------------------
def prefetch_arm(
    family: str, policy: str, case: int, resolution: int, seed: int = 7
) -> Row:
    m = _run(case, resolution, seed, prefetch_policy=policy)
    return {
        "family": family,
        "policy": policy,
        "hit_rate": round(m.hit_rate(), 4),
        "wan_rate": round(m.wan_rate(), 4),
        "mean_latency_s": round(m.mean_latency(), 6),
        "prefetches": m.prefetch_issued,
    }


def staging_arm(
    family: str, order: str, concurrency: int, resolution: int, seed: int = 7
) -> Row:
    m = _run(3, resolution, seed, staging_order=order,
             staging_concurrency=concurrency)
    return {
        "family": family,
        "order": order,
        "concurrency": concurrency,
        "initial_phase": m.initial_phase_length(),
        "wan_rate": round(m.wan_rate(), 4),
        "mean_latency_s": round(m.mean_latency(), 6),
        "staged": m.staged_count,
    }


def stripe_arm(family: str, width: int, resolution: int, seed: int = 7) -> Row:
    from ..streaming.metrics import AccessSource

    m = _run(2, resolution, seed, stripe_width=width,
             block_size=256 * 1024)
    wan = [a.comm_latency for a in m.accesses
           if a.source is AccessSource.WAN_DEPOT]
    return {
        "family": family,
        "stripe_width": width,
        "mean_wan_fetch_s": round(sum(wan) / len(wan), 6) if wan else 0.0,
        "wan_rate": round(m.wan_rate(), 4),
        "mean_latency_s": round(m.mean_latency(), 6),
    }


def codec_arm(
    family: str, codec: str, resolution: int, seed: int = 7,
    volume_size: int = 32,
) -> Row:
    from ..lightfield.compression import DeltaZlibCodec, ZlibCodec

    codecs = {
        "zlib-1": ZlibCodec(level=1),
        "zlib-6": ZlibCodec(level=6),
        "zlib-9": ZlibCodec(level=9),
        "delta-zlib-6": DeltaZlibCodec(level=6),
    }
    vs = _kernel_viewset(resolution, volume_size)
    result = codecs[codec].compress(vs)  # type: ignore[arg-type]
    _, dec_s = codecs[codec].decompress(result.payload)
    return {
        "family": family,
        "codec": codec,
        "level": result.level,
        "ratio": round(result.ratio, 4),
        "payload_mb": round(result.compressed_size / 1e6, 4),
        WALL_CLOCK_KEY: {
            "compress_s": round(result.compress_seconds, 4),
            "decompress_s": round(dec_s, 4),
        },
    }


def agent_cache_arm(
    family: str, payloads: int, case: int, resolution: int, seed: int = 7
) -> Row:
    """Agent cache budget in payload units; 0 means unbounded."""
    source = _source(resolution)
    payload_bytes = len(source.payload((0, 0)))
    cache = None if payloads == 0 else payloads * payload_bytes
    m = _run(case, resolution, seed, agent_cache_bytes=cache)
    return {
        "family": family,
        "cache_payloads": payloads or "unbounded",
        "hit_rate": round(m.hit_rate(), 4),
        "wan_rate": round(m.wan_rate(), 4),
        "mean_latency_s": round(m.mean_latency(), 6),
    }


def viewset_size_arm(
    family: str, l: int, resolution: int, seed: int = 7
) -> Row:
    from ..streaming.trace import standard_trace

    import numpy as np

    nt, npz = (36, 72) if l == 6 else (12, 24)
    lat = CameraLattice(n_theta=nt, n_phi=npz, l=l)
    src = _source(resolution, lat)
    payload = src.payload((nt // l // 2, 0))
    trace = standard_trace(lat, n_accesses=30, seed=seed)
    accesses = trace.viewset_accesses(lat)
    return {
        "family": family,
        "l": l,
        "window_deg": round(float(l * np.degrees(lat.theta_step)), 4),
        "payload_mb": round(len(payload) / 1e6, 4),
        "distinct_viewsets_in_trace": len(set(accesses)),
        "bytes_for_trace_mb": round(
            len(payload) * len(set(accesses)) / 1e6, 4
        ),
    }
