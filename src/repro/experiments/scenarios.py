"""Per-run scenario callables for the sweep engine.

Every function here is one **independent unit of work**: plain keyword
parameters in (all JSON-serializable — the executor ships them to worker
processes by dotted name), one JSON-serializable result row out.  Host
timings go under the reserved ``wall_clock`` key of the row; everything
else must be deterministic given the parameters, because the executor
fingerprints rows for checkpoint/resume and the merged artifact's
byte-identity rests on it.

Runs share no state — they must be independent to parallelize — except
the synthetic sources (the expensive, immutable inputs), which are
memoized per process, so a worker that executes several runs at one
resolution renders the database once.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..lightfield.lattice import CameraLattice
from ..lightfield.source import SyntheticSource
from ..obs.health import fleet_qgr
from ..streaming.client import CPU_SECONDS_PER_BYTE
from ..streaming.metrics import SessionMetrics
from ..streaming.session import SessionConfig, run_session, session_trace
from .artifacts import WALL_CLOCK_KEY, wall_timer
from .claims import PAPER
from .config import experiment_lattice

if TYPE_CHECKING:
    from ..lightfield.build import LightFieldBuilder
    from ..lightfield.viewset import ViewSet

__all__ = [
    "agent_cache_arm",
    "codec_arm",
    "database_size_point",
    "decompression_point",
    "fleet_observability_point",
    "fps_point",
    "generation_kernel_point",
    "generation_viewset_point",
    "generation_zlib_point",
    "latency_point",
    "multiclient_point",
    "prefetch_arm",
    "qgr_point",
    "scheduling_arm",
    "sharded_point",
    "observability_point",
    "staging_arm",
    "stripe_arm",
    "viewset_size_arm",
]

Row = Dict[str, object]
_R = TypeVar("_R")

#: per-process memo of synthetic sources keyed by (n_theta, n_phi, l, res)
_SOURCES: Dict[Tuple[int, int, int, int], SyntheticSource] = {}


def _lattice(triple: Optional[Sequence[int]]) -> CameraLattice:
    """``[n_theta, n_phi, l]`` as a lattice (None: the experiment lattice)."""
    if triple is None:
        return experiment_lattice()
    return CameraLattice(*triple)


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
    """One session of ``case`` at ``resolution`` on the memoized source."""
    cfg = SessionConfig(
        case=case, trace_seed=seed,
        **overrides,  # type: ignore[arg-type]
    )
    return run_session(_source(resolution, lattice), cfg)


# ----------------------------------------------------------------------
# sessions (smoke sweeps, Figures 9-12)
# ----------------------------------------------------------------------
def latency_point(
    case: int,
    resolution: int,
    seed: int = 7,
    n_accesses: int = PAPER.n_accesses,
    lattice: Optional[Sequence[int]] = None,
) -> Row:
    """One Figure 9-12 cell: a full session (default: 58 accesses on the
    experiment lattice; the smoke sweep runs a shorter, smaller one).

    Beside the summary the row carries the per-access series the figures
    plot: client latency (Figures 9-11), communication latency (Figure
    12) and the tier that served each access (Section 4.3).  Position
    ``i`` of a series is access ``i + 1``.
    """
    m = _run(case, resolution, seed, lattice=_lattice(lattice),
             n_accesses=n_accesses)
    row: Row = dict(m.summary())
    fetched = [s for s in m.decompress_series() if s > 0]
    row["modeled_decompress_s"] = round(
        sum(fetched) / max(len(fetched), 1), 6
    )
    row["latency_s"] = m.latency_series()
    row["comm_s"] = m.comm_latency_series()
    row["source"] = [a.source.value for a in m.accesses]
    return row


# ----------------------------------------------------------------------
# Section 4.2: the Quality Guaranteed Rate
# ----------------------------------------------------------------------
def qgr_point(
    case: int,
    speed: float,
    resolution: int,
    seed: int = 7,
    n_accesses: int = 40,
) -> Row:
    """One (case, cursor speed, trace seed) cell of the QGR sweep.

    The paper: "we refer to such sufficiently slow rate of user movement as
    Quality Guaranteed Rate (QGR).  The QGR of case 2 ... is significantly
    slower than the QGRs in case 1 and 3."  The seed's standard trace is
    re-timed to ``speed`` x its angular velocity and the row reports the
    steady-state fraction of accesses (past the warm-up) whose latency
    stayed under ``QGR_THRESHOLD_S``; the assembler averages over trace
    seeds.  The speed where that fraction collapses is the QGR.
    """
    from ..streaming.trace import standard_trace

    lat = experiment_lattice()
    trace = standard_trace(lat, n_accesses=n_accesses, seed=seed)
    m = _run(case, resolution, seed, lattice=lat, trace=trace.scaled(speed))
    return {
        "case": case,
        "speed": speed,
        "seed": seed,
        "hidden_fraction": fleet_qgr(m.accesses),
    }


# ----------------------------------------------------------------------
# Figure 8: decompression time
# ----------------------------------------------------------------------
#: inflates of each payload a decompression point times, keeping the best
INFLATE_REPEATS = 3


def decompression_point(resolution: int, seed: int = 7) -> Row:
    """Make and inflate the view sets the session trace visits, for real.

    The deterministic row has what the simulator charges for the same
    bytes (``streaming.client.CPU_SECONDS_PER_BYTE``); what this host
    measures is quarantined beside it: seconds per view set to synthesize
    the pixels and to compress them (once each — the set-up every sweep
    pays), and to inflate the payload (best of :data:`INFLATE_REPEATS`).
    """
    from ..lightfield.compression import codec_for_payload

    source = _source(resolution)
    lat = source.lattice
    trace = session_trace(lat, SessionConfig(trace_seed=seed))
    payloads: List[bytes] = []
    synthesize: List[float] = []
    compress: List[float] = []
    for key in sorted(set(trace.viewset_accesses(lat))):
        with wall_timer() as t:
            viewset = source.viewset(key)
        synthesize.append(t.seconds)
        with wall_timer() as t:
            payloads.append(source.codec.compress(viewset).payload)
        compress.append(t.seconds)
    inflate = [
        min(codec_for_payload(p).decompress(p)[1]
            for _ in range(INFLATE_REPEATS))
        for p in payloads
    ]
    mean_bytes = sum(len(p) for p in payloads) / len(payloads)
    return {
        "resolution": resolution,
        "viewsets": len(payloads),
        "payload_mb": round(mean_bytes / 1e6, 4),
        "modeled_decompress_s": round(
            mean_bytes * CPU_SECONDS_PER_BYTE, 6),
        WALL_CLOCK_KEY: {
            "synthesize_s": round(sum(synthesize) / len(synthesize), 6),
            "compress_s": round(sum(compress) / len(compress), 6),
            "mean_inflate_s": round(sum(inflate) / len(inflate), 6),
            "max_inflate_s": round(max(inflate), 6),
        },
    }


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
    m = _run(case, resolution, seed, scheduling_policy=policy)
    miss_latency, misses = m.demand_miss_latency()
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
def _traced_cost(
    run: Callable[[bool], _R], repeats: int
) -> Tuple[Dict[str, object], _R]:
    """Wall cost of ``run(tracing)`` off vs on, and the last traced result.

    Best (min) of ``repeats`` each — min, not mean, because the question
    is intrinsic cost, and scheduler noise only ever adds time.  The
    repeats run in pairs that alternate which side goes first (ABBA), so
    host drift over the run lands on both sides, not in the ratio.
    """
    best = {False: float("inf"), True: float("inf")}
    for i in range(repeats):
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            with wall_timer() as t:
                out = run(tracing)
            best[tracing] = min(best[tracing], t.seconds)
            if tracing:
                result = out
    untraced, traced = best[False], best[True]
    return {
        "untraced_s": round(untraced, 6),
        "traced_s": round(traced, 6),
        "ratio": round(traced / untraced, 4) if untraced else 0.0,
    }, result


#: traced and untraced runs of an observability session point, keeping
#: the best of each
OBSERVABILITY_REPEATS = 3


def observability_point(resolution: int, n_accesses: int, seed: int = 7) -> Row:
    """Traced-vs-untraced wall cost of one Case 3 session (timings
    quarantined).

    The disabled-tracer budget in DESIGN.md §9 expects the untraced run to
    sit within a few percent of the pre-instrumentation baseline; the
    traced ratio quantifies what turning it on buys you into.
    """
    lat = CameraLattice(12, 24, 3)
    source = SyntheticSource(lat, resolution=resolution)
    source.payload((lat.n_theta // lat.l // 2, 0))  # warm the payload cache
    wall, m = _traced_cost(
        lambda tracing: run_session(source, SessionConfig(
            case=3, n_accesses=n_accesses, trace_seed=seed,
            tracing=tracing)),
        OBSERVABILITY_REPEATS,
    )
    return {
        "resolution": resolution,
        "case": 3,
        "accesses": n_accesses,
        "spans": len(m.tracer.spans) if m.tracer else 0,
        WALL_CLOCK_KEY: wall,
    }


#: shards of every fleet observability tier
FLEET_OBS_SHARDS = 8


def fleet_observability_point(n_clients: int, seed: int = 7) -> Row:
    """One client tier of the fleet observability curve.

    Runs the identical sharded fleet of 8-access clients untraced and
    traced, best of 2 each (``workers=1``, the deterministic reference
    execution), quarantines the wall costs, and reports fleet health off
    the traced run: QGR, demand-miss tail latency and depot load skew.

    The rig is deliberately **pinned** — 9×18 l=3 lattice, resolution 48 —
    independent of ``REPRO_SCALE``: payload rows must be
    bit-identical across scales so CI (small) can hold the committed
    (default-scale) figures to tight drift bounds on the shared client
    tiers.  Only the tier list in the spec varies with scale.
    """
    from ..lon.shard import run_sharded_session
    from ..obs.health import fleet_health
    from ..streaming.multiclient import MultiClientConfig

    source = _source(48, CameraLattice(n_theta=9, n_phi=18, l=3))

    def config(tracing: bool) -> MultiClientConfig:
        return MultiClientConfig(
            base=SessionConfig(
                case=3,
                n_accesses=8,
                trace_seed=seed,
                tracing=tracing,
            ),
            n_clients=n_clients,
            seed_stride=101,
            start_stagger=0.25,
        )

    wall, result = _traced_cost(
        lambda tracing: run_sharded_session(
            source, config(tracing), n_shards=FLEET_OBS_SHARDS,
            workers=1),
        2,
    )
    health = fleet_health(result)
    return {
        "n_clients": n_clients,
        "n_shards": len(result.shards),
        "accesses": health.accesses,
        "spans": sum(len(s.telemetry.spans) for s in result.shards),
        "qgr": round(health.qgr, 4),
        "misses": health.misses,
        "demand_miss_p50_s": round(health.demand_miss_p50_s, 6),
        "demand_miss_p99_s": round(health.demand_miss_p99_s, 6),
        "load_skew_max_over_mean": round(
            health.load_skew_max_over_mean, 4),
        "load_skew_gini": round(health.load_skew_gini, 4),
        WALL_CLOCK_KEY: wall,
    }


# ----------------------------------------------------------------------
# generation (BENCH_generation.json)
# ----------------------------------------------------------------------
def _generation_resolution() -> int:
    from .config import scale_small

    return 64 if scale_small() else 200


#: edge of the negHip volume the generation, database-size, fps and codec
#: scenes ray-cast
VOLUME_SIZE = 32
#: view sets a generation point renders and times
SAMPLE_VIEWSETS = 2
#: frames an fps point synthesizes and times
FPS_FRAMES = 6


def _kernel_scene(
    resolution: int, size: int
) -> Tuple[LightFieldBuilder, ViewSet]:
    """The builder of one unshaded negHip view set and that view set
    (memoized): what the codec and synthesis measurements run on."""
    from ..lightfield.build import LightFieldBuilder
    from ..render.raycast import RenderSettings
    from ..volume.synthetic import neg_hip
    from ..volume.transfer import preset

    key = (resolution, size)
    if key not in _SCENES:
        builder = LightFieldBuilder(
            neg_hip(size=size), preset("neghip"),
            CameraLattice(n_theta=12, n_phi=24, l=3),
            resolution=resolution, workers=1,
            settings=RenderSettings(shaded=False),
        )
        _SCENES[key] = (builder, builder.render_viewset((2, 3)))
    return _SCENES[key]


_SCENES: Dict[Tuple[int, int], Tuple[LightFieldBuilder, ViewSet]] = {}


def generation_kernel_point(seed: int = 7) -> Row:
    """Brute vs macrocell-accelerated generator kernel on negHip."""
    from dataclasses import replace

    import numpy as np

    from ..render.camera import orbit_camera
    from ..render.raycast import RaycastRenderer, RenderSettings
    from ..volume.accel import MACROCELL_SIZE
    from ..volume.synthetic import neg_hip
    from ..volume.transfer import preset

    from .config import scale_small

    size = 32 if scale_small() else 64
    resolution = _generation_resolution()
    vol = neg_hip(size=size)
    tf = preset("neghip")
    settings = RenderSettings()  # accelerated
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
        "stage": "kernel",
        "scene": f"neghip-{size}^3",
        "resolution": resolution,
        "macrocell_size": MACROCELL_SIZE,
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


def generation_zlib_point(level: int, seed: int = 7) -> Row:
    """One zlib level of the compression half of generation."""
    from ..lightfield.compression import ZlibCodec

    _, vs = _kernel_scene(_generation_resolution(), VOLUME_SIZE)
    result = ZlibCodec(level=level).compress(vs)
    return {
        "stage": f"zlib-{level}",
        "level": result.level,
        "ratio": round(result.ratio, 3),
        WALL_CLOCK_KEY: {
            "compress_s": round(result.compress_seconds, 4),
        },
    }


#: the paper's full lattice and its view-set count, for extrapolated totals
_PAPER_LATTICE = CameraLattice(72, 144, 6)
_PAPER_VIEWSETS = math.prod(_PAPER_LATTICE.n_viewsets)


def generation_viewset_point(seed: int = 7) -> Row:
    """Per-view-set generation time, extrapolated to the paper database.

    The paper: 2-4.5 h for the whole database on 32 processors, dominated
    by I/O.  We measure our per-view-set render+compress time and scale to
    288 view sets on 32 workers with perfect speedup (the generator is
    embarrassingly parallel across view sets).
    """
    from ..lightfield.build import LightFieldBuilder
    from ..volume.synthetic import neg_hip
    from ..volume.transfer import preset

    resolution = _generation_resolution()
    builder = LightFieldBuilder(
        neg_hip(size=VOLUME_SIZE), preset("neghip"), _PAPER_LATTICE,
        resolution=resolution, workers=1,
    )
    with wall_timer() as t:
        for i in range(SAMPLE_VIEWSETS):
            vs = builder.render_viewset((6 + i, 11))
            builder.compress_viewset(vs)
    per_viewset = t.seconds / SAMPLE_VIEWSETS
    return {
        "stage": "viewset",
        "resolution": resolution,
        "paper_hours_band": PAPER.generation_hours_band,
        "views_rendered": builder.stats.views_rendered,
        "compression_ratio": builder.stats.compression_ratio,
        WALL_CLOCK_KEY: {
            "seconds_per_viewset": per_viewset,
            "full_db_hours_on_32cpu": (
                per_viewset * _PAPER_VIEWSETS / 32 / 3600.0),
        },
    }


def database_size_point(resolution: int, seed: int = 7) -> Row:
    """One Figure 7 bar pair: a view set's size measured on real renders,
    totals extrapolated.

    One equator-band 3 x 3 *sub-block* of a paper view set (content-rich
    views, comparable across resolutions — a polar one would skew the
    ratio) is ray-cast from the synthetic negHip volume and
    zlib-compressed; sizes scale by ``(6/3)^2`` to the paper's l=6 view
    sets (each sample view is >=100 KB, far past zlib's 32 KB window, so
    per-view compressibility is independent of the block size) and across
    the 12 x 24 grid.
    """
    from ..lightfield.build import LightFieldBuilder
    from ..volume.synthetic import neg_hip
    from ..volume.transfer import preset

    block = CameraLattice(_PAPER_LATTICE.n_theta, _PAPER_LATTICE.n_phi, 3)
    scale_up = (_PAPER_LATTICE.l // block.l) ** 2
    builder = LightFieldBuilder(
        neg_hip(size=VOLUME_SIZE), preset("neghip"), block,
        resolution=resolution, workers=1,
    )
    result = builder.compress_viewset(
        builder.render_viewset((block.n_viewsets[0] // 2, 0)))
    raw = result.raw_size * scale_up
    compressed = result.compressed_size * scale_up
    return {
        "resolution": resolution,
        "viewset_raw_mb": raw / 1e6,
        "viewset_compressed_mb": compressed / 1e6,
        "ratio": raw / compressed,
        "total_uncompressed_gb": raw * _PAPER_VIEWSETS / 1e9,
        "total_compressed_gb": compressed * _PAPER_VIEWSETS / 1e9,
        WALL_CLOCK_KEY: {
            "compress_s_per_viewset": round(
                result.compress_seconds * scale_up, 4),
        },
    }


# ----------------------------------------------------------------------
# Section 4.2: client frame rate
# ----------------------------------------------------------------------
def fps_point(
    resolution: int,
    mode: str,
    seed: int = 7,
) -> Row:
    """Novel-view synthesis rate while browsing one view set.

    The paper claims >30 fps "due to the simplistic nature of light field
    rendering algorithms ... even at large image resolutions of 500x500".
    The seeded path of :data:`FPS_FRAMES` cameras orbits inside the view
    set's window and starts from an empty texel store, so the figure
    includes the synthesizer's table upkeep (mapping the view set's cameras
    once, a residency check per frame) — not one camera replayed on warm
    tables.  The measured value is reported whether or not it meets the
    claim, beside the frames' mean runs of rays sharing a lead camera (the
    kernel's per-run overhead).
    """
    import numpy as np

    from ..lightfield.synthesis import DictProvider, LightFieldSynthesizer
    from ..render.camera import orbit_camera

    builder, vs = _kernel_scene(resolution, VOLUME_SIZE)
    lat, spheres, key = builder.lattice, builder.spheres, vs.key
    theta, phi = lat.viewset_center(key)
    reach = (lat.l - 1) / 2.0 - 0.5   # stay inside the view set's cameras
    offsets = np.random.default_rng(seed).uniform(
        -reach, reach, size=(FPS_FRAMES, 2))
    path = [
        orbit_camera(
            theta + dth * lat.theta_step, phi + dph * lat.phi_step,
            radius=spheres.r_outer * 2, resolution=resolution,
            fov_deg=spheres.camera_fov_deg() * 0.5,
        )
        for dth, dph in offsets
    ]
    synth = LightFieldSynthesizer(
        lat, spheres, resolution, DictProvider({key: vs}),
        interpolation=mode,
    )
    synth.render(path[0])      # warm the process, not the tables
    synth.invalidate_cache()
    warm_runs = synth.stats.runs
    with wall_timer() as t:
        for cam in path:
            synth.render(cam)
    dt = t.seconds / FPS_FRAMES
    return {
        "resolution": resolution,
        "mode": mode,
        "frames": FPS_FRAMES,
        WALL_CLOCK_KEY: {
            "ms_per_frame": dt * 1e3,
            "fps": 1.0 / dt,
            "meets_30fps": 1.0 / dt >= PAPER.fps_claim,
            "runs_per_frame": (synth.stats.runs - warm_runs) / FPS_FRAMES,
        },
    }


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
        # defeat the quiet fast paths (flushes, coalescing and large
        # components really occur) while small blocks and wide stream fans
        # make every pump a same-timestamp submission batch
        base = SessionConfig(
            case=3,
            n_accesses=8,
            trace_seed=seed,
            wan_bandwidth=mbps(40.0),
            wan_latency=0.08,
            depot_access_bandwidth=mbps(50.0),
            tcp_window=256 * 1024,
            block_size=2048,
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
    return {
        "regime": regime,
        "n_clients": n_clients,
        "events_fired": result.events_fired,
        "sim_s": round(result.sim_seconds, 2),
        "accesses": agg["accesses"],
        "per_client_accesses": [len(m.accesses) for m in result.per_client],
        "mean_latency_s": agg["mean_latency"],
        "recomputes": reb["recomputes"],
        "coalesced": reb["coalesced"],
        "vectorized": reb["vectorized"],
        "fast_rated": reb["fast_rated"],
        "component_flows": reb["component_flows"],
        "flows_rerated": reb["flows_rerated"],
        "events_rescheduled": reb["events_rescheduled"],
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
    figures.
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
def prefetch_arm(policy: str, resolution: int, seed: int = 7) -> Row:
    m = _run(2, resolution, seed, prefetch_policy=policy)
    return {
        "family": "prefetch",
        "policy": policy,
        "hit_rate": round(m.hit_rate(), 4),
        "wan_rate": round(m.wan_rate(), 4),
        "mean_latency_s": round(m.mean_latency(), 6),
        "prefetches": m.prefetch_issued,
    }


def staging_arm(
    order: str, concurrency: int, resolution: int, seed: int = 7
) -> Row:
    m = _run(3, resolution, seed, staging_order=order,
             staging_concurrency=concurrency)
    return {
        "family": "staging",
        "order": order,
        "concurrency": concurrency,
        "initial_phase": m.initial_phase_length(),
        "wan_rate": round(m.wan_rate(), 4),
        "mean_latency_s": round(m.mean_latency(), 6),
        "staged": m.staged_count,
    }


def stripe_arm(width: int, resolution: int, seed: int = 7) -> Row:
    from ..streaming.metrics import AccessSource

    m = _run(2, resolution, seed, stripe_width=width,
             block_size=256 * 1024)
    wan = [a.comm_latency for a in m.accesses
           if a.source is AccessSource.WAN_DEPOT]
    return {
        "family": "stripe",
        "stripe_width": width,
        "mean_wan_fetch_s": round(sum(wan) / len(wan), 6) if wan else 0.0,
        "wan_rate": round(m.wan_rate(), 4),
        "mean_latency_s": round(m.mean_latency(), 6),
    }


def codec_arm(codec: str, resolution: int, seed: int = 7) -> Row:
    from ..lightfield.compression import DeltaZlibCodec, ZlibCodec

    codecs = {
        "zlib-1": ZlibCodec(level=1),
        "zlib-6": ZlibCodec(level=6),
        "zlib-9": ZlibCodec(level=9),
        "delta-zlib-6": DeltaZlibCodec(),
    }
    _, vs = _kernel_scene(resolution, VOLUME_SIZE)
    result = codecs[codec].compress(vs)
    _, dec_s = codecs[codec].decompress(result.payload)
    return {
        "family": "codec",
        "codec": codec,
        "level": result.level,
        "ratio": round(result.ratio, 4),
        "payload_mb": round(result.compressed_size / 1e6, 4),
        WALL_CLOCK_KEY: {
            "compress_s": round(result.compress_seconds, 4),
            "decompress_s": round(dec_s, 4),
        },
    }


def agent_cache_arm(payloads: int, resolution: int, seed: int = 7) -> Row:
    """Agent cache budget in payload units; 0 means unbounded."""
    source = _source(resolution)
    payload_bytes = len(source.payload((0, 0)))
    cache = None if payloads == 0 else payloads * payload_bytes
    m = _run(2, resolution, seed, agent_cache_bytes=cache)
    return {
        "family": "agent_cache",
        "cache_payloads": payloads or "unbounded",
        "hit_rate": round(m.hit_rate(), 4),
        "wan_rate": round(m.wan_rate(), 4),
        "mean_latency_s": round(m.mean_latency(), 6),
    }


def viewset_size_arm(l: int, resolution: int, seed: int = 7) -> Row:
    from ..streaming.trace import standard_trace

    import numpy as np

    nt, npz = (36, 72) if l == 6 else (12, 24)
    lat = CameraLattice(n_theta=nt, n_phi=npz, l=l)
    src = _source(resolution, lat)
    payload = src.payload((nt // l // 2, 0))
    trace = standard_trace(lat, n_accesses=30, seed=seed)
    accesses = trace.viewset_accesses(lat)
    return {
        "family": "viewset_size",
        "l": l,
        "window_deg": round(float(l * np.degrees(lat.theta_step)), 4),
        "payload_mb": round(len(payload) / 1e6, 4),
        "distinct_viewsets_in_trace": len(set(accesses)),
        "bytes_for_trace_mb": round(
            len(payload) * len(set(accesses)) / 1e6, 4
        ),
    }
