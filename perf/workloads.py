"""The seven benchmark workloads.

A workload has a ``setup`` (inputs made from the seed plus program set-up)
and a stream of *units*.  One unit is one call — or a fixed handful of
calls — of the public API, timed from outside with ``perf_counter``; unit
``i`` draws its inputs from ``(seed, i)``, so a run measures a sample of
inputs instead of one input many times, and unit 0 of seed 7 is the input
the committed ``BENCH_*.json`` references were produced with.

Only public names of ``repro`` are imported, every config is built here,
and ``network_rebalance`` / ``network_vectorize_threshold`` /
``scheduler_vectorize_threshold`` are left at the library defaults.
"""

from __future__ import annotations

import gc
import math
import random
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.lightfield import (
    CameraLattice, DictProvider, LightFieldBuilder, LightFieldSynthesizer,
    SyntheticSource, codec_for_payload,
)
from repro.lon import gbps, mbps
from repro.lon.shard import run_sharded_session
from repro.obs import fleet_qgr
from repro.render import RaycastRenderer, RenderSettings, orbit_camera, psnr
from repro.streaming import (
    AccessSource, MultiClientConfig, SessionConfig, SessionMetrics,
    run_multiclient_session, run_session,
)
from repro.volume import neg_hip, preset

#: modeled decompression cost, so simulated time never depends on the host
CPU_SECONDS_PER_BYTE = 2e-9
#: trace-seed distance between consecutive units of one run
UNIT_SEED_STRIDE = 1000
#: floor for a synthesized frame against direct ray casting, 0.3/0.4 of a
#: lattice step off a sample camera (measured 30.6-32.4 dB)
PSNR_FLOOR_DB = 25.0

Span = Callable[[str, str], Any]   # (layer, name) -> context manager


@dataclass
class Unit:
    """What one timed unit of work produced."""

    wall_s: float                  # host seconds inside the public calls
    work: float                    # throughput numerator (``work_unit``)
    work_s: float                  # throughput denominator
    attempted: int
    failed: int
    digest: Tuple[Any, ...]        # equal for equal (seed, index)
    sessions: List[SessionMetrics] = field(default_factory=list)
    detail: Dict[str, float] = field(default_factory=dict)


class _Clock:
    """Sums the host time of the ``with`` blocks it is used for."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "_Clock":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds += perf_counter() - self._t0


def _no_span(layer: str, name: str) -> Any:
    """The untraced run's ``span``: times nothing, records nothing."""
    return nullcontext()


class Workload:
    """Base: subclasses fill in ``setup`` and ``unit``."""

    name = ""
    work_unit = ""                     # what ``work_per_s`` counts
    #: input sizes: ``bench`` is what the timed runs use, ``reference`` the
    #: size the committed BENCH artifacts were produced at
    sizes: Dict[str, Dict[str, Any]] = {}

    def __init__(self, scale: str = "bench") -> None:
        self.scale = scale
        self.size = self.sizes[scale]

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def unit(self, state: Any, seed: int, index: int,
             span: Span = _no_span) -> Unit:
        raise NotImplementedError

    def checks(self, state: Any) -> List[Tuple[str, bool]]:
        """Extra output gates run once after the timed units."""
        return []

    def reference_gate(self, unit0: Unit) -> List[Tuple[str, bool]]:
        """Equality with the committed artifacts (seed 7, reference size)."""
        return []

    def layer_extras(self, state: Any, seed: int) -> Dict[str, float]:
        """Per-layer numbers that need runs of their own (traced mode)."""
        return {}


def unit_seed(seed: int, index: int) -> int:
    return seed + UNIT_SEED_STRIDE * index


def _source(lattice: Tuple[int, int, int], resolution: int) -> SyntheticSource:
    n_theta, n_phi, l = lattice
    source = SyntheticSource(
        CameraLattice(n_theta=n_theta, n_phi=n_phi, l=l), resolution)
    for key in source.lattice.all_viewsets():
        source.payload(key)
    return source


def _latencies_hex(sessions: Sequence[SessionMetrics]) -> Tuple[str, ...]:
    return tuple(a.total_latency.hex() for m in sessions for a in m.accesses)


def sim_metrics(sessions: Sequence[SessionMetrics]) -> Dict[str, float]:
    """The paper's simulated-clock figures, pooled over ``sessions``."""
    accesses = [a for m in sessions for a in m.accesses]
    if not accesses:
        return {}
    lat = sorted(a.total_latency for a in accesses)
    wan = sum(1 for a in accesses if a.source in (
        AccessSource.WAN_DEPOT, AccessSource.SERVER_RUNTIME))
    staged = [m for m in sessions if m.case_name.startswith("case3")]
    return {
        "sim.accesses": float(len(lat)),
        "sim.access_latency_mean_s": sum(lat) / len(lat),
        "sim.access_latency_p90_s": lat[min(len(lat) - 1,
                                            math.ceil(0.9 * len(lat)) - 1)],
        "sim.qgr": fleet_qgr(accesses),
        "sim.wan_access_rate": wan / len(lat),
        "sim.initial_phase_accesses": (
            sum(m.initial_phase_length() for m in staged) / len(staged)
            if staged else 0.0),
    }


# ----------------------------------------------------------------------
# browse_paper
# ----------------------------------------------------------------------
class BrowsePaper(Workload):
    name = "browse_paper"
    work_unit = "events"
    sizes = {
        "bench": {"lattice": (24, 48, 6), "resolution": 64},
        "reference": {"lattice": (36, 72, 6), "resolution": 200},
    }

    def setup(self, seed: int) -> SyntheticSource:
        return _source(self.size["lattice"], self.size["resolution"])

    def unit(self, state: SyntheticSource, seed: int, index: int,
             span: Span = _no_span) -> Unit:
        clock = _Clock()
        sessions: List[SessionMetrics] = []
        events = 0
        for case in (1, 2, 3):
            config = SessionConfig(
                case=case, trace_seed=unit_seed(seed, index),
                cpu_seconds_per_byte=CPU_SECONDS_PER_BYTE)
            rigs: List[Any] = []
            with clock, span("streaming.session", "run_session"):
                metrics = run_session(state, config, rig_hook=rigs.append)
            sessions.append(metrics)
            events += rigs[0].queue.fired_total
        attempted = 3 * SessionConfig().n_accesses
        done = sum(len(m.accesses) for m in sessions)
        return Unit(
            wall_s=clock.seconds, work=events, work_s=clock.seconds,
            attempted=attempted, failed=attempted - done,
            digest=(events, _latencies_hex(sessions)), sessions=sessions,
        )

    def reference_gate(self, unit0: Unit) -> List[Tuple[str, bool]]:
        case3 = unit0.sessions[2]
        return [
            ("BENCH_streaming staging+weighted mean 0.017209 s",
             round(case3.mean_latency(), 6) == 0.017209),
            ("BENCH_streaming staging+weighted initial phase 1",
             case3.initial_phase_length() == 1),
        ]


# ----------------------------------------------------------------------
# fleets
# ----------------------------------------------------------------------
def steady_config(seed: int, n_clients: int, n_accesses: int,
                  tracing: bool = False) -> MultiClientConfig:
    """Window-capped regime: the quiet-link fast path rates every flow."""
    return MultiClientConfig(
        base=SessionConfig(
            case=3, n_accesses=n_accesses, trace_seed=seed,
            wan_bandwidth=gbps(2.0), wan_latency=0.08,
            depot_access_bandwidth=mbps(400.0), tcp_window=8 * 1024,
            block_size=256 * 1024,
            cpu_seconds_per_byte=CPU_SECONDS_PER_BYTE,
            staging_concurrency=16, staging_streams=4,
            prefetch_policy="all-neighbors", tracing=tracing,
        ),
        n_clients=n_clients, seed_stride=101, start_stagger=0.25,
    )


def contended_config(seed: int, n_clients: int,
                     n_accesses: int) -> MultiClientConfig:
    """Thin-WAN flash crowd: big windows, tiny blocks, wide stream fans."""
    return MultiClientConfig(
        base=SessionConfig(
            case=3, n_accesses=n_accesses, trace_seed=seed,
            wan_bandwidth=mbps(40.0), wan_latency=0.08,
            depot_access_bandwidth=mbps(50.0), tcp_window=256 * 1024,
            block_size=2048, cpu_seconds_per_byte=CPU_SECONDS_PER_BYTE,
            max_streams=8, staging_concurrency=24, staging_streams=12,
            prefetch_policy="all-neighbors",
        ),
        n_clients=n_clients, seed_stride=101, start_stagger=0.25,
    )


class _Fleet(Workload):
    work_unit = "events"
    bench_lattice = {"lattice": (18, 36, 3), "resolution": 64}
    reference_lattice = {"lattice": (30, 60, 3), "resolution": 64}

    def setup(self, seed: int) -> SyntheticSource:
        return _source(self.size["lattice"], self.size["resolution"])

    def config(self, seed: int) -> MultiClientConfig:
        raise NotImplementedError

    def run(self, source: SyntheticSource, config: MultiClientConfig,
            span: Span) -> Any:
        with span("streaming.multiclient", "run_multiclient_session"):
            return run_multiclient_session(source, config)

    def unit(self, state: SyntheticSource, seed: int, index: int,
             span: Span = _no_span) -> Unit:
        config = self.config(unit_seed(seed, index))
        clock = _Clock()
        with clock:
            result = self.run(state, config, span)
        sessions = list(result.per_client)
        attempted = config.n_clients * config.base.n_accesses
        done = sum(len(m.accesses) for m in sessions)
        return Unit(
            wall_s=clock.seconds, work=result.events_fired,
            work_s=clock.seconds, attempted=attempted,
            failed=attempted - done,
            digest=(result.events_fired, _latencies_hex(sessions)),
            sessions=sessions,
            detail={} if span is _no_span else self.detail(result),
        )

    def detail(self, result: Any) -> Dict[str, float]:
        return {}


class FleetSteady(_Fleet):
    name = "fleet_steady"
    sizes = {
        "bench": {**_Fleet.bench_lattice, "clients": 8, "accesses": 8},
        "reference": {**_Fleet.reference_lattice,
                      "clients": 32, "accesses": 15},
    }
    tracing = False

    def config(self, seed: int) -> MultiClientConfig:
        return steady_config(seed, self.size["clients"],
                             self.size["accesses"], tracing=self.tracing)

    def reference_gate(self, unit0: Unit) -> List[Tuple[str, bool]]:
        mean = sim_metrics(unit0.sessions)["sim.access_latency_mean_s"]
        return [
            ("BENCH_scale 32/* events 52316", unit0.work == 52316),
            ("BENCH_scale 32/* mean 0.3498 s", round(mean, 4) == 0.3498),
        ]


class FleetTraced(FleetSteady):
    """``fleet_steady`` with the program's own ``obs`` tracing switched on."""

    name = "fleet_traced"
    tracing = True

    def reference_gate(self, unit0: Unit) -> List[Tuple[str, bool]]:
        return []

    def detail(self, result: Any) -> Dict[str, float]:
        # every client's metrics share the rig's one tracer
        stages: Dict[str, float] = {}
        for per_source in result.per_client[0].breakdown().values():
            for stage, stats in per_source.items():
                stages[stage] = stages.get(stage, 0.0) + stats["total"]
        return {
            f"obs.sim.{key.replace('-', '_')}_s": stages.get(key, 0.0)
            for key in ("request-rpc", "queue-wait", "network-transfer",
                        "ship-to-console", "decompress")
        }

    def layer_extras(self, state: SyntheticSource,
                     seed: int) -> Dict[str, float]:
        """Traced / untraced wall of the same fleet, as interleaved pairs."""
        ratios = []
        for index in range(5):
            pair = []
            for tracing in (False, True):
                config = steady_config(
                    unit_seed(seed, index), self.size["clients"],
                    self.size["accesses"], tracing=tracing)
                gc.collect()    # or one run pays for the other's rig cycles
                t0 = perf_counter()
                run_multiclient_session(state, config)
                pair.append(perf_counter() - t0)
            ratios.append(pair[1] / pair[0])
        return {"obs.tracing_overhead_ratio": sorted(ratios)[2]}


class FleetContended(_Fleet):
    name = "fleet_contended"
    sizes = {
        "bench": {**_Fleet.bench_lattice, "clients": 2, "accesses": 6},
        "reference": {**_Fleet.reference_lattice,
                      "clients": 3, "accesses": 8},
    }

    def config(self, seed: int) -> MultiClientConfig:
        return contended_config(seed, self.size["clients"],
                                self.size["accesses"])


class FleetCrossing(_Fleet):
    name = "fleet_crossing"
    sizes = {
        "bench": {**_Fleet.bench_lattice,
                  "clients": 12, "accesses": 8, "shards": 4},
        "reference": {**_Fleet.reference_lattice,
                      "clients": 64, "accesses": 15, "shards": 8},
    }

    def config(self, seed: int) -> MultiClientConfig:
        return replace(
            steady_config(seed, self.size["clients"], self.size["accesses"]),
            cross_shard_fraction=0.1)

    def run(self, source: SyntheticSource, config: MultiClientConfig,
            span: Span) -> Any:
        with span("lon.shard", "run_sharded_session"):
            return run_sharded_session(
                source, config, n_shards=self.size["shards"], workers=1)

    def detail(self, result: Any) -> Dict[str, float]:
        agg = result.aggregate()
        return {
            "lon.shard.windows": float(agg["boundary_windows"]),
            "lon.shard.max_oversubscription":
                float(agg["boundary_max_oversubscription"]),
        }

    def reference_gate(self, unit0: Unit) -> List[Tuple[str, bool]]:
        return [
            ("BENCH_scale cross-shard 0.1 events 90031",
             unit0.work == 90031),
            ("BENCH_scale cross-shard 0.1 accesses 960",
             unit0.attempted - unit0.failed == 960),
        ]


# ----------------------------------------------------------------------
# generate_db
# ----------------------------------------------------------------------
@dataclass
class _Generator:
    volume: Any
    transfer: Any
    builder: LightFieldBuilder
    last: Any = None                   # the most recent rendered view set


class GenerateDb(Workload):
    name = "generate_db"
    work_unit = "sample views"
    sizes = {
        "bench": {"volume": 32, "lattice": (12, 24, 2), "resolution": 64},
        "reference": {"volume": 64, "lattice": (12, 24, 3),
                      "resolution": 200},
    }

    def setup(self, seed: int) -> _Generator:
        volume = neg_hip(size=self.size["volume"])
        transfer = preset("neghip")
        n_theta, n_phi, l = self.size["lattice"]
        builder = LightFieldBuilder(
            volume, transfer, CameraLattice(n_theta=n_theta, n_phi=n_phi, l=l),
            resolution=self.size["resolution"], workers=1)
        return _Generator(volume, transfer, builder)

    def unit(self, state: _Generator, seed: int, index: int,
             span: Span = _no_span) -> Unit:
        builder = state.builder
        rows, cols = builder.lattice.n_viewsets
        rng = random.Random(unit_seed(seed, index))
        key = (rng.randrange(rows), rng.randrange(cols))
        before = (builder.stats.render_seconds, builder.stats.compress_seconds)
        clock = _Clock()
        with clock, span("harness", "generate_viewset"):
            viewset = builder.render_viewset(key)
            result = builder.compress_viewset(viewset)
        state.last = viewset
        decoded, _ = codec_for_payload(result.payload).decompress(
            result.payload)
        return Unit(
            wall_s=clock.seconds, work=builder.lattice.l ** 2,
            work_s=clock.seconds, attempted=1,
            failed=0 if decoded == viewset else 1,
            digest=(key, zlib.crc32(result.payload)),
            detail={
                "lightfield.build.render_s":
                    builder.stats.render_seconds - before[0],
                "lightfield.build.compress_s":
                    builder.stats.compress_seconds - before[1],
                "lightfield.build.raw_bytes": float(result.raw_size),
                "lightfield.build.compressed_bytes":
                    float(result.compressed_size),
            },
        )

    def checks(self, state: _Generator) -> List[Tuple[str, bool]]:
        builder, viewset = state.builder, state.last
        i, j = builder.lattice.cameras_in_viewset(viewset.key)[0]
        camera = builder.camera_for(i, j)
        fast = RaycastRenderer(state.volume, state.transfer).render(camera)
        brute = RaycastRenderer(
            state.volume, state.transfer,
            RenderSettings(accelerated=False)).render(camera)
        # a novel view 0.3/0.4 of a lattice step off the view set's middle
        # camera, synthesized from that view set alone
        lattice = builder.lattice
        theta, phi = lattice.viewset_center(viewset.key)
        toward_equator = -0.3 if theta > math.pi / 2 else 0.3
        novel = orbit_camera(
            theta + toward_equator * lattice.theta_step,
            phi + 0.4 * lattice.phi_step,
            radius=1.02 * builder.spheres.r_outer,
            resolution=builder.resolution,
            fov_deg=builder.spheres.camera_fov_deg())
        synth = LightFieldSynthesizer(
            lattice, builder.spheres, builder.resolution,
            DictProvider({viewset.key: viewset})).render(novel)
        truth = RaycastRenderer(state.volume, state.transfer).render(novel)
        return [
            ("accelerated == brute on one sample view",
             bool(np.array_equal(fast, brute))),
            (f"synthesized frame >= {PSNR_FLOOR_DB} dB of direct ray casting",
             synth.coverage >= 0.999
             and psnr(synth.image, truth) >= PSNR_FLOOR_DB),
        ]

    def layer_extras(self, state: _Generator, seed: int) -> Dict[str, float]:
        renderer = RaycastRenderer(state.volume, state.transfer)
        t0 = perf_counter()
        cells = renderer.prepare()
        return {
            "volume.accel.prepare_s": perf_counter() - t0,
            "volume.accel.active_fraction": cells.active_fraction,
        }


# ----------------------------------------------------------------------
# client_playback
# ----------------------------------------------------------------------
@dataclass
class _Player:
    source: SyntheticSource
    payloads: List[Tuple[Tuple[int, int], bytes]]
    provider: DictProvider
    synthesizer: LightFieldSynthesizer
    resident: List[Tuple[int, int]] = field(default_factory=list)
    crcs: Dict[Tuple[int, int], int] = field(default_factory=dict)


class ClientPlayback(Workload):
    name = "client_playback"
    work_unit = "frames"
    sizes = {
        "bench": {"lattice": (12, 24, 6), "resolution": 200,
                  "payloads": 3, "frames": 8},
        "reference": {"lattice": (12, 24, 6), "resolution": 200,
                      "payloads": 12, "frames": 20},
    }

    def setup(self, seed: int) -> _Player:
        n_theta, n_phi, l = self.size["lattice"]
        lattice = CameraLattice(n_theta=n_theta, n_phi=n_phi, l=l)
        source = SyntheticSource(lattice, self.size["resolution"])
        keys = list(lattice.all_viewsets())
        random.Random(seed).shuffle(keys)
        keys = (keys * 2)[:self.size["payloads"]]
        payloads = [(key, source.payload(key)) for key in keys]
        provider = DictProvider({})
        synthesizer = LightFieldSynthesizer(
            lattice, source.spheres, self.size["resolution"], provider)
        return _Player(source, payloads, provider, synthesizer)

    def unit(self, state: _Player, seed: int, index: int,
             span: Span = _no_span) -> Unit:
        key, payload = state.payloads[index % len(state.payloads)]
        lattice, spheres = state.source.lattice, state.source.spheres
        frames = self.size["frames"]
        switch, playback = _Clock(), _Clock()
        with span("harness", "playback_viewset"):
            # the console switches view set: inflate, make resident (two
            # stay resident, as in the streaming client), then orbit it
            with switch:
                viewset, _ = codec_for_payload(payload).decompress(payload)
            state.provider.add(viewset)
            if key in state.resident:
                state.resident.remove(key)
            state.resident.append(key)
            while len(state.resident) > 2:
                state.provider.remove(state.resident.pop(0))
            state.synthesizer.invalidate_cache()
            rng = random.Random(unit_seed(seed, index))
            theta0, phi0 = lattice.viewset_center(key)
            reach = (lattice.l - 1) / 2.0 - 1.0   # stay inside the camera hull
            bad = 0
            checksum = 0
            for _ in range(frames):
                camera = orbit_camera(
                    theta0 + rng.uniform(-reach, reach) * lattice.theta_step,
                    phi0 + rng.uniform(-reach, reach) * lattice.phi_step,
                    radius=1.02 * spheres.r_outer,
                    resolution=self.size["resolution"],
                    fov_deg=spheres.camera_fov_deg())
                with playback:
                    frame = state.synthesizer.render(camera)
                if frame.coverage < 0.999 or not np.isfinite(
                        frame.image).all():
                    bad += 1
                checksum = zlib.crc32(frame.image.tobytes(), checksum)
        crc = zlib.crc32(viewset.images.tobytes())
        first = state.crcs.setdefault(key, crc)
        if viewset.key != key or crc != first:
            bad += 1
        return Unit(
            wall_s=switch.seconds + playback.seconds, work=frames,
            work_s=playback.seconds, attempted=1 + frames, failed=bad,
            digest=(key, crc, checksum),
            detail={
                "lightfield.compression.decompress_ms_per_viewset":
                    1e3 * switch.seconds,
            },
        )

    def checks(self, state: _Player) -> List[Tuple[str, bool]]:
        key, payload = state.payloads[0]
        decoded, _ = codec_for_payload(payload).decompress(payload)
        return [("codec round trip bit-exact against SyntheticSource.viewset",
                 decoded == state.source.viewset(key))]


WORKLOADS = {w.name: w for w in (
    BrowsePaper, FleetSteady, FleetContended, FleetCrossing, FleetTraced,
    GenerateDb, ClientPlayback,
)}
