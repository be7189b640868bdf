"""Command-line interface: build, inspect, render and stream light fields.

Usage (``python -m repro <command>``):

* ``build``    — ray-cast a light field database from a synthetic or raw
  volume and save it to a directory;
* ``info``     — size/compression accounting of a saved database (Figure 7
  at your scale);
* ``render``   — synthesize a novel view from a saved database into a PPM;
* ``session``  — run a streaming Case 1/2/3 experiment and print the
  summary table (``--trace out.json`` saves a Chrome/Perfetto trace);
* ``multiclient`` — run N concurrent browsing clients against one shared
  depot fleet and report per-client + fleet metrics and sim throughput
  (``--trace out.json`` stitches sharded runs into one merged trace);
* ``fleet-report`` — traced sharded fleet run rendered as a fleet table
  (QGR, demand-miss p50/p99, misses), a per-depot load table (bytes
  served, share, queue peak) and the load skew, with optional fault
  injection and flight-recorder dumps;
* ``trace-report`` — per-access waterfall + per-stage latency table from a
  saved trace file;
* ``sweep``    — the declarative experiment engine: ``sweep list`` shows
  the builtin specs, ``sweep run``/``resume`` execute one across worker
  processes with per-run checkpoints, ``sweep report`` renders merged
  BENCH artifacts as a markdown report with paper-vs-measured tables and
  claim verdicts, and exits 1 if a claim does not hold.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

__all__ = ["main"]


def _volume_from_args(args):
    from .volume import gaussian_blobs, hydrogen_orbital, neg_hip, vortex
    from .volume.io import read_raw

    if args.raw is not None:
        if args.shape is None:
            raise SystemExit("--raw needs --shape NX,NY,NZ")
        shape = tuple(int(x) for x in args.shape.split(","))
        if len(shape) != 3:
            raise SystemExit("--shape must be NX,NY,NZ")
        try:
            return read_raw(args.raw, shape=shape, dtype=args.dtype)
        except ValueError as exc:
            raise SystemExit(f"--raw: {exc}") from None
    factories = {
        "neghip": neg_hip,
        "blobs": gaussian_blobs,
        "vortex": vortex,
        "hydrogen": hydrogen_orbital,
    }
    return factories[args.volume](size=args.size)


# argparse types: a bad value exits 2 with one ``argument --flag:`` line
def _lattice(text: str):
    """``n_theta x n_phi x l`` as a camera lattice."""
    from .lightfield import CameraLattice

    try:
        nt, np_, l = (int(x) for x in text.split("x"))
        return CameraLattice(n_theta=nt, n_phi=np_, l=l)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _cases(text: str) -> List[int]:
    """Comma-separated paper cases, each 1, 2 or 3."""
    cases = [c.strip() for c in text.split(",")]
    if not all(c in ("1", "2", "3") for c in cases):
        raise argparse.ArgumentTypeError(
            f"cases are 1, 2 or 3, not {text!r}")
    return [int(c) for c in cases]


def _at_least_one(text: str) -> int:
    """A count of 1 or more (clients, shards, workers, accesses)."""
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(
            f"needs an integer of at least 1, not {text!r}")
    return int(text)


def _database(text: str):
    """A saved light-field database directory, loaded."""
    from .lightfield import DatabaseError, LightFieldDatabase

    try:
        return LightFieldDatabase.load(text)
    except DatabaseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _spec_name(text: str) -> str:
    """The name of a builtin sweep spec."""
    from .experiments import builtin_specs

    names = sorted(builtin_specs())
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"unknown sweep spec {text!r}; builtin specs: {', '.join(names)}")
    return text


def cmd_build(args) -> int:
    from .lightfield import LightFieldBuilder
    from .render.raycast import RenderSettings
    from .volume import preset

    volume = _volume_from_args(args)
    lattice = args.lattice
    builder = LightFieldBuilder(
        volume,
        preset(args.transfer),
        lattice,
        resolution=args.resolution,
        workers=args.workers,
        settings=RenderSettings(shaded=not args.unshaded),
    )
    print(f"building {lattice.n_viewsets} view sets at "
          f"{args.resolution}x{args.resolution} ...", flush=True)
    db = builder.build()
    db.save(args.out)
    stats = builder.stats
    print(f"rendered {stats.views_rendered} views in "
          f"{stats.total_seconds:.1f} s")
    print(f"raw {db.raw_size() / 1e6:.1f} MB -> compressed "
          f"{db.compressed_size() / 1e6:.1f} MB "
          f"(ratio {db.compression_ratio():.2f}x)")
    print(f"saved to {args.out}")
    return 0


def cmd_info(args) -> int:
    db = args.db
    rows, cols = db.lattice.n_viewsets
    print(f"database    : {db.name}")
    print(f"lattice     : {db.lattice.n_theta} x {db.lattice.n_phi} "
          f"(l={db.lattice.l}; {rows} x {cols} view sets)")
    print(f"resolution  : {db.resolution} x {db.resolution}")
    print(f"spheres     : r_inner={db.spheres.r_inner:.3f} "
          f"r_outer={db.spheres.r_outer:.3f}")
    print(f"view sets   : {len(db)} "
          f"({'complete' if db.is_complete() else 'partial'})")
    print(f"raw         : {db.raw_size() / 1e6:.2f} MB")
    print(f"compressed  : {db.compressed_size() / 1e6:.2f} MB "
          f"(ratio {db.compression_ratio():.2f}x)")
    return 0


def cmd_render(args) -> int:
    from .lightfield import DictProvider, LightFieldSynthesizer
    from .render.camera import orbit_camera
    from .render.image import save_ppm

    db = args.db
    provider = DictProvider({k: db.get_viewset(k) for k in db.keys()})
    synth = LightFieldSynthesizer(
        db.lattice, db.spheres, db.resolution, provider,
        interpolation=args.interpolation,
    )
    cam = orbit_camera(
        np.radians(args.theta),
        np.radians(args.phi),
        radius=db.spheres.r_outer * args.distance,
        resolution=args.size,
        fov_deg=db.spheres.camera_fov_deg() / args.distance,
    )
    result = synth.render(cam)
    save_ppm(args.out, result.image)
    print(f"rendered {args.size}x{args.size} view at theta={args.theta} "
          f"phi={args.phi} (coverage {result.coverage:.2f}) -> {args.out}")
    return 0


def cmd_session(args) -> int:
    from .experiments import md_table
    from .lightfield import SyntheticSource
    from .obs import write_chrome_trace
    from .streaming import SessionConfig, run_session

    source = SyntheticSource(args.lattice, resolution=args.resolution)
    rows = []
    cases = args.cases
    tracing = args.trace is not None
    for case in cases:
        m = run_session(
            source,
            SessionConfig(case=case, n_accesses=args.accesses,
                          trace_seed=args.seed, tracing=tracing),
        )
        s = m.summary()
        rows.append([f"case {case}", s["accesses"], s["hit_rate"],
                     s["wan_rate"], s["initial_phase"], s["mean_latency_s"],
                     s["steady_latency_s"]])
        if tracing and m.tracer is not None:
            out = args.trace
            if len(cases) > 1:
                out = out.with_name(
                    f"{out.stem}-case{case}{out.suffix or '.json'}"
                )
            n = write_chrome_trace(m.tracer, out)
            print(f"case {case}: wrote {n} trace events -> {out}")
    print(md_table(
        headers=["case", "accesses", "hit rate", "wan rate",
                 "initial phase", "mean s", "steady s"],
        rows=rows,
    ))
    return 0


def cmd_multiclient(args) -> int:
    from .experiments import md_table
    from .lightfield import SyntheticSource
    from .streaming import (
        MultiClientConfig,
        SessionConfig,
        run_multiclient_session,
    )

    source = SyntheticSource(args.lattice, resolution=args.resolution)
    tracing = args.trace is not None
    config = MultiClientConfig(
        base=SessionConfig(
            case=args.case,
            n_accesses=args.accesses,
            trace_seed=args.seed,
            tracing=tracing,
        ),
        n_clients=args.clients,
        seed_stride=args.seed_stride,
        start_stagger=args.stagger,
    )
    if args.shards > 1:
        from .lon.shard import run_sharded_session

        sharded = run_sharded_session(
            source, config, n_shards=args.shards,
            workers=args.shard_workers, window=args.shard_window,
        )
        per_client = sharded.per_client
        agg = sharded.aggregate()
        if tracing:
            n = sharded.stitched().write_chrome(args.trace)
            print(f"wrote {n} merged trace events "
                  f"({args.shards} shards) -> {args.trace}")
    else:
        from .obs import write_chrome_trace

        rigs = []
        result = run_multiclient_session(
            source, config, rig_hook=rigs.append if tracing else None,
        )
        per_client = result.per_client
        agg = result.aggregate()
        if tracing and rigs and rigs[0].tracer is not None:
            n = write_chrome_trace(rigs[0].tracer, args.trace)
            print(f"wrote {n} trace events -> {args.trace}")
    rows = []
    for m in per_client:
        s = m.summary()
        rows.append([s["case"], s["accesses"], s["hit_rate"], s["wan_rate"],
                     s["mean_latency_s"]])
    print(md_table(
        headers=["client", "accesses", "hit rate", "wan rate", "mean s"],
        rows=rows,
    ))
    print(f"\n{agg['n_clients']} clients, {agg['accesses']} accesses"
          + (f", fleet mean latency {agg['mean_latency']} s"
             if 'mean_latency' in agg else ""))
    shard_note = (f", {agg['n_shards']} shards x {agg['workers']} workers"
                  if 'n_shards' in agg else "")
    print(f"simulated {agg['sim_seconds']} s in {agg['wall_seconds']} s wall "
          f"({agg['events_fired']} events, "
          f"{agg['events_per_second']:.0f} events/s"
          + shard_note + ")")
    return 0


def cmd_trace_report(args) -> int:
    from .obs import trace_report

    try:
        text = trace_report(str(args.trace), max_accesses=args.accesses,
                            waterfall=not args.no_waterfall)
    except ValueError as exc:
        raise SystemExit(f"trace-report: {exc}") from None
    print(text)
    return 0


def cmd_fleet_report(args) -> int:
    from .experiments import md_table
    from .lightfield import SyntheticSource
    from .lon.shard import FaultSpec, run_sharded_session
    from .obs import fleet_health
    from .streaming import MultiClientConfig, SessionConfig

    source = SyntheticSource(args.lattice, resolution=args.resolution)
    config = MultiClientConfig(
        base=SessionConfig(
            case=args.case,
            n_accesses=args.accesses,
            trace_seed=args.seed,
            tracing=True,
        ),
        n_clients=args.clients,
        seed_stride=args.seed_stride,
        start_stagger=args.stagger,
    )
    faults: Optional[List[FaultSpec]] = None
    if args.outage_depot is not None:
        fault: FaultSpec = {
            "kind": "depot-outage",
            "depot": args.outage_depot,
            "start": args.outage_start,
            "duration": args.outage_duration,
        }
        if args.outage_shard is not None:
            fault["shard"] = args.outage_shard
        faults = [fault]
    sharded = run_sharded_session(
        source, config, n_shards=args.shards,
        workers=args.shard_workers, window=args.shard_window,
        faults=faults,
        flight_dir=str(args.flight_dir) if args.flight_dir else None,
    )
    fh = fleet_health(sharded)
    agg = sharded.aggregate()

    print("# fleet report\n")
    print(md_table(
        headers=["clients", "shards", "accesses", "QGR",
                 "miss p50 s", "miss p99 s", "misses"],
        rows=[[fh.n_clients, len(sharded.shards), fh.accesses,
               round(fh.qgr, 4), round(fh.demand_miss_p50_s, 6),
               round(fh.demand_miss_p99_s, 6), fh.misses]],
    ))
    print(f"\nsimulated {agg['sim_seconds']} s in {agg['wall_seconds']} s "
          f"wall ({agg['events_fired']} events, "
          f"{agg['events_per_second']:.0f} events/s)")

    print("\n## depot load\n")
    total = sum(d.bytes_served for d in fh.depots) or 1.0
    print(md_table(
        headers=["depot", "bytes served", "share", "queue peak"],
        rows=[[d.name, int(d.bytes_served),
               f"{d.bytes_served / total:.1%}", int(d.queue_depth_peak)]
              for d in fh.depots],
    ))
    print(f"\nload skew: max/mean {fh.load_skew_max_over_mean:.3f}, "
          f"gini {fh.load_skew_gini:.3f}")

    if args.trace is not None:
        n = sharded.stitched().write_chrome(args.trace)
        print(f"\nwrote {n} merged trace events -> {args.trace}")
    if sharded.flight_dumps:
        print("\nflight dumps:")
        for p in sharded.flight_dumps:
            print(f"  {p}")
    return 0


def _sweep_spec(args):
    from .experiments import load_spec_file, spec_named

    if args.spec_file is None and args.spec is None:
        raise SystemExit(
            "sweep run/resume needs a builtin spec name or --spec-file "
            "(see `python -m repro sweep list`)"
        )
    spec = (load_spec_file(args.spec_file) if args.spec_file is not None
            else spec_named(args.spec))
    if args.seeds:
        spec = spec.with_overrides(
            seeds=[int(s) for s in args.seeds.split(",")]
        )
    return spec


def cmd_sweep_list(args) -> int:
    from .experiments import builtin_specs, md_table

    rows = []
    for name, spec in sorted(builtin_specs().items()):
        runs = spec.expand()
        rows.append([
            name, len(runs),
            f"BENCH_{spec.artifact}.json" if spec.artifact else "-",
            spec.title or "-",
        ])
    print(md_table(
        headers=["spec", "runs", "artifact", "title"], rows=rows,
    ))
    return 0


def cmd_sweep_run(args, resume: bool = False) -> int:
    from .experiments import run_sweep

    spec = _sweep_spec(args)
    checkpoint_dir = args.checkpoint_dir
    if resume and checkpoint_dir is None:
        raise SystemExit("sweep resume requires --checkpoint-dir")
    result = run_sweep(
        spec,
        workers=args.workers,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        out_dir=args.out_dir,
        write_artifact=not args.no_artifact,
        progress=print,
    )
    print(f"{spec.name}: {len(result.rows)} rows "
          f"({result.reused} reused, {result.executed} executed); "
          f"payload fingerprint {result.payload_fingerprint[:16]}")
    if result.artifact_path is not None:
        print(f"artifact: {result.artifact_path}")
    return 0


def cmd_sweep_resume(args) -> int:
    return cmd_sweep_run(args, resume=True)


def cmd_sweep_report(args) -> int:
    from .experiments import bench_path, builtin_specs, render_report

    if args.artifacts is None:
        names = [s.artifact for s in builtin_specs().values() if s.artifact]
    else:
        names = [n.strip() for n in args.artifacts.split(",") if n.strip()]
        missing = [n for n in names
                   if not bench_path(n, args.out_dir).is_file()]
        if missing or not names:
            raise SystemExit(
                "sweep report: no BENCH artifact on disk for "
                f"{', '.join(missing) or repr(args.artifacts)}")
    text, failed = render_report(names, out_dir=args.out_dir)
    if args.out is not None:
        args.out.write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    if failed:
        print(f"claims that do not hold: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument grammar (exposed for tests)."""
    from .streaming.session import N_LAN_DEPOTS, N_WAN_DEPOTS

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="ray-cast a light field database")
    b.add_argument("--volume", default="neghip",
                   choices=["neghip", "blobs", "vortex", "hydrogen"])
    b.add_argument("--raw", type=Path, default=None,
                   help="raw volume brick instead of a synthetic volume")
    b.add_argument("--shape", default=None, help="NX,NY,NZ for --raw")
    b.add_argument("--dtype", default="uint8", help="dtype for --raw")
    b.add_argument("--size", type=int, default=32,
                   help="synthetic volume size per axis")
    b.add_argument("--transfer", default="neghip")
    b.add_argument("--lattice", type=_lattice, default="12x24x3",
                   help="n_theta x n_phi x l (paper: 72x144x6)")
    b.add_argument("--resolution", type=int, default=64)
    b.add_argument("--workers", type=_at_least_one, default=1)
    b.add_argument("--unshaded", action="store_true")
    b.add_argument("--out", type=Path, required=True)
    b.set_defaults(func=cmd_build)

    i = sub.add_parser("info", help="inspect a saved database")
    i.add_argument("--db", type=_database, required=True)
    i.set_defaults(func=cmd_info)

    r = sub.add_parser("render", help="synthesize a novel view to PPM")
    r.add_argument("--db", type=_database, required=True)
    r.add_argument("--theta", type=float, default=90.0,
                   help="polar angle in degrees")
    r.add_argument("--phi", type=float, default=0.0,
                   help="azimuth in degrees")
    r.add_argument("--distance", type=float, default=2.0,
                   help="camera radius as a multiple of r_outer")
    r.add_argument("--size", type=int, default=256,
                   help="output image resolution")
    r.add_argument("--interpolation", default="quadrilinear",
                   choices=["quadrilinear", "uv-nearest", "nearest"])
    r.add_argument("--out", type=Path, required=True)
    r.set_defaults(func=cmd_render)

    s = sub.add_parser("session", help="run a streaming experiment")
    s.add_argument("--cases", type=_cases, default="1,2,3")
    s.add_argument("--resolution", type=int, default=100)
    s.add_argument("--accesses", type=_at_least_one, default=20)
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--lattice", type=_lattice, default="12x24x3")
    s.add_argument("--trace", type=Path, default=None,
                   help="run with tracing on and save a Chrome trace JSON "
                        "(per-case suffix added when multiple cases run)")
    s.set_defaults(func=cmd_session)

    mc = sub.add_parser(
        "multiclient",
        help="run N concurrent browsing clients on one shared depot fleet",
    )
    mc.add_argument("--clients", type=_at_least_one, default=8)
    mc.add_argument("--case", type=int, default=3, choices=[1, 2, 3])
    mc.add_argument("--resolution", type=int, default=100)
    mc.add_argument("--accesses", type=_at_least_one, default=20,
                    help="view-set accesses per client")
    mc.add_argument("--seed", type=int, default=7)
    mc.add_argument("--seed-stride", type=int, default=101,
                    help="per-client trace-seed offset (0 = same path)")
    mc.add_argument("--stagger", type=float, default=1.0,
                    help="per-client start delay in seconds")
    mc.add_argument("--lattice", type=_lattice, default="12x24x3")
    mc.add_argument("--shards", type=_at_least_one, default=1,
                    help="partition the fleet into N independent shards "
                         "(clients pinned to per-shard depot groups); "
                         ">1 runs one worker process per shard")
    mc.add_argument("--shard-workers", type=_at_least_one, default=None,
                    help="1 = sequential, otherwise one process per shard "
                         "(the default)")
    mc.add_argument("--shard-window", type=float, default=30.0,
                    help="conservative sync window in simulated seconds")
    mc.add_argument("--trace", type=Path, default=None,
                    help="run with tracing on and save a Chrome trace JSON; "
                         "sharded runs stitch every worker's telemetry "
                         "into one merged artifact")
    mc.set_defaults(func=cmd_multiclient)

    fr = sub.add_parser(
        "fleet-report",
        help="traced sharded fleet run -> QGR, demand-miss tail latency "
             "and depot load skew (markdown)",
    )
    fr.add_argument("--clients", type=_at_least_one, default=8)
    fr.add_argument("--shards", type=_at_least_one, default=2)
    fr.add_argument("--shard-workers", type=_at_least_one, default=1,
                    help="1 = sequential (the default), otherwise one "
                         "process per shard")
    fr.add_argument("--shard-window", type=float, default=30.0)
    fr.add_argument("--case", type=int, default=3, choices=[1, 2, 3])
    fr.add_argument("--resolution", type=int, default=48)
    fr.add_argument("--accesses", type=_at_least_one, default=10,
                    help="view-set accesses per client")
    fr.add_argument("--seed", type=int, default=7)
    fr.add_argument("--seed-stride", type=int, default=101)
    fr.add_argument("--stagger", type=float, default=1.0)
    fr.add_argument("--lattice", type=_lattice, default="9x18x3")
    fr.add_argument("--trace", type=Path, default=None,
                    help="also write the merged Chrome/Perfetto trace here")
    fr.add_argument("--flight-dir", type=Path, default=None,
                    help="directory for flight-recorder dumps")
    fr.add_argument("--outage-depot", default=None,
                    choices=[f"lan-depot-{i}" for i in range(N_LAN_DEPOTS)]
                    + [f"ca-depot-{i}" for i in range(N_WAN_DEPOTS)],
                    help="inject a depot outage")
    fr.add_argument("--outage-start", type=float, default=10.0,
                    help="outage onset in simulated seconds")
    fr.add_argument("--outage-duration", type=float, default=5.0)
    fr.add_argument("--outage-shard", type=int, default=None,
                    help="restrict the outage to one shard id")
    fr.set_defaults(func=cmd_fleet_report)

    t = sub.add_parser(
        "trace-report",
        help="render a saved trace as waterfall + stage-latency tables",
    )
    t.add_argument("trace", type=Path, help="Chrome trace JSON (--trace output)")
    t.add_argument("--accesses", type=int, default=10,
                   help="waterfall rows to show (use a big number for all)")
    t.add_argument("--no-waterfall", action="store_true",
                   help="print only the per-stage breakdown table")
    t.set_defaults(func=cmd_trace_report)

    sw = sub.add_parser(
        "sweep",
        help="declarative experiment sweeps: run, resume, report",
    )
    swsub = sw.add_subparsers(dest="sweep_command", required=True)

    sl = swsub.add_parser("list", help="list the builtin sweep specs")
    sl.set_defaults(func=cmd_sweep_list)

    def _run_args(p):
        p.add_argument("spec", nargs="?", type=_spec_name, default=None,
                       help="builtin spec name (see `sweep list`)")
        p.add_argument("--spec-file", type=Path, default=None,
                       help="load the spec from a TOML/JSON file instead")
        p.add_argument("--workers", type=_at_least_one, default=1,
                       help="worker processes (1 = in-process)")
        p.add_argument("--checkpoint-dir", type=Path, default=None,
                       help="directory for per-run checkpoint records")
        p.add_argument("--out-dir", type=Path, default=None,
                       help="where BENCH_<artifact>.json lands "
                            "(default: repo root)")
        p.add_argument("--seeds", default=None,
                       help="comma-separated seed override")
        p.add_argument("--no-artifact", action="store_true",
                       help="skip writing the BENCH artifact")

    sr = swsub.add_parser("run", help="execute a sweep from scratch")
    _run_args(sr)
    sr.set_defaults(func=cmd_sweep_run)

    sre = swsub.add_parser(
        "resume",
        help="reuse valid checkpoint records, execute only missing runs",
    )
    _run_args(sre)
    sre.set_defaults(func=cmd_sweep_resume)

    srep = swsub.add_parser(
        "report", help="render merged BENCH artifacts as markdown",
    )
    srep.add_argument("--artifacts", default=None,
                      help="comma-separated artifact stems "
                           "(default: every builtin spec's artifact)")
    srep.add_argument("--out-dir", type=Path, default=None,
                      help="directory holding the BENCH files "
                           "(default: repo root)")
    srep.add_argument("--out", type=Path, default=None,
                      help="write the report here instead of stdout")
    srep.set_defaults(func=cmd_sweep_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
