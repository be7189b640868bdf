"""Simulation-core scaling benchmark: N clients, a contended rig, shards.

Every flow arrival/departure/pause is a rebalance trigger; the network's
incremental rebalancer bounds each one to the affected link/flow component,
coalesces same-instant triggers, hands the component to the rate kernel
(``repro.lon.rates``: loop fill below 24 flows, numpy fill from there up —
timed on its own by ``bench_rate_kernel.py``), epsilon-gates event
rescheduling — and, in the window-capped steady state the scaling ladder
lives in, skips the flush entirely (``fast_rated``).

The four regimes — **scaling** (fleet-size ladder), **contended** (a thin
40 Mb/s WAN with big windows, lighting up the flush/coalesce/vectorize
machinery and the array admission path), **sharded** (the fleet partitioned
into independent depot groups) and **cross_shard** (0/10/30 % of clients
routed over the shared backbone) — are declared as points of the builtin
``scale`` sweep spec; this file executes that spec through the sweep
engine (sequentially, so the quarantined per-run wall clocks stay honest)
and asserts on the merged ``BENCH_scale.json``:

* every fleet size delivers every access, and every trigger either flushed
  a dirty component or was absorbed by the quiet-link fast path;
* the contended regime exercises the vectorized fill, trigger coalescing
  and batched admission (all counters > 0), and its row carries the three
  counters that explain its cost (``component_flows``, ``flows_rerated``,
  ``events_rescheduled``: flows per flush, drain checks armed per fired
  event — at most one, or per-member re-arming is back);
* sharding and crossing preserve the workload, and crossing traffic costs
  at most 1.5x the link-disjoint CPU seconds;
* the sharded curve reaches 100k events/s — or, on hosts too slow for
  the absolute bar, >= 3x the single-shard throughput — at >= 4 shards.

Deterministic counters live in the payload; host timings live under
``wall_clock`` (CI guards the throughput keys against >25% regressions).

Run ``python benchmarks/bench_text_multiclient.py --profile`` for a
cProfile breakdown (top cumulative functions) of the largest
single-process run.
"""

import os

from repro.experiments import run_sweep, spec_named

_SMALL = os.environ.get("REPRO_SCALE", "default") == "small"


def test_multiclient_scaling(report):
    result = run_sweep(spec_named("scale"), workers=1)
    doc = result.doc
    wall = doc["wall_clock"]
    print(f"wrote {result.artifact_path}")

    scaling = {r["n_clients"]: r for r in result.rows
               if r["regime"] == "scaling"}
    contended = next(r for r in result.rows if r["regime"] == "contended")
    sharded = [r for r in result.rows if r["regime"] == "sharded"]
    cross = {str(r["cross_fraction"]): r for r in result.rows
             if r["regime"] == "cross_shard"}
    client_counts = doc["client_counts"]
    n_max = client_counts[-1]
    wall_runs = wall["runs"]

    # --- report ----------------------------------------------------------
    lines = [
        f"Multi-client scaling (case 3, {'small' if _SMALL else 'full'} "
        f"scale, {len(client_counts)} fleet sizes)",
        f"{'N':>4} {'wall s':>9} {'events':>9} {'events/s':>10}",
    ]
    for n in client_counts:
        w = wall_runs[str(n)]
        lines.append(
            f"{n:>4} {w['wall_s']:>9.4f} {scaling[n]['events_fired']:>9} "
            f"{w['events_per_second']:>10.0f}"
        )
    lines.append("")
    st = doc["contended"]
    w = wall["contended"][str(st["n_clients"])]
    lines.append(f"Contended regime ({st['n_clients']} "
                 "clients, 40 Mb/s WAN, 256 KiB windows, 2 KiB blocks):")
    lines.append(
        f"  wall={w['wall_s']:.4f}s ev/s={w['events_per_second']:.0f} "
        f"recomputes={st['recomputes']} "
        f"vectorized={st['vectorized']} coalesced={st['coalesced']} "
        f"flows/flush={st['component_flows'] / st['recomputes']:.1f} "
        f"armed/event="
        f"{st['events_rescheduled'] / st['events_fired']:.2f} "
        f"adm_batches={st['admission_batches_flushed']} "
        f"adm_coalesced={st['admission_submissions_coalesced']} "
        f"adm_scalar={st['admission_scalar_fallbacks']}"
    )
    lines.append("")
    xs = doc["cross_shard"]
    lines.append(
        f"Cross-shard traffic ({xs['n_clients']} clients, "
        f"{xs['n_shards']} shards, backbone boundary link):")
    lines.append(f"{'frac':>6} {'events':>9} {'cpu s':>8} {'events/s':>10} "
                 f"{'windows':>8} {'oversub':>8}")
    for frac in map(str, xs["fractions"]):
        r = xs["runs"][frac]
        w = wall["cross_shard"][frac]
        lines.append(
            f"{frac:>6} {r['events_fired']:>9} {w['cpu_s']:>8.3f} "
            f"{w['events_per_second']:>10.0f} "
            f"{r.get('boundary_windows', 0):>8} "
            f"{r.get('boundary_max_oversubscription', 0.0):>8.3f}"
        )
    lines.append("")
    lines.append(f"Sharded fleet ({n_max} clients, sequential workers):")
    lines.append(f"{'S':>4} {'events':>9} {'makespan s':>11} {'cpu s':>8} "
                 f"{'events/s':>10} {'ev/s-core':>10}")
    for row in sharded:
        w = wall["sharded"][str(row["n_shards"])]
        lines.append(
            f"{row['n_shards']:>4} {row['events_fired']:>9} "
            f"{w['makespan_s']:>11.4f} {w['cpu_s']:>8.3f} "
            f"{w['events_per_second']:>10.0f} "
            f"{w['events_per_core_second']:>10.0f}"
        )
    report("multiclient_scaling", "\n".join(lines))

    # --- assertions -------------------------------------------------------
    for n in client_counts:
        row = scaling[n]
        # every client delivered its whole trace, and every trigger either
        # flushed a dirty component or was absorbed by the quiet fast path
        assert len(set(row["per_client_accesses"])) == 1
        assert row["recomputes"] + row["fast_rated"] > 0

    # contended regime proves the optimized paths are live, not dead code
    assert contended["vectorized"] > 0, "vectorized water-fill is dead"
    assert contended["coalesced"] > 0, "trigger coalescing is dead"
    assert contended["admission_batches_flushed"] > 0, (
        "admission batching is dead")
    assert contended["admission_submissions_coalesced"] > 0
    # ... and the row explains its own cost
    assert doc["contended"]["component_flows"] > 0
    # exact and noise-free: a flush arms one drain check per calendar, so
    # fewer get armed than events fire; one per flushed member would not be
    assert (0 < doc["contended"]["events_rescheduled"]
            <= doc["contended"]["events_fired"])

    # cross-shard axis: every fraction still delivers the whole workload;
    # crossing fractions exchanged boundary loads at the barrier
    for frac, row in cross.items():
        assert row["accesses"] == scaling[n_max]["accesses"]
        if float(frac) > 0.0:
            assert row.get("boundary_windows", 0) > 0, (
                f"{frac}: boundary exchange never ran")
            assert row["boundary_staleness_bound"] > 0.0
        else:
            assert "boundary_windows" not in row
    # ... and costs CPU in proportion to its work: the lockstep driver
    # interleaves shards, and per-shard walls must not count the siblings
    disjoint_cpu = wall["cross_shard"]["0.0"]["cpu_s"]
    for frac, w in wall["cross_shard"].items():
        assert w["cpu_s"] <= 1.5 * disjoint_cpu + 0.05, (
            f"cross-shard {frac}: cpu {w['cpu_s']:.3f}s vs "
            f"{disjoint_cpu:.3f}s link-disjoint")

    # sharding preserves the workload (every access delivered) ...
    for row in sharded:
        assert row["accesses"] == scaling[n_max]["accesses"]

    if not _SMALL:
        # ... and scales throughput: at >= 4 shards the fleet clears 100k
        # events/s, or on hosts too slow for the absolute bar, >= 3x the
        # single-shard rate
        shard_eps = wall["sharded"]
        base_eps = shard_eps["1"]["events_per_second"]
        best_eps = max(v["events_per_second"]
                       for s, v in shard_eps.items() if int(s) >= 4)
        assert best_eps >= 100_000 or best_eps >= 3.0 * base_eps, (
            f"sharded throughput peaked at {best_eps:.0f} events/s "
            f"(single-shard {base_eps:.0f}); expected >= 100k or >= 3x"
        )


def _profile_main(argv=None):
    """``--profile``: cProfile the largest single-process scaling run."""
    import argparse
    import cProfile
    import pstats

    from repro.experiments.scenarios import _scale_config, _scale_source
    from repro.streaming import run_multiclient_session

    counts = [1, 4, 8] if _SMALL else [1, 8, 32, 64]
    parser = argparse.ArgumentParser(
        description="profile the multi-client scaling workload")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print hot functions")
    parser.add_argument("--top", type=int, default=25,
                        help="rows of the cumulative-time table to print")
    parser.add_argument("--clients", type=int, default=counts[-1])
    parser.add_argument("--regime", default="scaling",
                        choices=["scaling", "contended"])
    args = parser.parse_args(argv)
    if not args.profile:
        parser.error("this entry point only supports --profile; "
                     "run the benchmark itself via pytest")

    source = _scale_source()
    config = _scale_config(args.regime, args.clients, seed=7)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_multiclient_session(source, config)
    profiler.disable()
    adm = result.admission
    print(f"{args.clients} clients / {args.regime}: "
          f"{result.events_fired} events in {result.wall_seconds:.3f}s "
          f"({result.events_per_second:.0f} events/s)")
    print(f"admission: batches_flushed={adm['batches_flushed']} "
          f"submissions_coalesced={adm['submissions_coalesced']} "
          f"scalar_fallbacks={adm['scalar_fallbacks']}\n")
    stats = pstats.Stats(profiler)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(_profile_main())
