"""Observability overhead benchmark (the disabled-tracer budget).

DESIGN.md §9 promises that the tracing layer is effectively free when off:
every instrumented hot path pays one attribute read and a no-op method call
on the shared ``NOOP_SPAN``.  This benchmark executes the builtin
``observability`` sweep spec — the identical streaming session with
tracing off and on — through the sweep engine, which quarantines both wall
clocks under ``BENCH_observability.json``'s ``wall_clock`` section, and
asserts the disabled-mode run stays within the budget of its own no-op
baseline (the untraced run *is* the baseline — the tracer parameter
defaults to the shared ``NULL_TRACER``, so there is no third
"uninstrumented" build to compare against).

The traced/untraced ratio is reported but not asserted: turning tracing on
legitimately costs span allocation and sampler events, and the number is
there so the cost stays visible in review diffs.

The spec also sweeps *fleet* tiers — sharded multi-client sessions on a
pinned rig (9x18 l=3 lattice, 48², modeled CPU) whose stitched telemetry
yields fleet QGR, demand-miss p99 and depot load skew per tier.  Those
deterministic health figures land in ``payload["fleet"]`` (guarded by
``check_regression.py --section fleet``), the per-tier traced/untraced
costs under ``wall_clock["fleet"]``.
"""

from typing import Mapping

from repro.experiments import run_sweep, spec_named


def test_observability_overhead(report):
    result = run_sweep(spec_named("observability"), workers=1)
    session = next(r for r in result.rows if "n_clients" not in r)
    wall = result.walls[result.rows.index(session)]
    lines = [
        f"Observability overhead @ {session['resolution']}², "
        f"case {session['case']}, {session['accesses']} accesses",
        f"  untraced : {wall['untraced_s'] * 1e3:9.1f} ms",
        f"  traced   : {wall['traced_s'] * 1e3:9.1f} ms "
        f"({session['spans']} spans)",
        f"  ratio    : {wall['ratio']:.3f}x",
    ]
    fleet = result.doc.get("fleet", {})
    fleet_wall = result.doc["wall_clock"].get("fleet", {})
    for key, tier in fleet.items():
        lines.append(
            f"  fleet {key:>7}: qgr {tier['qgr']:.3f}, "
            f"miss p99 {tier['demand_miss_p99_s'] * 1e3:.1f} ms, "
            f"skew {tier['load_skew_max_over_mean']:.2f}x "
            f"(gini {tier['load_skew_gini']:.3f}), "
            f"ratio {fleet_wall[key]['ratio']:.3f}x"
        )
    report("observability_overhead", "\n".join(lines))
    print(f"wrote {result.artifact_path}")

    # sanity: tracing actually recorded the session
    assert session["spans"] > 0
    # the traced run must not be catastrophically slower (an order of
    # magnitude would mean a hot path allocates spans per block, not per
    # request); the untraced run is its own baseline by construction
    assert wall["ratio"] < 10.0
    # the artifact quarantines every wall number out of the payload
    assert "wall_clock" not in session
    assert set(result.doc["wall_clock"]) == {
        "untraced_s", "traced_s", "ratio", "fleet",
    }

    # every fleet tier carries its health figures and a sane traced cost
    assert fleet, "spec must expand at least one fleet tier"
    for key, tier in fleet.items():
        assert isinstance(tier, Mapping)
        assert tier["spans"] > 0, key
        assert 0.0 <= tier["qgr"] <= 1.0, key
        assert tier["demand_miss_p99_s"] > 0.0, key
        assert tier["load_skew_max_over_mean"] >= 1.0, key
        assert 0.0 <= tier["load_skew_gini"] < 1.0, key
        assert fleet_wall[key]["ratio"] < 10.0, key
