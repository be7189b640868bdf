"""Figure 12: communication latency per access, log scale, three panels.

Paper: the data-access component spans four decades — agent-cache hits
~1e-4 s, LAN-depot fetches ~1e-2..1e-1 s, WAN fetches ~1 s.  The three
panels (200², 300², 500²) all show Case 1 and Case 3 collapsing onto the
hit/LAN tiers while Case 2 keeps spiking to the WAN tier.  The tier medians
are the ``comm_tiers`` table of the merged ``latency`` sweep.
"""

from repro.experiments import PAPER, execute_run, format_series
from repro.experiments.report import comm_tier_table


def test_fig12_comm_latency(benchmark, latency, report):
    parts = [comm_tier_table(latency.doc)]
    for r in sorted(latency.rows, key=lambda r: (r["resolution"], r["case"])):
        # log-scale friendly: floor at the hit tier
        parts.append(format_series(
            f"comm s (log-ready) {r['case']} @ {r['resolution']}",
            [max(v, PAPER.tier_hit) for v in r["comm_s"]], fmt="{:.5f}",
        ))
    report("fig12_comm_latency", "\n\n".join(parts))

    # the decades must separate cleanly, as in the paper's log plots
    tiers = latency.doc["comm_tiers"]
    for t in tiers:
        if t["hit_s"] and t["wan_s"]:
            assert t["wan_s"] / t["hit_s"] > 100, (
                f"hit/WAN tiers too close at {t['resolution']}")
        if t["hit_s"] and t["lan_depot_s"]:
            assert t["hit_s"] < t["lan_depot_s"]
        if t["hit_s"]:
            assert t["hit_s"] < 0.001
    # full ordering where staging finishes within an access or two (the
    # lowest resolution).  At the top resolution Case 3's few LAN-depot
    # accesses all fall inside its initial phase, while staging still
    # contends for the WAN path, so that tier's median is WAN-class there
    # (EXPERIMENTS.md, Figure 12) — the Section 4.3 contention observation.
    low = tiers[0]
    if low["hit_s"] and low["lan_depot_s"] and low["wan_s"]:
        assert low["hit_s"] < low["lan_depot_s"] < low["wan_s"], (
            f"tier ordering broken at {low['resolution']}")

    # representative kernel: the lowest-resolution Case-2 session again
    run = next(r for r in latency.runs if r.point["case"] == 2)
    benchmark.pedantic(lambda: execute_run(run.scenario, run.params),
                       rounds=1, iterations=1)
