"""Figure 10: client latency per view-set access at 300², Cases 1-3.

Paper shape: same as Figure 9 — the initial phase at 300² is still a single
access; Case 3 tracks Case 1 and Case 2 keeps paying WAN latency.
"""

from bench_fig09_latency_200 import latency_figure


def test_fig10_latency_300(benchmark, latency, report):
    by = latency_figure(latency, report, benchmark, 1, "fig10_latency_300")
    # mid resolution: initial phase still short relative to the run
    assert by[3]["initial_phase"] <= by[3]["accesses"] // 3
