"""Figure 11: client latency per view-set access at 500², Cases 1-3.

Paper shape: the 500² initial phase is dramatically longer (33 of 58
accesses) because staging the larger view sets cannot outrun the cursor;
during that phase Case 3's latency is WAN-comparable (staging contends with
foreground fetches — the Section 4.3 observation), after it the WAN
disappears from the access stream.
"""

import os

from bench_fig09_latency_200 import latency_figure

_SMALL = os.environ.get("REPRO_SCALE", "default") == "small"


def test_fig11_latency_500(benchmark, latency, report):
    by = latency_figure(latency, report, benchmark, 2, "fig11_latency_500")
    # the top-resolution initial phase must be much longer than at the
    # lowest resolution (paper: 33 accesses vs 1); at smoke scale the
    # payloads are too small for the contrast to appear
    lowest = latency.spec.axes["resolution"][0]
    low = next(r["initial_phase"] for r in latency.rows
               if r["case"] == "case3" and r["resolution"] == lowest)
    high = by[3]["initial_phase"]
    if _SMALL:
        assert high >= low
    else:
        assert high > low
        assert high >= 5
