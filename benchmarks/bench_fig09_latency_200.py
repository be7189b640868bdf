"""Figure 9: client latency per view-set access at 200², Cases 1-3.

Paper shape: Case 2 (data in WAN) pays ~0.5-2.5 s repeatedly; Cases 1 and 3
are indistinguishable after an initial phase of about one access — the LAN
depot makes remote browsing feel local at low resolution.

Figures 9-11 read the session-scoped ``latency`` sweep (see
``conftest.py``); the two helpers here are shared with Figures 10 and 11.
"""

from repro.experiments import execute_run, format_series
from repro.experiments.report import latency_table


def latency_figure(latency, report, benchmark, index, name):
    """Report one resolution's series, assert the paper's shape, time the
    Case-3 session; returns ``{case: row}`` for figure-specific checks."""
    resolution = latency.spec.axes["resolution"][index]
    by = {int(r["case"][-1]): r for r in latency.rows
          if r["resolution"] == resolution}
    report(name, "\n\n".join(
        [format_series(f"case {case} latency s @ {resolution}",
                       by[case]["latency_s"]) for case in (1, 2, 3)]
        + [latency_table(latency.doc, resolution)]
    ))

    c1, c2, c3 = by[1], by[2], by[3]
    # Case 1 is the ideal: never touches the WAN
    assert c1["wan_rate"] == 0.0
    # Case 2 keeps paying WAN latency
    assert c2["wan_rate"] > 0.0
    assert c2["mean_latency_s"] > c1["mean_latency_s"]
    # Case 3 ends its initial phase before the trace ends and then matches
    # local browsing
    assert c3["initial_phase"] < c3["accesses"]
    steady1 = sum(c1["latency_s"][1:]) / (len(c1["latency_s"]) - 1)
    assert c3["steady_latency_s"] < max(5 * steady1, steady1 + 0.25)

    # representative kernel: this resolution's Case-3 session again
    run = next(r for r in latency.runs
               if r.point == {"case": 3, "resolution": resolution})
    row = benchmark.pedantic(lambda: execute_run(run.scenario, run.params),
                             rounds=1, iterations=1)
    assert row["accesses"] > 0
    return by


def test_fig09_latency_200(benchmark, latency, report):
    by = latency_figure(latency, report, benchmark, 0, "fig09_latency_200")
    # at the lowest resolution the initial phase is very short
    # (paper: a single access)
    assert by[3]["initial_phase"] <= 6
