"""Section 4.3 statistics: WAN-access and hit rates in the initial phase.

Paper @500²: during the initial phase, 28% of accesses reach the WAN with a
LAN depot (Case 3) versus 69% without one (Case 2); hit rates are 33% vs
28%.  The decisive comparison — staging strictly reduces WAN traffic — must
reproduce; the absolute percentages depend on trace and simulator
calibration.  The rates are the ``access_rates`` table of the merged
``latency`` sweep.
"""

import os

from repro.experiments import execute_run
from repro.experiments.report import access_rate_table

_SMALL = os.environ.get("REPRO_SCALE", "default") == "small"


def test_text_access_rates(benchmark, latency, report):
    report("text_access_rates", access_rate_table(latency.doc))

    top = latency.doc["access_rates"][-1]
    # who-wins: the LAN depot reduces initial-phase WAN traffic
    assert top["case3_wan_rate_initial"] <= top["case2_wan_rate_initial"]
    # and overall WAN rates keep the same ordering (strict at full scale)
    wan = {r["case"]: r["wan_rate"] for r in latency.rows
           if r["resolution"] == top["resolution"]}
    if _SMALL:
        assert wan["case3"] <= wan["case2"]
    else:
        assert wan["case3"] < wan["case2"]

    # representative kernel: the lowest-resolution Case-3 session again
    run = next(r for r in latency.runs if r.point["case"] == 3)
    benchmark.pedantic(lambda: execute_run(run.scenario, run.params),
                       rounds=1, iterations=1)
