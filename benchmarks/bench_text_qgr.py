"""Section 4.2: the Quality Guaranteed Rate (QGR).

Paper: "The QGR of case 2, direct streaming and prefetching across WAN, is
significantly slower than the QGR's in case 1 and 3" — i.e. with a LAN depot
the user can move much faster before latency stops being hidden.  The
builtin ``qgr`` sweep re-times the same spatial cursor paths at several
speeds (one run per case × speed × trace seed) and its assembler averages
the steady-state hidden-latency fraction over the seeds; the collapse point
is the QGR.
"""

from repro.experiments import execute_run, render_section, run_sweep, spec_named


def test_text_qgr(benchmark, report):
    spec = spec_named("qgr")
    result = run_sweep(spec, workers=1)
    print(f"wrote {result.artifact_path}")
    report("text_qgr", render_section(spec.artifact, result.doc))

    by = {(r["case"], r["speed"]): r["hidden_fraction"]
          for r in result.doc["rows"]}
    speeds = spec.axes["speed"]
    # at the highest tested speed, the LAN depot must hide at least as much
    # latency as direct WAN streaming — case 3's QGR is the faster one
    assert by[(3, speeds[-1])] >= by[(2, speeds[-1])] - 0.05
    # and case 3 sustains a high hidden fraction across the sweep
    assert min(by[(3, s)] for s in speeds) >= 0.5

    # representative kernel: one re-timed Case-2 session
    run = result.runs[0]
    benchmark.pedantic(lambda: execute_run(run.scenario, run.params),
                       rounds=1, iterations=1)
