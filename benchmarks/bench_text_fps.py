"""Section 4.2 text claim: >30 fps client rendering up to 500².

The paper's client is an OpenGL-free table lookup; ours is the same lookups
in pure numpy, and the calibration brief for this reproduction notes it "may
miss the 30 fps target" at the top resolution.  The builtin ``fps`` sweep
measures all three interpolation modes over a seeded camera path inside one
view set (texel-store upkeep included) and reports honestly; the shape
requirement is that synthesis cost scales with *client display* resolution
(the paper's criterion (ii)), not with volume complexity.  Every number is
host-timed, so all of them live under the artifact's ``wall_clock``.
"""

from repro.experiments import execute_run, render_section, run_sweep, spec_named


def test_text_fps(benchmark, report):
    spec = spec_named("fps")
    result = run_sweep(spec, workers=1)
    print(f"wrote {result.artifact_path}")
    report("text_fps", render_section(spec.artifact, result.doc))

    wall = {(r["resolution"], r["mode"]): w
            for r, w in zip(result.rows, result.walls)}
    resolutions = spec.axes["resolution"]
    low, top = resolutions[0], resolutions[-1]
    # scaling shape: frame cost grows with display resolution for a fixed
    # mode, and cheaper interpolation is faster
    for mode in spec.axes["mode"]:
        assert (wall[(top, mode)]["ms_per_frame"]
                > wall[(low, mode)]["ms_per_frame"])
    assert wall[(top, "nearest")]["fps"] >= wall[(top, "quadrilinear")]["fps"]
    # the 30 fps claim must reproduce at the lowest (PDA-class) resolution
    assert any(wall[(low, mode)]["meets_30fps"] for mode in spec.axes["mode"])
    # nothing host-timed in the fingerprinted rows
    assert all(set(r) == {"resolution", "mode", "frames"}
               for r in result.rows)

    # representative kernel: the lowest-resolution quadrilinear path again
    run = result.runs[0]
    benchmark.pedantic(lambda: execute_run(run.scenario, run.params),
                       rounds=1, iterations=1)
