"""Section 4.2 text claim: >30 fps client rendering up to 500².

The paper's client is an OpenGL-free table lookup; ours is the same lookups
in pure numpy, and the calibration brief for this reproduction notes it "may
miss the 30 fps target" at the top resolution.  We measure all three
interpolation modes over a seeded camera path inside one view set (texel-store
upkeep included) and report honestly; the shape requirement is that synthesis
cost scales with *client display* resolution (the paper's criterion (ii)),
not with volume complexity.
"""

import os

import pytest

from repro.experiments import format_table, text_fps
from repro.lightfield import CameraLattice, DictProvider, LightFieldBuilder
from repro.lightfield.synthesis import LightFieldSynthesizer
from repro.render.camera import orbit_camera
from repro.render.raycast import RenderSettings
from repro.volume import neg_hip, preset

_SMALL = os.environ.get("REPRO_SCALE", "default") == "small"
RESOLUTIONS = (64, 128) if _SMALL else (200, 300, 500)


@pytest.fixture(scope="module")
def fps_rows():
    return text_fps(resolutions=RESOLUTIONS, frames=6)


def test_text_fps(benchmark, fps_rows, report):
    table = format_table(
        headers=["res", "mode", "ms/frame", "fps", ">=30fps"],
        rows=[
            [r["resolution"], r["mode"], r["wall_clock"]["ms_per_frame"],
             r["wall_clock"]["fps"],
             "yes" if r["wall_clock"]["meets_30fps"] else "no"]
            for r in fps_rows
        ],
        title="Section 4.2 — client synthesis rate (paper claims >30 fps)",
    )
    report("text_fps", table)

    # scaling shape: frame cost grows with display resolution for a fixed
    # mode, and cheaper interpolation is faster (all host timings live
    # under the quarantined wall_clock section of each row)
    by_mode = {}
    for r in fps_rows:
        by_mode.setdefault(r["mode"], []).append(r)
    for _mode, rows in by_mode.items():
        rows.sort(key=lambda r: r["resolution"])
        assert (rows[-1]["wall_clock"]["ms_per_frame"]
                > rows[0]["wall_clock"]["ms_per_frame"])
    fastest_at_top = {
        r["mode"]: r["wall_clock"]["fps"] for r in fps_rows
        if r["resolution"] == RESOLUTIONS[-1]
    }
    assert fastest_at_top["nearest"] >= fastest_at_top["quadrilinear"]
    # the 30 fps claim must reproduce at the lowest (PDA-class) resolution
    low = [r for r in fps_rows if r["resolution"] == RESOLUTIONS[0]]
    assert any(r["wall_clock"]["meets_30fps"] for r in low)

    # representative kernel: one synthesized frame at the lowest resolution
    res = RESOLUTIONS[0]
    builder = LightFieldBuilder(
        neg_hip(size=32), preset("neghip"),
        CameraLattice(n_theta=12, n_phi=24, l=3), resolution=res,
        workers=1, settings=RenderSettings(shaded=False),
    )
    vs = builder.render_viewset((2, 3))
    synth = LightFieldSynthesizer(
        builder.lattice, builder.spheres, res, DictProvider({(2, 3): vs}),
    )
    theta, phi = builder.lattice.viewset_center((2, 3))
    cam = orbit_camera(
        theta + 0.02, phi + 0.03, radius=builder.spheres.r_outer * 2,
        resolution=res, fov_deg=builder.spheres.camera_fov_deg() * 0.5,
    )
    synth.render(cam)  # fill the texel store row
    result = benchmark(synth.render, cam)
    assert result.coverage > 0.9
