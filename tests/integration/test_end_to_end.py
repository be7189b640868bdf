"""Whole-system integration: a really-rendered database streamed over the
simulated WAN, with the client synthesizing frames from what it received.

This is the complete paper pipeline in one test module: generator → LoRS
placement → DVS → session trace → client residency → light field synthesis
→ comparison against ground-truth ray casting.
"""

import pytest

from repro.lightfield.build import LightFieldBuilder
from repro.lightfield.lattice import CameraLattice
from repro.lightfield.synthesis import LightFieldSynthesizer
from repro.render.camera import orbit_camera
from repro.render.image import rmse
from repro.render.raycast import RaycastRenderer, RenderSettings
from repro.streaming.session import SessionConfig, build_rig
from repro.volume import neg_hip, preset

from ..lightfield.reference_source import DatabaseSource
from ..streaming.reference_rig import resident_keys


@pytest.fixture(scope="module")
def rendered_db():
    vol = neg_hip(size=24)
    tf = preset("neghip")
    lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
    builder = LightFieldBuilder(
        vol, tf, lattice, resolution=32, workers=1,
        settings=RenderSettings(shaded=False),
    )
    return vol, tf, builder.build()


class TestEndToEnd:
    def test_streamed_viewsets_render_correct_frames(self, rendered_db):
        vol, tf, db = rendered_db
        source = DatabaseSource(db)
        rig = build_rig(source, SessionConfig(case=3, n_accesses=12,
                                              trace_seed=21))
        if rig.staging is not None:
            rig.staging.start()
        rig.client.schedule_trace(rig.trace)
        rig.queue.run_until(rig.trace.duration + 60.0)
        if rig.staging is not None:
            rig.staging.stop()
        rig.queue.run_until(rig.trace.duration + 120.0)

        # every access was served
        assert len(rig.metrics.accesses) == 12

        # the client's resident view sets are bit-identical to the source
        assert resident_keys(rig.client)
        for key in resident_keys(rig.client):
            vs = rig.client.get_resident(key)
            expected = db.get_viewset(key)
            assert vs == expected

        # synthesize a frame from the client's residency and compare with
        # ground-truth ray casting at the same pose
        key = resident_keys(rig.client)[-1]
        synth = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, rig.client
        )
        theta, phi = db.lattice.viewset_center(key)
        cam = orbit_camera(
            theta, phi,
            radius=db.spheres.r_outer * 2.0,
            resolution=32,
            fov_deg=db.spheres.camera_fov_deg() * 0.5,
        )
        result = synth.render(cam)
        truth = RaycastRenderer(
            vol, tf, RenderSettings(shaded=False)
        ).render(cam)
        assert result.coverage > 0.5
        # frames rendered from streamed data agree with direct rendering
        # where view sets are resident; allow for partial residency blur
        err = rmse(result.image, truth)
        assert err < 0.15, f"streamed synthesis rmse {err}"

    def test_case2_and_case3_deliver_identical_bytes(self, rendered_db):
        """Transport must never corrupt payloads, whatever the path."""
        _, _, db = rendered_db
        source = DatabaseSource(db)
        resident = {}
        for case in (2, 3):
            rig = build_rig(source, SessionConfig(case=case, n_accesses=8,
                                                  trace_seed=31))
            if rig.staging is not None:
                rig.staging.start()
            rig.client.schedule_trace(rig.trace)
            rig.queue.run_until(rig.trace.duration + 60.0)
            if rig.staging is not None:
                rig.staging.stop()
            rig.queue.run_until(rig.trace.duration + 120.0)
            resident[case] = {
                key: rig.client.get_resident(key).images.tobytes()
                for key in resident_keys(rig.client)
            }
        shared = set(resident[2]) & set(resident[3])
        assert shared
        for key in shared:
            assert resident[2][key] == resident[3][key]
