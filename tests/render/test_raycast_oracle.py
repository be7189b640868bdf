"""Whole frames through the flat-index kernel equal frames through the oracle.

The ray caster reaches the volume only through ``VolumeGrid.sample`` and
``VolumeGrid.gradient``; patching the pre-kernel bodies
(``tests/volume/reference_trilinear.py``) in for them must not move one
bit of a rendered frame, on any of the marcher's four paths.
"""

import numpy as np
import pytest

from repro.render.camera import orbit_camera
from repro.render.raycast import RaycastRenderer, RenderSettings
from repro.volume.grid import VolumeGrid
from repro.volume.synthetic import neg_hip
from repro.volume.transfer import preset

from ..volume.reference_trilinear import reference_gradient, reference_sample


@pytest.mark.parametrize("accelerated", [True, False])
@pytest.mark.parametrize("shaded", [True, False])
def test_frame_equals_oracle_frame(monkeypatch, accelerated, shaded):
    volume, transfer = neg_hip(size=24), preset("neghip")
    settings = RenderSettings(accelerated=accelerated, shaded=shaded)
    camera = orbit_camera(1.1, 0.7, radius=4.0, resolution=32)

    renderer = RaycastRenderer(volume, transfer, settings)
    frame = renderer.render(camera)
    stats = renderer.last_render_stats

    monkeypatch.setattr(VolumeGrid, "sample", reference_sample)
    monkeypatch.setattr(VolumeGrid, "gradient", reference_gradient)
    oracle = RaycastRenderer(volume, transfer, settings)
    assert np.array_equal(frame, oracle.render(camera))
    assert stats == oracle.last_render_stats
    assert stats.steps > 0 and frame.std() > 0
