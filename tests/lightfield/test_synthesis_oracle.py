"""The texel-store synthesizer against the straightforward gather oracle.

One long-lived synthesizer per (mode, residency) walks a camera path that
crosses view-set boundaries, clamps at a pole and wraps in phi — twice, so
rows are filled, reused, evicted and refilled — and every frame must match
``reference_synthesis`` (which builds everything from scratch per frame).
"""

import numpy as np
import pytest

from repro.lightfield import CameraLattice, SyntheticSource
from repro.lightfield.synthesis import DictProvider, LightFieldSynthesizer
from repro.render.camera import orbit_camera

from .reference_synthesis import reference_render_rays, render_rays

LATTICE = CameraLattice(n_theta=12, n_phi=24, l=3)
RESOLUTION = 40
HOLE = (2, 3)


@pytest.fixture(scope="module")
def source():
    return SyntheticSource(LATTICE, RESOLUTION)


@pytest.fixture(scope="module")
def viewsets(source):
    return {key: source.viewset(key) for key in LATTICE.all_viewsets()}


def _cameras(source):
    """(name, camera): interior, on the hole's edge, polar, phi-wrapping."""
    theta, phi = LATTICE.viewset_center(HOLE)
    where = {
        "interior": (theta, phi),
        "edge-of-hole": (theta + 1.4 * LATTICE.theta_step,
                         phi + 1.6 * LATTICE.phi_step),
        "polar-clamped": (0.3 * LATTICE.theta_step, 1.0),
        "south-pole": (np.pi - 0.2 * LATTICE.theta_step, 4.0),
        "phi-wrapping": (1.2, 2.0 * np.pi - 0.4 * LATTICE.phi_step),
    }
    return [
        (name, orbit_camera(
            th, ph, radius=1.5 * source.spheres.r_outer, resolution=36,
            fov_deg=source.spheres.camera_fov_deg()))
        for name, (th, ph) in where.items()
    ]


@pytest.mark.parametrize("residency", ["full", "one-missing", "empty"])
@pytest.mark.parametrize("mode", ["quadrilinear", "uv-nearest", "nearest"])
def test_matches_reference(source, viewsets, mode, residency):
    resident = {
        "full": viewsets,
        "one-missing": {k: v for k, v in viewsets.items() if k != HOLE},
        "empty": {},
    }[residency]
    provider = DictProvider(resident)
    synth = LightFieldSynthesizer(
        LATTICE, source.spheres, RESOLUTION, provider,
        background=0.25, interpolation=mode,
    )
    partial = False
    for name, camera in _cameras(source) * 2:
        origins, dirs = camera.rays()
        colors, coverage, missing = render_rays(synth, origins, dirs)
        want, want_coverage, want_missing = reference_render_rays(
            LATTICE, source.spheres, RESOLUTION, provider, origins, dirs,
            background=0.25, interpolation=mode,
        )
        assert np.abs(colors - want).max() <= 1e-4, name
        assert coverage == want_coverage, name
        assert missing == want_missing, name
        # the pinhole path (one eye, planar directions) is the same frame
        frame = synth.render(camera)
        np.testing.assert_array_equal(
            frame.image, colors.reshape(frame.image.shape), err_msg=name)
        assert (frame.coverage, frame.missing_keys) == (coverage, missing)
        partial |= 0.0 < coverage < 1.0
    # the blend with some corners absent (weight 0, renormalised) is hit
    if residency == "one-missing" and mode == "quadrilinear":
        assert partial


def test_non_pinhole_ray_bundle(source, viewsets):
    """Rays with distinct origins, some missing the volume altogether."""
    rng = np.random.default_rng(5)
    origins = rng.normal(size=(500, 3))
    origins *= 1.3 * source.spheres.r_outer / np.linalg.norm(
        origins, axis=1, keepdims=True)
    dirs = -origins + rng.normal(scale=1.2, size=(500, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    provider = DictProvider(viewsets)
    synth = LightFieldSynthesizer(
        LATTICE, source.spheres, RESOLUTION, provider, background=0.5)
    colors, coverage, missing = render_rays(synth, origins, dirs)
    want, want_coverage, want_missing = reference_render_rays(
        LATTICE, source.spheres, RESOLUTION, provider, origins, dirs,
        background=0.5)
    assert (want == 0.5).all(axis=1).any()      # some rays miss
    assert np.abs(colors - want).max() <= 1e-4
    assert (coverage, missing) == (want_coverage, want_missing)
