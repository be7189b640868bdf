"""Runs of rays that share their corner cameras equal the per-ray kernel.

``LightFieldSynthesizer._synthesize`` sorts a frame's valid rays by their
lead camera and walks the runs of equal lead with scalar camera bases.
``reference_ray_kernel.reference_synthesize`` is the per-ray kernel it
replaced.  With the oracle patched in, every frame must be
``.tobytes()``-equal, with equal coverage and missing keys, over the three
modes × full / one-missing / empty residency at the ``client_playback``,
synthesis-oracle and ``fps`` geometries (paths crossing both poles and the
phi seam), per-ray-origin bundles, a random bundle of mostly one-ray runs
and runs whose corner camera is absent.
"""

import numpy as np
import pytest

from repro.lightfield import SynthesisStats
from repro.lightfield import synthesis
from repro.lightfield.synthesis import DictProvider, LightFieldSynthesizer
from repro.render.camera import orbit_camera

from .reference_ray_kernel import _corner_cameras, reference_synthesize
from .reference_synthesis import render_rays
from .test_synthesis_pins import SCENES, _source

MODES = ["quadrilinear", "uv-nearest", "nearest"]
RESIDENCIES = ["full", "one-missing", "empty"]

# geometry: (pins scene, frame size, radius over r_outer, fov factor)
GEOMETRIES = {
    "playback": ("playback", 96, 1.02, 1.0),
    "oracle": ("oracle", 36, 1.5, 1.0),
    "fps": ("oracle", 48, 2.0, 0.5),
}


def _resident(scene, residency):
    _, viewsets = _source(scene)
    hole = SCENES[scene][4]
    return {
        "full": viewsets,
        "one-missing": {k: v for k, v in viewsets.items() if k != hole},
        "empty": {},
    }[residency]


def _cameras(geometry):
    """Inside the hole, on its edge, at both poles, across the phi seam."""
    scene, size, radius, fov = GEOMETRIES[geometry]
    source, _ = _source(scene)
    lattice, spheres = source.lattice, source.spheres
    theta, phi = lattice.viewset_center(SCENES[scene][4])
    dth, dph = lattice.theta_step, lattice.phi_step
    where = [
        (theta + 0.3 * dth, phi - 0.7 * dph),
        (theta + 0.3 * dth, phi - lattice.l / 2 * dph),
        (0.3 * dth, 1.0),
        (np.pi - 0.2 * dth, 4.0),
        (1.2, 2.0 * np.pi - 0.4 * dph),
    ]
    return [
        orbit_camera(th, ph, radius=radius * spheres.r_outer,
                     resolution=size, fov_deg=fov * spheres.camera_fov_deg())
        for th, ph in where
    ]


@pytest.fixture(autouse=True)
def _grey_background(monkeypatch):
    """Every synthesizer here composites over 0.25."""
    monkeypatch.setattr(synthesis, "BACKGROUND", 0.25)


def _synth(scene, residency, mode):
    source, _ = _source(scene)
    return LightFieldSynthesizer(
        source.lattice, source.spheres, source.resolution,
        DictProvider(_resident(scene, residency)), interpolation=mode)


def assert_bit_equal(monkeypatch, scene, residency, mode, bundles):
    """Render every ``(origins, dirs)`` bundle with one long-lived
    synthesizer per kernel; return the run kernel's results."""
    runs = _synth(scene, residency, mode)
    got = [render_rays(runs, o, d) for o, d in bundles]
    with monkeypatch.context() as patch:
        patch.setattr(
            LightFieldSynthesizer, "_synthesize", reference_synthesize)
        oracle = _synth(scene, residency, mode)
        want = [render_rays(oracle, o, d) for o, d in bundles]
    for k, ((colors, cov, missing), (w_colors, w_cov, w_missing)) in (
            enumerate(zip(got, want))):
        assert colors.tobytes() == w_colors.tobytes(), k
        assert (cov, missing) == (w_cov, w_missing), k
    return got, runs


@pytest.mark.parametrize("residency", RESIDENCIES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_frames_bit_equal(monkeypatch, geometry, mode, residency):
    scene = GEOMETRIES[geometry][0]
    got, synth = assert_bit_equal(
        monkeypatch, scene, residency, mode,
        [camera.rays() for camera in _cameras(geometry) * 2])
    coverage = [cov for _, cov, _ in got]
    if residency == "full":
        assert min(coverage) == 1.0
    if residency == "empty":
        assert max(coverage) == 0.0
    if residency == "one-missing" and geometry != "playback":
        # runs with some corner cameras absent (weight 0, renormalised)
        assert any(0.0 < cov < 1.0 for cov in coverage)
    assert synth.stats.frames == 10


@pytest.mark.parametrize("mode", MODES)
def test_per_ray_origins_bit_equal(monkeypatch, mode):
    """Rays with distinct origins, some missing the volume altogether."""
    source, _ = _source("oracle")
    rng = np.random.default_rng(5)
    origins = rng.normal(size=(500, 3))
    origins *= 1.3 * source.spheres.r_outer / np.linalg.norm(
        origins, axis=1, keepdims=True)
    dirs = -origins + rng.normal(scale=1.2, size=(500, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    (colors, _, _), = assert_bit_equal(
        monkeypatch, "oracle", "one-missing", mode, [(origins, dirs)])[0]
    assert (colors == 0.25).all(axis=1).any()      # some rays miss


@pytest.mark.parametrize("mode", MODES)
def test_runs_of_one_bit_equal(monkeypatch, mode):
    """Rays aimed at random inner-sphere points from all around: nearly
    every ray leads with a camera of its own."""
    source, _ = _source("oracle")
    spheres = source.spheres
    rng = np.random.default_rng(11)
    origins = rng.normal(size=(120, 3))
    origins *= 1.2 * spheres.r_outer / np.linalg.norm(
        origins, axis=1, keepdims=True)
    dirs = rng.normal(scale=0.5 * spheres.r_inner, size=(120, 3)) - origins
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    _, synth = assert_bit_equal(
        monkeypatch, "oracle", "full", mode, [(origins, dirs)])
    _, _, u, v = spheres.project(origins.T, dirs.T)
    _, run_lengths = np.unique(
        _corner_cameras(synth, u, v)[0][0], return_counts=True)
    assert (run_lengths == 1).sum() > synth.stats.rays / 2 > 0
    assert synth.stats.runs == len(run_lengths)


def test_absent_corner_runs_bit_equal(monkeypatch):
    """A frame on the missing view set's edge: some runs have all corners,
    some only part, some none — the latter skip reprojection entirely."""
    source, _ = _source("oracle")
    lattice = source.lattice
    theta, phi = lattice.viewset_center(SCENES["oracle"][4])
    camera = orbit_camera(
        theta + 0.3 * lattice.theta_step, phi - 1.3 * lattice.phi_step,
        radius=2.0 * source.spheres.r_outer, resolution=48,
        fov_deg=source.spheres.camera_fov_deg())
    for mode in MODES:
        got, synth = assert_bit_equal(
            monkeypatch, "oracle", "one-missing", mode, [camera.rays()])
        (colors, coverage, missing), = got
        assert missing == {SCENES["oracle"][4]}
        assert 0.0 < coverage < 1.0, mode
        assert synth.stats.runs > 1


def test_stats_count_frames_rays_and_runs():
    """``rays`` are the rays that pierce both spheres, ``runs`` the
    distinct lead cameras among them, summed over frames."""
    source, _ = _source("oracle")
    cameras = _cameras("fps") + _cameras("oracle")
    for mode in MODES:
        synth = _synth("oracle", "full", mode)
        want = SynthesisStats()
        for camera in cameras:
            synth.render(camera)
            _, _, u, v = source.spheres.project(
                camera.eye, camera.directions())
            lead = _corner_cameras(synth, u, v)[0][0]
            want.frames += 1
            want.rays += len(u)
            want.runs += len(np.unique(lead))
        assert synth.stats == want, mode
        assert synth.stats.runs_per_frame == want.runs / len(cameras)
    assert SynthesisStats().runs_per_frame == 0.0


class _WrongKeyProvider(DictProvider):
    """Hands over view set (1, 3) when asked for (1, 2)."""

    def get_resident(self, key):
        return super().get_resident((1, 3) if key == (1, 2) else key)


def test_viewset_under_the_wrong_key_is_refused():
    source, viewsets = _source("oracle")
    synth = LightFieldSynthesizer(
        source.lattice, source.spheres, source.resolution,
        _WrongKeyProvider(viewsets))
    theta, phi = source.lattice.viewset_center((1, 2))
    camera = orbit_camera(theta, phi, radius=1.5 * source.spheres.r_outer,
                          resolution=16,
                          fov_deg=source.spheres.camera_fov_deg())
    with pytest.raises(ValueError, match=r"\(1, 3\) for key \(1, 2\)"):
        synth.render(camera)
