"""Passes of steps equal one step per turn, bit for bit.

``RaycastRenderer._march`` advances its rays for a run of steps, samples
every (ray, step) point of the run in one call and composites them step
by step.  The marcher it replaced, with the shading and classification of
that time (``reference_march.py``), is the oracle: with it patched in,
every frame must be ``.tobytes()``-equal and ``RenderStats`` equal, over
volume sizes × presets × shading × acceleration × step budgets and the
edge cases below.
"""

import numpy as np
import pytest

from repro.render import raycast
from repro.render.camera import Camera, orbit_camera
from repro.render.lighting import Light, shade_blinn_phong
from repro.render.raycast import RaycastRenderer, RenderSettings
from repro.volume.grid import VolumeGrid
from repro.volume.synthetic import neg_hip
from repro.volume.transfer import _PRESETS, preset

from .reference_march import reference_march, reference_shade, reference_transfer

VOLUMES = {size: neg_hip(size=size) for size in (24, 32, 48)}


def render_both(monkeypatch, volume, transfer, settings, cameras):
    """Frames and stats from the marcher, then from the oracle."""
    renderer = RaycastRenderer(volume, transfer, settings)
    frames = renderer.render_many(cameras)
    stats = renderer.last_render_stats
    with monkeypatch.context() as patch:
        patch.setattr(RaycastRenderer, "_march", reference_march)
        oracle = RaycastRenderer(volume, transfer, settings)
        want = oracle.render_many(cameras)
        want_stats = oracle.last_render_stats
    return frames, stats, want, want_stats


def assert_equal_to_oracle(monkeypatch, cameras, settings=RenderSettings(),
                           volume=VOLUMES[24], transfer=preset("neghip")):
    frames, stats, want, want_stats = render_both(
        monkeypatch, volume, transfer, settings, cameras)
    assert [f.tobytes() for f in frames] == [f.tobytes() for f in want]
    assert stats == want_stats
    return frames, stats


@pytest.mark.parametrize("max_steps", [7, 40, 4096])
@pytest.mark.parametrize("accelerated", [True, False])
@pytest.mark.parametrize("shaded", [True, False])
@pytest.mark.parametrize("name", sorted(_PRESETS))
@pytest.mark.parametrize("size", sorted(VOLUMES))
def test_matrix(monkeypatch, size, name, shaded, accelerated, max_steps):
    settings = RenderSettings(shaded=shaded, accelerated=accelerated,
                              max_steps=max_steps)
    camera = orbit_camera(0.4 + 0.05 * size, 0.3 * size, radius=4.0,
                          resolution=24)
    _, stats = assert_equal_to_oracle(
        monkeypatch, [camera], settings, VOLUMES[size], preset(name))
    assert stats.steps > 0


def test_one_step(monkeypatch):
    settings = RenderSettings(max_steps=1)
    _, stats = assert_equal_to_oracle(
        monkeypatch, [orbit_camera(1.0, 0.5, 4.0, 32)], settings)
    assert 0 < stats.steps <= stats.marched_rays


@pytest.mark.parametrize("accelerated", [True, False])
def test_camera_inside_the_volume(monkeypatch, accelerated):
    inside = Camera(eye=[0.1, -0.05, 0.2], target=[1.0, 0.4, -0.3],
                    up=[0, 1, 0], fov_deg=60.0, width=24, height=20)
    settings = RenderSettings(accelerated=accelerated)
    frames, _ = assert_equal_to_oracle(monkeypatch, [inside], settings)
    assert frames[0].std() > 0


@pytest.mark.parametrize("accelerated", [True, False])
@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_one_ray_many_steps(monkeypatch, name, accelerated):
    """One live ray makes a pass of up to ``max_steps`` steps whose colour
    sums down a one-column table; numpy sums a lone column pairwise, not
    step after step, unless told otherwise."""
    settings = RenderSettings(accelerated=accelerated)
    for theta in (0.5, 1.3, 2.2):
        one = orbit_camera(theta, 2.0 * theta, radius=4.0, resolution=1,
                           fov_deg=8.0)
        _, stats = assert_equal_to_oracle(
            monkeypatch, [one], settings, VOLUMES[48], preset(name))
        assert stats.steps > 0


def test_view_that_misses(monkeypatch):
    away = Camera(eye=[0, 0, 4.0], target=[0, 0, 8.0], up=[0, 1, 0],
                  fov_deg=20.0, width=12, height=12)
    frames, stats = assert_equal_to_oracle(monkeypatch, [away])
    assert stats.marched_rays == 0 and not frames[0].any()


def test_mixed_resolution_bundle(monkeypatch):
    wide = Camera(eye=[0.3, 0.2, 4.0], target=[0, 0, 0], up=[0, 1, 0],
                  fov_deg=35.0, width=20, height=11)
    cams = [orbit_camera(0.6, 0.0, 4.0, 16), wide,
            orbit_camera(1.1, 0.9, 4.0, 9), orbit_camera(1.3, 1.8, 4.0, 9)]
    assert_equal_to_oracle(monkeypatch, cams)


def test_more_live_rays_than_the_cap(monkeypatch):
    """A 400² view from inside the volume, brute force: all 160 000 rays
    march, more than ``BUNDLE_RAYS``, so the first pass is one step."""
    inside = Camera(eye=[0.05, 0.1, 0.15], target=[1.0, 0.2, 0.1],
                    up=[0, 1, 0], fov_deg=70.0, width=400, height=400)
    settings = RenderSettings(accelerated=False, shaded=False, max_steps=6)
    calls = []
    sample = VolumeGrid.sample

    def spy(self, points):
        calls.append(len(points))
        return sample(self, points)

    with monkeypatch.context() as patch:
        patch.setattr(VolumeGrid, "sample", spy)
        renderer = RaycastRenderer(VOLUMES[24], preset("neghip"), settings)
        renderer.render(inside)
    marched = renderer.last_render_stats.marched_rays
    assert marched == 400 * 400 > raycast.BUNDLE_RAYS
    assert calls[0] == marched  # one step, the whole live set
    assert_equal_to_oracle(monkeypatch, [inside], settings)


def test_shading_and_classification_equal_their_oracles():
    """One unmasked shading path, and interps written straight into
    float32, give the masked path's and the stacked path's bits: strong,
    weak (below the floor), zero and non-finite gradients."""
    rng = np.random.default_rng(5)
    grads = rng.normal(size=(400, 3)) * rng.choice([1e-6, 1e-4, 0.3, 40.0],
                                                   size=(400, 1))
    grads[:7] = [[0, 0, 0], [1e-4, 0, 0], [0, 0, 1e-4 + 1e-12],
                 [np.nan, 1, 0], [np.inf, 0, 0], [0, -2, 0], [3, 4, 0]]
    views = rng.normal(size=(400, 3))
    views /= np.linalg.norm(views, axis=1, keepdims=True)
    views[7] = -np.asarray(Light().unit_direction())  # half vector 0
    colors = rng.uniform(size=(400, 3)).astype(np.float32)
    with np.errstate(invalid="ignore"):
        got = shade_blinn_phong(colors, grads, views, Light())
        want = reference_shade(colors, grads, views, Light())
    assert got.tobytes() == want.tobytes()
    values = np.concatenate([rng.uniform(-0.2, 1.2, 300), [0.0, 1.0, np.nan]])
    for name in sorted(_PRESETS):
        tf = preset(name)
        for a, b in zip(tf(values), reference_transfer(tf, values)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def sampled(monkeypatch, renderer, cameras):
    """Points per ``VolumeGrid.sample`` call of one ``render_many``."""
    calls = []
    sample = VolumeGrid.sample

    def spy(self, points):
        calls.append(len(points))
        return sample(self, points)

    with monkeypatch.context() as patch:
        patch.setattr(VolumeGrid, "sample", spy)
        renderer.render_many(cameras)
    return calls


def test_a_pass_samples_at_most_the_cap(monkeypatch):
    """Below the cap a pass takes ``BUNDLE_RAYS // live`` steps, so no
    sampling call holds more than ``BUNDLE_RAYS`` points, and a smaller
    cap makes more, smaller passes without moving a bit."""
    cams = [orbit_camera(0.6 + 0.25 * i, 0.45 * i, 4.0, 24) for i in range(4)]
    renderer = RaycastRenderer(VOLUMES[24], preset("neghip"))
    calls = sampled(monkeypatch, renderer, cams)
    assert max(calls) <= raycast.BUNDLE_RAYS
    assert sum(calls) == renderer.last_render_stats.steps
    monkeypatch.setattr(raycast, "BUNDLE_RAYS", 3000)
    small = sampled(monkeypatch, renderer, cams)
    assert len(small) > 2 * len(calls) and max(small) <= 3000
    assert_equal_to_oracle(monkeypatch, cams)


def test_rays_that_stop_on_opacity_within_a_pass(monkeypatch):
    """Under the opaque shell most rays stop mid-pass: their later points
    are sampled but neither composited, shaded nor counted."""
    cams = [orbit_camera(1.0, 0.5, 4.0, 32)]
    renderer = RaycastRenderer(VOLUMES[48], preset("opaque-shell"))
    calls = sampled(monkeypatch, renderer, cams)
    assert sum(calls) > renderer.last_render_stats.steps
    assert_equal_to_oracle(monkeypatch, cams, volume=VOLUMES[48],
                           transfer=preset("opaque-shell"))
