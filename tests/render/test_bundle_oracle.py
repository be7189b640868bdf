"""Views marched as one bundle equal views marched one at a time.

``RaycastRenderer.render_many`` concatenates consecutive views' rays into
bundles of at most ``BUNDLE_RAYS`` and composites each bundle with one
``render_rays`` call.  Per-view ``render`` is the oracle: every frame must
be bit-equal to it and ``last_render_stats`` must be the field-wise sum of
its per-view stats, on all four marcher paths and the edge cases below.
"""

import numpy as np
import pytest

from repro.render import raycast
from repro.render.camera import Camera, orbit_camera
from repro.render.raycast import RaycastRenderer, RenderSettings, RenderStats
from repro.volume.synthetic import neg_hip
from repro.volume.transfer import preset

VOLUME, TRANSFER = neg_hip(size=24), preset("neghip")


def ring(n, resolution, radius=4.0):
    return [orbit_camera(0.6 + 0.25 * i, 0.45 * i, radius=radius,
                         resolution=resolution) for i in range(n)]


def assert_equals_per_view(cameras, settings=RenderSettings()):
    renderer = RaycastRenderer(VOLUME, TRANSFER, settings)
    frames = renderer.render_many(cameras)

    oracle = RaycastRenderer(VOLUME, TRANSFER, settings)
    summed = RenderStats(accelerated=settings.accelerated)
    assert len(frames) == len(cameras)
    for frame, camera in zip(frames, cameras):
        assert np.array_equal(frame, oracle.render(camera))
        s = oracle.last_render_stats
        summed = RenderStats(
            rays=summed.rays + s.rays,
            marched_rays=summed.marched_rays + s.marched_rays,
            skipped_rays=summed.skipped_rays + s.skipped_rays,
            steps=summed.steps + s.steps,
            accelerated=s.accelerated,
        )
    assert renderer.last_render_stats == summed
    return renderer, frames


@pytest.mark.parametrize("accelerated", [True, False])
@pytest.mark.parametrize("shaded", [True, False])
def test_bundle_equals_per_view(accelerated, shaded):
    settings = RenderSettings(accelerated=accelerated, shaded=shaded)
    renderer, frames = assert_equals_per_view(ring(5, 24), settings)
    assert renderer.last_render_stats.steps > 0
    assert all(f.std() > 0 for f in frames)


def test_mixed_resolutions():
    wide = Camera(eye=[0.3, 0.2, 4.0], target=[0, 0, 0], up=[0, 1, 0],
                  fov_deg=35.0, width=20, height=11)
    cams = [ring(1, 16)[0], wide, *ring(2, 9)]
    _, frames = assert_equals_per_view(cams)
    assert [f.shape for f in frames] == [
        (16, 16, 3), (11, 20, 3), (9, 9, 3), (9, 9, 3)]


def test_view_that_misses_the_volume():
    away = Camera(eye=[0, 0, 4.0], target=[0, 0, 8.0], up=[0, 1, 0],
                  fov_deg=20.0, width=12, height=12)
    only = RaycastRenderer(VOLUME, TRANSFER)
    only.render_many([away])
    assert only.last_render_stats.marched_rays == 0
    _, frames = assert_equals_per_view([ring(1, 12)[0], away, ring(2, 12)[1]])
    assert not frames[1].any()


@pytest.mark.parametrize("accelerated", [True, False])
def test_max_steps_cuts_every_view_alike(accelerated):
    settings = RenderSettings(max_steps=3, accelerated=accelerated)
    renderer, _ = assert_equals_per_view(ring(3, 16), settings)
    stats = renderer.last_render_stats
    assert 0 < stats.steps <= 3 * stats.marched_rays


def test_bundles_straddle_the_cap(monkeypatch):
    """41 views of 64² are 167 936 rays: more than one bundle at the
    committed cap, and no ``render_rays`` call marches more than it."""
    cams = ring(41, 64, radius=5.0)
    assert sum(c.width * c.height for c in cams) > raycast.BUNDLE_RAYS
    calls = []
    march = RaycastRenderer.render_rays

    def spy(self, origins, dirs, *args):
        calls.append(len(origins))
        return march(self, origins, dirs, *args)

    monkeypatch.setattr(RaycastRenderer, "render_rays", spy)
    assert_equals_per_view(cams)
    bundles = calls[:-len(cams)]  # then one oracle call per view
    assert len(bundles) >= 2 and max(bundles) <= raycast.BUNDLE_RAYS
    assert sum(bundles) == 41 * 64 * 64


def test_a_view_larger_than_the_cap_is_its_own_bundle(monkeypatch):
    monkeypatch.setattr(raycast, "BUNDLE_RAYS", 300)
    cams = [*ring(2, 12), ring(3, 20)[2], *ring(3, 8)]
    assert raycast.view_bundles(cams) == [(0, 2), (2, 3), (3, 6)]
    assert raycast.view_bundles([]) == []
    assert_equals_per_view(cams)


def test_every_worker_gets_a_bundle():
    """With N workers the bundles are near-equal runs, a multiple of N of
    them when there are views enough, each still within the cap."""
    assert raycast.view_bundles(ring(4, 64)) == [(0, 4)]
    assert raycast.view_bundles(ring(4, 64), 2) == [(0, 2), (2, 4)]
    assert raycast.view_bundles(ring(4, 64), 4) == [
        (0, 1), (1, 2), (2, 3), (3, 4)]
    assert raycast.view_bundles(ring(1, 64), 4) == [(0, 1)]
    assert raycast.view_bundles([], 4) == []
    # 9 views of 200² make 3 capped bundles; 2 workers get 4, not 3
    assert raycast.view_bundles(ring(9, 200)) == [(0, 3), (3, 6), (6, 9)]
    assert raycast.view_bundles(ring(9, 200), 2) == [
        (0, 3), (3, 5), (5, 7), (7, 9)]
    for cams in (ring(36, 64), [*ring(5, 200), *ring(7, 120), *ring(3, 400)]):
        for workers in (2, 3, 8, 32):
            bundles = raycast.view_bundles(cams, workers)
            assert [lo for lo, _ in bundles[1:]] == [
                hi for _, hi in bundles[:-1]]
            assert bundles[0][0] == 0 and bundles[-1][1] == len(cams)
            assert len(bundles) >= min(workers, len(cams))
            for lo, hi in bundles:
                rays = sum(c.width * c.height for c in cams[lo:hi])
                assert hi - lo == 1 or rays <= raycast.BUNDLE_RAYS
