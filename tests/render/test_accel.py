"""Accelerated vs brute-force ray-caster equivalence.

The macrocell skipping contract: both paths sample the same
``t_near + (k + 0.5) * step`` lattice and the accelerated path only skips
samples whose extinction is provably zero, so rendered images must agree
to float noise (documented tolerance 1e-5; in practice they are equal).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.render import raycast
from repro.render.camera import orbit_camera
from repro.render.raycast import RaycastRenderer, RenderSettings
from repro.volume.grid import VolumeGrid
from repro.volume.synthetic import neg_hip
from repro.volume.transfer import _PRESETS, TransferFunction, preset

from .reference_image import render_rays_with_transmittance, render_with_alpha

SETTINGS = RenderSettings()  # accelerated=True by default
BRUTE = replace(SETTINGS, accelerated=False)


def pair(volume, transfer, settings=SETTINGS):
    return (
        RaycastRenderer(volume, transfer, settings),
        RaycastRenderer(volume, transfer, replace(settings, accelerated=False)),
    )


def random_tf(rng, n_points=6):
    vals = np.sort(rng.random(n_points))
    vals[0], vals[-1] = 0.0, 1.0
    rows = [
        (v, rng.random(), rng.random(), rng.random(), float(rng.random() * 9))
        for v in vals
    ]
    return TransferFunction.from_list(rows)


def bordered_blob(size=24):
    """A volume whose outer shell is exactly zero (empty borders)."""
    g = np.linspace(-1, 1, size)
    x, y, z = np.meshgrid(g, g, g, indexing="ij")
    data = np.exp(-((x**2 + y**2 + z**2) / 0.12)).astype(np.float32)
    data[data < 0.05] = 0.0
    return VolumeGrid(data, name="blob")


class TestParity:
    @pytest.mark.parametrize("name", sorted(_PRESETS))
    def test_presets_match(self, name):
        vol = neg_hip(size=24)
        accel, brute = pair(vol, preset(name))
        cam = orbit_camera(1.1, 0.7, radius=4.0, resolution=32)
        a, b = accel.render(cam), brute.render(cam)
        assert float(np.abs(a - b).max()) <= 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_random_tfs_match(self, seed):
        rng = np.random.default_rng(seed)
        vol = neg_hip(size=20)
        accel, brute = pair(vol, random_tf(rng))
        cam = orbit_camera(
            float(rng.uniform(0.2, 2.9)),
            float(rng.uniform(0, 6.28)),
            radius=3.5,
            resolution=24,
        )
        a, b = accel.render(cam), brute.render(cam)
        assert float(np.abs(a - b).max()) <= 1e-5

    def test_fully_transparent_tf(self, monkeypatch):
        vol = neg_hip(size=20)
        tf = TransferFunction.from_list(
            [(0, 0.2, 0.2, 0.2, 0.0), (1, 0.9, 0.9, 0.9, 0.0)]
        )
        monkeypatch.setattr(raycast, "BACKGROUND", 0.25)
        accel, brute = pair(vol, tf)
        cam = orbit_camera(1.3, 0.4, radius=4.0, resolution=24)
        a, b = accel.render(cam), brute.render(cam)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a, 0.25, atol=1e-6)
        stats = accel.last_render_stats
        assert stats.steps == 0  # every ray proven empty, none marched

    def test_step_tf_opaque_shell(self):
        """Near-binary step TF: early termination fires in both paths."""
        vol = bordered_blob()
        accel, brute = pair(vol, preset("opaque-shell"))
        cam = orbit_camera(1.6, 2.0, radius=4.0, resolution=32)
        a, b = accel.render(cam), brute.render(cam)
        assert float(np.abs(a - b).max()) <= 1e-5
        assert accel.last_render_stats.steps < brute.last_render_stats.steps

    def test_empty_border_volume(self):
        vol = bordered_blob()
        tf = preset("hot-core")
        accel, brute = pair(vol, tf)
        cam = orbit_camera(0.9, 5.0, radius=4.0, resolution=32)
        a, b = accel.render(cam), brute.render(cam)
        assert float(np.abs(a - b).max()) <= 1e-5
        # the empty border must actually be classified empty
        cells = accel.prepare()
        assert cells.active_fraction < 0.6
        assert accel.last_render_stats.skipped_rays > 0

    def test_render_with_alpha_matches(self):
        vol = neg_hip(size=20)
        accel, brute = pair(vol, preset("neghip"))
        cam = orbit_camera(1.0, 1.0, radius=4.0, resolution=24)
        a = render_with_alpha(accel, cam)
        b = render_with_alpha(brute, cam)
        assert a.shape == (24, 24, 4)
        assert float(np.abs(a - b).max()) <= 1e-5

    def test_background_composites_identically(self, monkeypatch):
        vol = neg_hip(size=20)
        monkeypatch.setattr(raycast, "BACKGROUND", 0.6)
        accel, brute = pair(vol, preset("neghip"))
        cam = orbit_camera(2.2, 3.0, radius=4.0, resolution=24)
        a, b = accel.render(cam), brute.render(cam)
        assert float(np.abs(a - b).max()) <= 1e-5


class TestCornerGrazing:
    def test_grazing_ray_renders_background_in_both_paths(self, monkeypatch):
        """Regression: a ray whose bbox chord is shorter than half a step
        has no sample midpoint inside the volume.  Both paths must treat it
        as a miss (pure background, full transmittance) — the brute marcher
        used to composite one vacuum sample here."""
        vol = neg_hip(size=24)
        monkeypatch.setattr(raycast, "BACKGROUND", 0.3)
        accel, brute = pair(vol, preset("neghip"))
        # chord clipping the (+x, -y) edge: length ~ sqrt(2) * 1e-4, far
        # below half a step (step = voxel/2 ~ 0.04)
        c = 2.0 - 1e-4
        o = np.array([[0.0, -c, 0.0], [0.0, -c, 0.1]])
        d = np.tile(np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0), (2, 1))
        t_near, t_far = vol.intersect_rays(o, d)
        assert (t_far - t_near > 0).all()
        assert (t_far - t_near < 0.5 * accel._step).all()
        for r in (accel, brute):
            col, tr = render_rays_with_transmittance(r, o, d)
            np.testing.assert_allclose(col, 0.3, atol=1e-6)
            np.testing.assert_allclose(tr, 1.0, atol=1e-6)
            assert r.last_render_stats.steps == 0


class TestStats:
    def test_stats_track_work(self):
        vol = neg_hip(size=32)
        accel, brute = pair(vol, preset("neghip"))
        cam = orbit_camera(1.1, 0.7, radius=4.0, resolution=48)
        accel.render(cam)
        brute.render(cam)
        sa, sb = accel.last_render_stats, brute.last_render_stats
        assert sa.accelerated and not sb.accelerated
        assert sa.rays == sb.rays == 48 * 48
        assert sa.skipped_rays > 0 and sb.skipped_rays == 0
        assert sa.marched_rays + sa.skipped_rays <= sa.rays
        assert 0 < sa.steps < sb.steps
        assert sa.steps / sa.rays < sb.steps / sb.rays

    def test_prepare_idempotent_and_off_when_disabled(self):
        vol = neg_hip(size=16)
        accel, brute = pair(vol, preset("neghip"))
        cells = accel.prepare()
        assert cells is accel.prepare()  # cached, not rebuilt
        assert brute.prepare() is None
