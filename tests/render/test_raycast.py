"""Tests for the ray caster: compositing correctness, termination, shading."""

import numpy as np
import pytest

from repro.render.camera import Camera, orbit_camera
from repro.render import lighting, raycast
from repro.render.lighting import shade_blinn_phong
from repro.render.raycast import RaycastRenderer, RenderSettings
from repro.volume.grid import VolumeGrid
from repro.volume.synthetic import neg_hip
from repro.volume.transfer import TransferFunction, preset

from .reference_image import render_with_alpha


def uniform_volume(value=1.0, n=16):
    return VolumeGrid(data=np.full((n, n, n), value, dtype=np.float32))


def flat_tf(color=(1.0, 0.0, 0.0), sigma=2.0):
    """Constant color/extinction everywhere."""
    r, g, b = color
    return TransferFunction.from_list(
        [(0.0, r, g, b, sigma), (1.0, r, g, b, sigma)]
    )


def axis_camera(res=8, dist=4.0):
    return Camera(
        eye=np.array([0.0, 0.0, dist]),
        target=np.zeros(3),
        up=np.array([0.0, 1.0, 0.0]),
        fov_deg=25.0,
        width=res,
        height=res,
    )


class TestBeerLambert:
    def test_center_pixel_matches_analytic_transmittance(self, monkeypatch):
        """A homogeneous cube must composite to the closed-form solution.

        Emission-absorption through path length L with extinction s and
        constant unit emission gives color = 1 - exp(-s L).
        """
        sigma = 1.7
        vol = uniform_volume(1.0, 16)
        tf = flat_tf((1.0, 1.0, 1.0), sigma)
        monkeypatch.setattr(raycast, "STEP_VOXELS", 0.1)
        monkeypatch.setattr(raycast, "OPACITY_CUTOFF", 1e-7)
        r = RaycastRenderer(vol, tf, RenderSettings(shaded=False))
        img = r.render(axis_camera(res=3))
        L = 2.0  # the cube spans [-1, 1] along the view axis
        expect = 1.0 - np.exp(-sigma * L)
        assert img[1, 1, 0] == pytest.approx(expect, rel=2e-2)

    def test_step_size_independence(self, monkeypatch):
        """Opacity correction makes the result nearly step-invariant."""
        vol = uniform_volume(1.0, 16)
        tf = flat_tf(sigma=3.0)
        cams = axis_camera(res=3)
        monkeypatch.setattr(raycast, "STEP_VOXELS", 0.05)
        fine = RaycastRenderer(
            vol, tf, RenderSettings(shaded=False)).render(cams)
        monkeypatch.setattr(raycast, "STEP_VOXELS", 0.5)
        coarse = RaycastRenderer(
            vol, tf, RenderSettings(shaded=False)).render(cams)
        assert abs(fine[1, 1, 0] - coarse[1, 1, 0]) < 0.03

    def test_empty_volume_renders_background(self, monkeypatch):
        vol = uniform_volume(0.0)
        tf = TransferFunction.from_list(
            [(0.0, 1, 0, 0, 0.0), (1.0, 1, 0, 0, 5.0)]
        )
        monkeypatch.setattr(raycast, "BACKGROUND", 0.25)
        r = RaycastRenderer(vol, tf, RenderSettings(shaded=False))
        img = r.render(axis_camera())
        np.testing.assert_allclose(img, 0.25, atol=1e-5)

    def test_rays_missing_volume_get_background(self):
        vol = uniform_volume(1.0, 8)
        tf = flat_tf(sigma=50.0)
        cam = Camera(
            eye=np.array([0.0, 0.0, 4.0]), target=np.zeros(3),
            up=np.array([0, 1.0, 0]), fov_deg=120.0, width=9, height=9,
        )
        r = RaycastRenderer(vol, tf, RenderSettings(shaded=False))
        img = r.render(cam)
        assert img[0, 0, 0] == pytest.approx(0.0, abs=1e-6)  # corner misses
        assert img[4, 4, 0] > 0.9  # center hits opaque cube


class TestEarlyTermination:
    def test_opaque_front_hides_back(self):
        """Fully opaque front face: back half contributes nothing."""
        n = 16
        data = np.ones((n, n, n), dtype=np.float32)
        data[:, :, : n // 2] = 0.0  # back half (low z) has value 0
        vol = VolumeGrid(data=data)
        # value 1 -> opaque white; value 0 -> red emission (never seen)
        tf = TransferFunction.from_list(
            [(0.0, 1, 0, 0, 100.0), (0.5, 1, 0, 0, 100.0),
             (0.9, 1, 1, 1, 100.0), (1.0, 1, 1, 1, 100.0)]
        )
        r = RaycastRenderer(vol, tf, RenderSettings(shaded=False))
        img = r.render(axis_camera(res=5))
        center = img[2, 2]
        # white front, no red bleed-through
        assert center[1] > 0.9 and center[2] > 0.9

    def test_max_steps_bounds_work(self, monkeypatch):
        vol = uniform_volume(1.0, 8)
        tf = flat_tf(sigma=0.0)  # fully transparent: no early exit
        monkeypatch.setattr(raycast, "MAX_STEPS", 3)
        r = RaycastRenderer(vol, tf, RenderSettings(shaded=False))
        img = r.render(axis_camera(res=2))  # must terminate quickly
        assert np.isfinite(img).all()


class TestAlpha:
    def test_alpha_zero_off_volume_one_through_opaque(self):
        vol = uniform_volume(1.0, 8)
        tf = flat_tf(sigma=100.0)
        cam = Camera(
            eye=np.array([0.0, 0.0, 4.0]), target=np.zeros(3),
            up=np.array([0, 1.0, 0]), fov_deg=120.0, width=9, height=9,
        )
        r = RaycastRenderer(vol, tf, RenderSettings(shaded=False))
        rgba = render_with_alpha(r, cam)
        assert rgba.shape == (9, 9, 4)
        assert rgba[0, 0, 3] == pytest.approx(0.0, abs=1e-6)
        assert rgba[4, 4, 3] > 0.99


class TestShading:
    def test_shading_changes_output(self):
        vol = neg_hip(size=24)
        tf = preset("neghip")
        cam = orbit_camera(1.0, 0.5, radius=4.0, resolution=16)
        flat = RaycastRenderer(vol, tf, RenderSettings(shaded=False)).render(cam)
        lit = RaycastRenderer(vol, tf, RenderSettings(shaded=True)).render(cam)
        assert not np.allclose(flat, lit)

    def test_output_in_unit_range(self):
        vol = neg_hip(size=24)
        tf = preset("neghip")
        cam = orbit_camera(1.2, 2.0, radius=4.0, resolution=12)
        img = RaycastRenderer(vol, tf).render(cam)
        assert img.min() >= 0.0
        assert img.max() <= 1.0

    def test_shade_blinn_phong_flat_region_unchanged_hue(self):
        colors = np.array([[0.5, 0.2, 0.1]], dtype=np.float32)
        grads = np.zeros((1, 3))
        views = np.array([[0.0, 0.0, -1.0]])
        out = shade_blinn_phong(colors, grads, views)
        # zero gradient: flat ambient+diffuse scaling, no specular
        expect = colors[0] * (lighting.AMBIENT + lighting.DIFFUSE)
        np.testing.assert_allclose(out[0], expect, atol=1e-6)

    def test_shade_output_clipped(self, monkeypatch):
        colors = np.ones((4, 3), dtype=np.float32)
        grads = np.tile(np.array([0.0, 0.0, 5.0]), (4, 1))
        views = np.tile(np.array([0.0, 0.0, -1.0]), (4, 1))
        monkeypatch.setattr(lighting, "SPECULAR", 5.0)
        out = shade_blinn_phong(colors, grads, views)
        assert out.max() <= 1.0
