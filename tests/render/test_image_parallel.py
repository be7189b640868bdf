"""Tests for image utilities and the parallel renderer."""

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import processes
from repro.render import raycast
from repro.render.camera import orbit_camera
from repro.render.image import (
    psnr,
    rmse,
    save_ppm,
    to_float,
    to_uint8,
)
from repro.render.parallel import ParallelRenderer
from repro.render.raycast import RaycastRenderer
from repro.volume.synthetic import neg_hip
from repro.volume.transfer import preset

from .reference_image import checkerboard, load_ppm


class TestQuantization:
    def test_uint8_roundtrip_error_bounded(self):
        rng = np.random.default_rng(0)
        img = rng.random((8, 8, 3)).astype(np.float32)
        back = to_float(to_uint8(img))
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-6

    def test_to_uint8_idempotent_on_uint8(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        assert to_uint8(img) is img

    @given(v=st.floats(-1, 2))
    @settings(max_examples=50, deadline=None)
    def test_out_of_range_clipped(self, v):
        arr = np.full((1, 1, 3), v, dtype=np.float32)
        q = to_uint8(arr)
        assert 0 <= q.min() and q.max() <= 255


class TestPPM:
    def test_roundtrip(self, tmp_path):
        img = checkerboard(16)
        p = tmp_path / "x.ppm"
        save_ppm(p, img)
        back = load_ppm(p)
        np.testing.assert_array_equal(back, to_uint8(img))

    def test_save_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            save_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))

    def test_load_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"NOTAPPM")
        with pytest.raises(ValueError):
            load_ppm(p)

    def test_load_rejects_truncated(self, tmp_path):
        p = tmp_path / "trunc.ppm"
        p.write_bytes(b"P6\n4 4\n255\nshort")
        with pytest.raises(ValueError):
            load_ppm(p)


class TestMetrics:
    def test_rmse_zero_for_identical(self):
        img = checkerboard(8)
        assert rmse(img, img) == 0.0
        assert psnr(img, img) == float("inf")

    def test_rmse_known_value(self):
        a = np.zeros((2, 2, 3), dtype=np.float32)
        b = np.full((2, 2, 3), 0.5, dtype=np.float32)
        assert rmse(a, b) == pytest.approx(0.5)
        assert psnr(a, b) == pytest.approx(20 * np.log10(1 / 0.5))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((2, 2, 3)), np.zeros((3, 3, 3)))

    def test_mixed_dtypes_compare(self):
        img = checkerboard(8)
        assert rmse(img, to_uint8(img)) < 0.01


class TestParallelRenderer:
    @pytest.fixture(scope="class")
    def scene(self):
        vol = neg_hip(size=24)
        tf = preset("neghip")
        cam = orbit_camera(1.1, 0.7, radius=4.0, resolution=32)
        return vol, tf, cam

    def test_inline_matches_serial(self, scene):
        vol, tf, cam = scene
        serial = RaycastRenderer(vol, tf).render(cam)
        par = ParallelRenderer(vol, tf, workers=1).render_many([cam])[0]
        np.testing.assert_allclose(par, serial, atol=1e-6)

    @pytest.fixture()
    def small_bundles(self, monkeypatch):
        """A cap of 300 rays, so a few small views make several bundles
        and ``render_many`` goes through the pool."""
        monkeypatch.setattr(raycast, "BUNDLE_RAYS", 300)

    def test_render_many_preserves_order(self, scene, small_bundles):
        vol, tf, _ = scene
        cams = [
            orbit_camera(0.8 + 0.1 * i, 0.2 * i, radius=4.0, resolution=12)
            for i in range(4)
        ]
        assert raycast.view_bundles(cams, 2) == [(0, 2), (2, 4)]
        pr = ParallelRenderer(vol, tf, workers=2)
        many = pr.render_many(cams)
        serial = [RaycastRenderer(vol, tf).render(c) for c in cams]
        for a, b in zip(many, serial):
            np.testing.assert_array_equal(a, b)

    def test_render_many_empty(self, scene):
        vol, tf, _ = scene
        assert ParallelRenderer(vol, tf, workers=2).render_many([]) == []

    def test_worker_count_validation(self, scene):
        vol, tf, _ = scene
        with pytest.raises(ValueError):
            ParallelRenderer(vol, tf, workers=0)

    def test_shared_memory_render_many_matches_serial(self, scene,
                                                      small_bundles):
        """Several bundles, one pool task each, land in one flat
        shared-memory buffer; the frames equal the serial ones."""
        vol, tf, _ = scene
        cams = [
            orbit_camera(0.9 + 0.2 * i, 0.3 * i, radius=4.0, resolution=16)
            for i in range(4)
        ]
        assert len(raycast.view_bundles(cams, 2)) == 4
        pr = ParallelRenderer(vol, tf, workers=2)
        assert processes.start_context().get_start_method() == "fork"
        serial = [RaycastRenderer(vol, tf).render(c) for c in cams]
        for a, b in zip(pr.render_many(cams), serial):
            np.testing.assert_array_equal(a, b)

    def test_spawn_render_many_matches_serial(self, scene, small_bundles,
                                              monkeypatch):
        monkeypatch.setattr(processes, "start_context",
                            lambda: mp.get_context("spawn"))
        vol, tf, _ = scene
        cams = [
            orbit_camera(1.0 + 0.2 * i, 0.4 * i, radius=4.0, resolution=12)
            for i in range(3)
        ]
        pr = ParallelRenderer(vol, tf, workers=2)
        serial = [RaycastRenderer(vol, tf).render(c) for c in cams]
        for a, b in zip(pr.render_many(cams), serial):
            np.testing.assert_array_equal(a, b)

    def test_mixed_resolution_through_shared_buffer(self, scene,
                                                    small_bundles):
        """Views of different sizes share the one flat buffer at their
        own ray offsets."""
        vol, tf, _ = scene
        cams = [
            orbit_camera(1.0, 0.5, radius=4.0, resolution=16),
            orbit_camera(1.2, 0.8, radius=4.0, resolution=12),
            orbit_camera(1.4, 1.1, radius=4.0, resolution=7),
        ]
        assert raycast.view_bundles(cams) == [(0, 1), (1, 3)]
        assert raycast.view_bundles(cams, 2) == [(0, 1), (1, 2), (2, 3)]
        pr = ParallelRenderer(vol, tf, workers=2)
        frames = pr.render_many(cams)
        assert [f.shape for f in frames] == [
            (16, 16, 3), (12, 12, 3), (7, 7, 3)]
        serial = [RaycastRenderer(vol, tf).render(c) for c in cams]
        for a, b in zip(frames, serial):
            np.testing.assert_array_equal(a, b)

    def test_macrocells_prepared_once_in_parent(self, scene):
        """The parallel front end builds the acceleration structure at
        construction time so workers inherit it instead of rebuilding."""
        vol, tf, _ = scene
        pr = ParallelRenderer(vol, tf, workers=2)
        assert pr._inline._cells is not None
