"""Tests for pinhole cameras and orbit placement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.camera import Camera, look_at, orbit_camera


class TestLookAt:
    def test_basis_is_orthonormal(self):
        r, u, f = look_at(
            np.array([3.0, 2.0, 1.0]), np.zeros(3), np.array([0.0, 0.0, 1.0])
        )
        for v in (r, u, f):
            assert np.linalg.norm(v) == pytest.approx(1.0)
        assert abs(r @ u) < 1e-12
        assert abs(r @ f) < 1e-12
        assert abs(u @ f) < 1e-12

    def test_forward_points_at_target(self):
        eye = np.array([0.0, 0.0, 5.0])
        _, _, f = look_at(eye, np.zeros(3), np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(f, [0, 0, -1], atol=1e-12)

    def test_degenerate_up_handled(self):
        # up parallel to view direction must not blow up
        r, u, f = look_at(
            np.array([0.0, 0.0, 5.0]), np.zeros(3), np.array([0.0, 0.0, 1.0])
        )
        assert np.isfinite(r).all() and np.isfinite(u).all()

    def test_zero_view_vector_raises(self):
        with pytest.raises(ValueError):
            look_at(np.zeros(3), np.zeros(3), np.array([0.0, 0.0, 1.0]))


class TestCamera:
    def make(self, w=16, h=16, fov=45.0):
        return Camera(
            eye=np.array([0.0, 0.0, 4.0]),
            target=np.zeros(3),
            up=np.array([0.0, 1.0, 0.0]),
            fov_deg=fov,
            width=w,
            height=h,
        )

    def test_ray_count(self):
        cam = self.make(8, 6)
        o, d = cam.rays()
        assert o.shape == (48, 3)
        assert d.shape == (48, 3)

    def test_rays_are_unit(self):
        cam = self.make()
        _, d = cam.rays()
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)

    def test_center_ray_points_at_target(self):
        cam = self.make(15, 15)  # odd => center pixel on axis
        _, d = cam.rays()
        center = d[7 * 15 + 7]
        np.testing.assert_allclose(center, [0, 0, -1], atol=1e-9)

    def test_fov_controls_spread(self):
        narrow = self.make(fov=10.0)
        wide = self.make(fov=90.0)
        _, dn = narrow.rays()
        _, dw = wide.rays()
        # corner ray angle from axis
        axis = np.array([0, 0, -1.0])
        a_n = np.arccos(dn[0] @ axis)
        a_w = np.arccos(dw[0] @ axis)
        assert a_w > a_n

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(w=0)
        with pytest.raises(ValueError):
            self.make(fov=0.0)
        with pytest.raises(ValueError):
            Camera(
                eye=np.zeros(3), target=np.zeros(3),
                up=np.array([0, 1.0, 0]), fov_deg=45, width=4, height=4,
            )


class TestOrbitCamera:
    @given(
        theta=st.floats(0.05, np.pi - 0.05),
        phi=st.floats(0, 2 * np.pi),
    )
    @settings(max_examples=50, deadline=None)
    def test_eye_on_sphere_looking_inward(self, theta, phi):
        cam = orbit_camera(theta, phi, radius=5.0, resolution=4)
        assert np.linalg.norm(cam.eye) == pytest.approx(5.0)
        _, _, forward = cam._basis
        # looking at the origin: forward ≈ -eye/|eye|
        np.testing.assert_allclose(forward, -cam.eye / 5.0, atol=1e-9)

    def test_poles_do_not_degenerate(self):
        for theta in (0.0, np.pi):
            cam = orbit_camera(theta, 0.3, radius=2.0, resolution=4)
            o, d = cam.rays()
            assert np.isfinite(d).all()

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            orbit_camera(1.0, 1.0, radius=0.0, resolution=4)
