"""Tests for the two-sphere parameterization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lightfield import sphere
from repro.lightfield.sphere import (
    TwoSphere,
    angles_to_cartesian,
    cartesian_to_angles,
)

from .reference_synthesis import intersect_sphere, stuv_to_ray


class TestAngleConversions:
    def test_poles(self):
        th, ph = cartesian_to_angles(np.array([[0.0, 0.0, 1.0]]))
        assert th[0] == pytest.approx(0.0)
        th, ph = cartesian_to_angles(np.array([[0.0, 0.0, -1.0]]))
        assert th[0] == pytest.approx(np.pi)

    def test_equator(self):
        th, ph = cartesian_to_angles(np.array([[1.0, 0.0, 0.0]]))
        assert th[0] == pytest.approx(np.pi / 2)
        assert ph[0] == pytest.approx(0.0)

    def test_phi_in_0_2pi(self):
        th, ph = cartesian_to_angles(np.array([[0.0, -1.0, 0.0]]))
        assert ph[0] == pytest.approx(3 * np.pi / 2)

    @given(
        theta=st.floats(0.01, np.pi - 0.01),
        phi=st.floats(0.0, 2 * np.pi - 0.01),
        radius=st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, theta, phi, radius):
        p = angles_to_cartesian(np.array(theta), np.array(phi), radius)
        th, ph = cartesian_to_angles(p[None, :])
        assert th[0] == pytest.approx(theta, abs=1e-9)
        assert ph[0] == pytest.approx(phi, abs=1e-7)
        assert np.linalg.norm(p) == pytest.approx(radius)


class TestTwoSphereValidation:
    def test_inner_must_be_positive(self):
        with pytest.raises(ValueError):
            TwoSphere(r_inner=0.0, r_outer=1.0)

    def test_outer_must_exceed_inner(self):
        with pytest.raises(ValueError):
            TwoSphere(r_inner=1.0, r_outer=1.0)


class TestSphereIntersection:
    @pytest.fixture()
    def ts(self):
        return TwoSphere(r_inner=1.0, r_outer=2.0)

    def test_head_on_entry(self, ts):
        o = np.array([[-5.0, 0.0, 0.0]])
        d = np.array([[1.0, 0.0, 0.0]])
        t, hit = intersect_sphere(ts, o, d, 2.0)
        assert hit[0]
        assert t[0] == pytest.approx(3.0)  # enters outer sphere at x=-2

    def test_miss(self, ts):
        o = np.array([[-5.0, 3.0, 0.0]])
        d = np.array([[1.0, 0.0, 0.0]])
        _, hit = intersect_sphere(ts, o, d, 2.0)
        assert not hit[0]

    def test_origin_inside_returns_exit(self, ts):
        o = np.array([[0.0, 0.0, 0.0]])
        d = np.array([[0.0, 0.0, 1.0]])
        t, hit = intersect_sphere(ts, o, d, 2.0)
        assert hit[0]
        assert t[0] == pytest.approx(2.0)

    def test_behind_ray_misses(self, ts):
        o = np.array([[5.0, 0.0, 0.0]])
        d = np.array([[1.0, 0.0, 0.0]])  # sphere is behind
        _, hit = intersect_sphere(ts, o, d, 2.0)
        assert not hit[0]


def ray_to_stuv(ts, origins, dirs):
    """``(s, t, u, v, valid)`` of ``(N, 3)`` rays through ``ts.project``.

    (s, t) are the angles of the float32 inner-sphere points the projection
    hands the synthesizer; invalid rays get NaN angles.
    """
    vidx, p_in, u, v = ts.project(origins.T, dirs.T)
    stuv = np.full((4, len(origins)), np.nan)
    stuv[:2, vidx] = cartesian_to_angles(p_in.T)
    stuv[2, vidx], stuv[3, vidx] = u, v
    valid = np.zeros(len(origins), dtype=bool)
    valid[vidx] = True
    return (*stuv, valid)


class TestRayToSTUV:
    @pytest.fixture()
    def ts(self):
        return TwoSphere(r_inner=1.0, r_outer=2.0)

    def test_one_eye_and_per_ray_origins_agree(self, ts):
        """A pinhole's rays map the same from a (3,) eye as per ray."""
        rng = np.random.default_rng(4)
        eye = np.array([-3.0, 0.5, 0.8])
        d = rng.normal(size=(3, 400)) + (-eye)[:, None]
        d /= np.linalg.norm(d, axis=0)
        one = ts.project(eye, d)
        per_ray = ts.project(np.repeat(eye[:, None], 400, axis=1), d)
        assert 0 < len(one[0]) < 400           # some rays miss
        for a, b in zip(one, per_ray):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-6)

    def test_central_ray(self, ts):
        """A ray straight at the center hits both spheres on the same axis."""
        o = np.array([[-5.0, 0.0, 0.0]])
        d = np.array([[1.0, 0.0, 0.0]])
        s, t, u, v, valid = ray_to_stuv(ts, o, d)
        assert valid[0]
        # entry points are at -x: theta = pi/2, phi = pi
        assert s[0] == pytest.approx(np.pi / 2)
        assert t[0] == pytest.approx(np.pi)
        assert u[0] == pytest.approx(np.pi / 2)
        assert v[0] == pytest.approx(np.pi)

    def test_ray_missing_inner_sphere_invalid(self, ts):
        o = np.array([[-5.0, 1.5, 0.0]])
        d = np.array([[1.0, 0.0, 0.0]])  # passes between the spheres
        s, t, u, v, valid = ray_to_stuv(ts, o, d)
        assert not valid[0]
        assert np.isnan(s[0])

    def test_ray_missing_everything(self, ts):
        o = np.array([[-5.0, 10.0, 0.0]])
        d = np.array([[1.0, 0.0, 0.0]])
        _, _, _, _, valid = ray_to_stuv(ts, o, d)
        assert not valid[0]

    @given(
        theta_o=st.floats(0.1, np.pi - 0.1),
        phi_o=st.floats(0.0, 2 * np.pi - 1e-6),
        theta_i=st.floats(0.1, np.pi - 0.1),
        phi_i=st.floats(0.0, 2 * np.pi - 1e-6),
    )
    @settings(max_examples=100, deadline=None)
    def test_stuv_indexes_the_same_geometric_ray(
        self, theta_o, phi_o, theta_i, phi_i
    ):
        """ray -> stuv -> ray reproduces the same oriented line.

        Not every (s,t,u,v) is a *canonical* index (the paper: occluded
        combinations are invalid — an inner point on the far hemisphere is
        the ray's exit, not entry), but the stuv returned by ray_to_stuv
        must always rebuild the identical ray.
        """
        from hypothesis import assume

        ts = TwoSphere(r_inner=1.0, r_outer=3.0)
        o, d = stuv_to_ray(
            ts, np.array(theta_i), np.array(phi_i),
            np.array(theta_o), np.array(phi_o),
        )
        o_out = o[None, :] - 0.5 * d[None, :]
        assume(np.linalg.norm(o_out) > 3.0 + 1e-9)  # start outside
        s, t, u, v, valid = ray_to_stuv(ts, o_out, d[None, :])
        assume(bool(valid[0]))
        o2, d2 = stuv_to_ray(ts, s[:1], t[:1], u[:1], v[:1])
        # same direction ...
        np.testing.assert_allclose(d2[0], d[None, :][0], atol=1e-7)
        # ... and o2 lies on the original ray
        w = o2[0] - o_out[0]
        cross = np.linalg.norm(np.cross(w, d[None, :][0]))
        assert cross == pytest.approx(0.0, abs=1e-6)

    def test_entry_side_roundtrip_exact(self):
        """For a near-side inner point, angles round-trip exactly."""
        ts = TwoSphere(r_inner=1.0, r_outer=3.0)
        theta_o, phi_o = 1.2, 0.7
        theta_i, phi_i = 1.25, 0.74  # close to the outer point: near side
        o, d = stuv_to_ray(
            ts, np.array(theta_i), np.array(phi_i),
            np.array(theta_o), np.array(phi_o),
        )
        o_out = o[None, :] - 0.5 * d[None, :]
        s, t, u, v, valid = ray_to_stuv(ts, o_out, d[None, :])
        assert valid[0]
        assert u[0] == pytest.approx(theta_o, abs=1e-6)
        assert s[0] == pytest.approx(theta_i, abs=1e-6)
        assert np.cos(v[0] - phi_o) == pytest.approx(1.0, abs=1e-9)
        assert np.cos(t[0] - phi_i) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_stuv_raises(self):
        ts = TwoSphere(r_inner=1.0, r_outer=2.0)
        # coincident points are impossible on distinct spheres, but a zero
        # direction can be engineered with r_outer == r_inner only; the
        # guard still must not be reachable without raising
        o, d = stuv_to_ray(
            ts, np.array(0.5), np.array(0.5), np.array(0.5), np.array(0.5)
        )
        assert np.isfinite(d).all()


class TestFov:
    def test_fov_covers_inner_sphere(self, monkeypatch):
        monkeypatch.setattr(sphere, "FOV_MARGIN", 1.0)
        ts = TwoSphere(r_inner=1.0, r_outer=2.5)
        fov = np.radians(ts.camera_fov_deg())
        assert fov / 2 == pytest.approx(np.arcsin(1.0 / 2.5))

    def test_margin_increases_fov(self, monkeypatch):
        ts = TwoSphere(r_inner=1.0, r_outer=2.5)
        monkeypatch.setattr(sphere, "FOV_MARGIN", 1.05)
        wide = ts.camera_fov_deg()
        monkeypatch.setattr(sphere, "FOV_MARGIN", 1.0)
        assert wide > ts.camera_fov_deg()
