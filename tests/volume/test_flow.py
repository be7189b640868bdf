"""Tests for flow-field support (vector fields, streamlines, derived scalars)."""

import numpy as np
import pytest

from repro.volume.flow import (
    VectorField,
    helicity,
    speed,
    streamline_density,
    tornado_flow,
    trace_streamlines,
    vorticity_magnitude,
)


def uniform_field(v=(1.0, 0.0, 0.0), n=8):
    data = np.broadcast_to(
        np.asarray(v, dtype=np.float32), (n, n, n, 3)
    ).copy()
    return VectorField(data=data)


class TestVectorField:
    def test_validation(self):
        with pytest.raises(ValueError):
            VectorField(data=np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            VectorField(data=np.zeros((1, 4, 4, 3)))
        bad = np.zeros((4, 4, 4, 3))
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            VectorField(data=bad)

    def test_sample_uniform_field(self):
        f = uniform_field((2.0, -1.0, 0.5))
        v = f.sample(np.array([[0.1, -0.2, 0.3]]))
        np.testing.assert_allclose(v[0], [2.0, -1.0, 0.5], rtol=1e-6)

    def test_sample_outside_is_zero(self):
        f = uniform_field()
        v = f.sample(np.array([[5.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(v[0], [0, 0, 0])

    def test_point_on_a_face_reads_the_boundary_not_vacuum(self):
        """``(1 + 1) / (2 / 49)`` rounds to 49.00000000000001 > 49: without
        a face tolerance the corner of a 50^3 field sampled as vacuum, and
        a streamline arriving there stopped."""
        f = uniform_field((1.0, 1.0, 1.0), n=50)
        corner = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, -1.0]])
        np.testing.assert_array_equal(f.sample(corner), np.ones((2, 3)))
        past = np.nextafter(corner, np.sign(corner) * np.inf)
        np.testing.assert_array_equal(f.sample(past), np.ones((2, 3)))

    def test_curl_of_rigid_rotation(self):
        """v = omega x r has curl = 2*omega everywhere."""
        n = 16
        from repro.volume.synthetic import lattice_points

        pts = lattice_points((n, n, n))
        omega = np.array([0.0, 0.0, 1.0])
        v = np.cross(omega, pts).reshape(n, n, n, 3)
        f = VectorField(data=v.astype(np.float32))
        c = f.curl()
        interior = c.data[4:-4, 4:-4, 4:-4]
        np.testing.assert_allclose(
            interior.reshape(-1, 3).mean(axis=0), [0, 0, 2.0], atol=0.05
        )


class TestTornado:
    def test_shape_and_finite(self):
        f = tornado_flow(size=16)
        assert f.shape == (16, 16, 16)
        assert np.isfinite(f.data).all()

    def test_swirls_around_core(self):
        """Velocity near the core at z=0 is tangential (counterclockwise)."""
        f = tornado_flow(size=32)
        # at z=0, t=0 the core sits at (0, 0.25)
        p = np.array([[0.35, 0.25, 0.0]])  # to the +x side of the core
        v = f.sample(p)[0]
        assert v[1] > 0  # counterclockwise: +y motion east of the core

    def test_time_animates(self):
        a = tornado_flow(size=12, time=0.0)
        b = tornado_flow(size=12, time=1.0)
        assert not np.array_equal(a.data, b.data)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            tornado_flow(size=2)


class TestDerivedScalars:
    def test_speed_normalized(self):
        g = speed(tornado_flow(size=16))
        assert g.data.max() == pytest.approx(1.0, abs=1e-6)
        assert g.data.min() >= 0.0

    def test_vorticity_peaks_at_core(self):
        g = vorticity_magnitude(tornado_flow(size=32))
        n = 32
        # vorticity at the core column should exceed the domain corner
        core = g.data[n // 2, n // 2 + 4, n // 2]
        corner = g.data[1, 1, 1]
        assert core > corner

    def test_helicity_centered_at_half(self):
        g = helicity(uniform_field())  # uniform flow: zero helicity
        np.testing.assert_allclose(g.data, 0.5, atol=1e-6)

    def test_derived_names(self):
        f = tornado_flow(size=12)
        assert "speed" in speed(f).name
        assert "vorticity" in vorticity_magnitude(f).name
        assert "helicity" in helicity(f).name


class TestStreamlines:
    def test_straight_lines_in_uniform_flow(self):
        f = uniform_field((1.0, 0.0, 0.0))
        seeds = np.array([[-0.5, 0.0, 0.0]])
        lines = trace_streamlines(f, seeds, step=0.1, n_steps=5)
        assert lines.shape == (1, 6, 3)
        # displacement = step * n_steps along +x, nothing else
        np.testing.assert_allclose(
            lines[0, -1], [-0.5 + 0.5, 0.0, 0.0], atol=1e-5
        )

    def test_rk4_circles_rigid_rotation(self):
        """In v = omega x r a particle orbits at constant radius."""
        n = 24
        from repro.volume.synthetic import lattice_points

        pts = lattice_points((n, n, n))
        v = np.cross([0.0, 0.0, 1.0], pts).reshape(n, n, n, 3)
        f = VectorField(data=v.astype(np.float32))
        seeds = np.array([[0.4, 0.0, 0.0]])
        lines = trace_streamlines(f, seeds, step=0.05, n_steps=100)
        radii = np.linalg.norm(lines[0, :, :2], axis=1)
        assert radii.max() - radii.min() < 0.02  # RK4 keeps the orbit tight

    def test_particles_outside_freeze(self):
        f = uniform_field((1.0, 0.0, 0.0))
        seeds = np.array([[5.0, 5.0, 5.0]])
        lines = trace_streamlines(f, seeds, step=0.1, n_steps=3)
        np.testing.assert_allclose(lines[0, -1], [5.0, 5.0, 5.0])

    def test_validation(self):
        f = uniform_field()
        with pytest.raises(ValueError):
            trace_streamlines(f, np.zeros((2, 2)), step=0.1)
        with pytest.raises(ValueError):
            trace_streamlines(f, np.zeros((1, 3)), step=0.0)


class TestStreamlineDensity:
    def test_renderable_volume(self):
        g = streamline_density(tornado_flow(size=16), n_seeds=64,
                               size=24, n_steps=60)
        assert g.shape == (24, 24, 24)
        assert g.data.max() == pytest.approx(1.0, abs=1e-6)
        assert g.data.min() >= 0.0

    def test_density_concentrates_in_flow(self):
        """The tornado pulls particles toward/around the core column."""
        g = streamline_density(tornado_flow(size=16), n_seeds=128,
                               size=24, n_steps=80, seed=3)
        n = 24
        core_col = g.data[n // 2 - 4:n // 2 + 4,
                          n // 2 - 4:n // 2 + 4, :].mean()
        edge = g.data[:2, :2, :].mean()
        assert core_col > edge

    def test_feeds_the_light_field_builder(self):
        """End-to-end: a flow-derived volume renders through the pipeline."""
        from repro.lightfield import CameraLattice, LightFieldBuilder
        from repro.render.raycast import RenderSettings
        from repro.volume import preset

        g = streamline_density(tornado_flow(size=12), n_seeds=32,
                               size=16, n_steps=40)
        builder = LightFieldBuilder(
            g, preset("hot-core"), CameraLattice(6, 12, 3), resolution=12,
            workers=1, settings=RenderSettings(shaded=False),
        )
        vs = builder.render_viewset((1, 2))
        assert vs.images.max() > 0
