"""The flat-index trilinear kernel equals the straightforward oracle, bit for bit.

``VolumeGrid.sample`` / ``gradient`` run on
``repro.volume.grid.axis_terms`` + ``lerp_cells``; the per-lookup bodies
they replaced live in ``reference_trilinear.py``.  Equality here is
``np.array_equal`` — the generator's frames and payload CRCs hang off it.
"""

import itertools
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.volume import grid
from repro.volume.grid import VolumeGrid

from .reference_trilinear import reference_gradient, reference_sample


def probe_points(volume, rng, n=48):
    """World points covering every class of position the kernel treats apart."""
    shape = np.asarray(volume.shape)
    hi = (shape - 1).astype(np.float64)

    def world(idx):
        return idx * volume._voxel - volume._half_size

    interior = rng.uniform(0.0, hi, size=(n, 3))
    grid_points = rng.integers(0, shape, size=(n, 3)).astype(np.float64)
    # faces, edges and corners: each coordinate snapped to an end w.p. 1/2
    snapped = rng.random((n, 3)) < 0.5
    ends = rng.integers(0, 2, size=(n, 3)) * hi
    on_box = np.where(snapped, ends, interior)
    corners = np.array(list(itertools.product(*[(0.0, h) for h in hi])))
    # the same faces in world space (+-half_size exactly), then 1 ulp each way
    world_box = np.where(
        snapped, np.where(ends == 0, -1.0, 1.0) * volume._half_size,
        world(interior),
    )
    ulp_out = np.nextafter(world_box, np.sign(world_box) * np.inf)
    ulp_in = np.nextafter(world_box, 0.0)
    # either side of the 1e-6 face tolerance, in index units
    band = [
        np.where(snapped, np.where(ends == 0, -d, hi + d), interior)
        for d in (1e-6 - 1e-9, 1e-6 + 1e-9)
    ]
    far = rng.uniform(-3.0 * hi - 5.0, 4.0 * hi + 5.0, size=(n, 3))
    non_finite = np.array(
        [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]]
    )
    return np.vstack([
        world(interior), world(grid_points), world(on_box), world(corners),
        world_box, ulp_out, ulp_in, world(band[0]), world(band[1]),
        world(far), non_finite,
    ])


class TestKernelEqualsOracle:
    @given(
        shape=st.tuples(*[st.integers(2, 9)] * 3),
        seed=st.integers(0, 2**16),
        h_voxels=st.one_of(st.none(), st.floats(0.05, 2.5)),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_and_gradient(self, shape, seed, h_voxels):
        rng = np.random.default_rng(seed)
        volume = VolumeGrid(data=rng.standard_normal(shape), extent=1.5)
        pts = probe_points(volume, rng)
        out = volume.sample(pts)
        assert out.dtype == np.float32
        assert np.array_equal(out, reference_sample(volume, pts))
        h = None if h_voxels is None else h_voxels * volume._voxel
        with patch.object(grid, "GRADIENT_STEP_VOXELS",
                          0.5 if h_voxels is None else h_voxels):
            grad = volume.gradient(pts)
        assert grad.dtype == np.float32 and grad.flags.c_contiguous
        assert np.array_equal(grad, reference_gradient(volume, pts, h))

    def test_thin_axis(self):
        """An axis of two samples: base index 0 is the only cell."""
        rng = np.random.default_rng(5)
        volume = VolumeGrid(data=rng.standard_normal((7, 2, 4)))
        pts = probe_points(volume, rng, n=200)
        assert np.array_equal(volume.sample(pts), reference_sample(volume, pts))
        assert np.array_equal(
            volume.gradient(pts), reference_gradient(volume, pts)
        )

    def test_empty_input(self):
        volume = VolumeGrid(data=np.ones((4, 4, 4)))
        none = np.empty((0, 3))
        assert volume.sample(none).shape == (0,)
        assert volume.gradient(none).shape == (0, 3)
        assert np.array_equal(volume.sample(none), reference_sample(volume, none))

    def test_nothing_inside(self):
        volume = VolumeGrid(data=np.ones((4, 4, 4)))
        pts = np.full((5, 3), 7.0)
        np.testing.assert_array_equal(volume.sample(pts), np.zeros(5))
        np.testing.assert_array_equal(volume.gradient(pts), np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((4, 2))])
    def test_rejects_points_that_are_not_n_by_3(self, bad):
        volume = VolumeGrid(data=np.ones((4, 4, 4)))
        with pytest.raises(ValueError):
            volume.sample(bad)
        with pytest.raises(ValueError):
            volume.gradient(bad)


class TestNoStaleView:
    """``VolumeGrid`` is mutable: the flat view is taken per call."""

    def test_in_place_edit_is_seen(self):
        volume = VolumeGrid(data=np.zeros((4, 4, 4)))
        center = np.zeros((1, 3))
        assert volume.sample(center)[0] == 0.0
        volume.data[...] = 2.0
        assert volume.sample(center)[0] == 2.0
        volume.data[:2] = 0.0  # lower x half; the center straddles it
        assert volume.sample(center)[0] == 1.0
        assert volume.gradient(center)[0, 0] > 0.0

    def test_rebinding_is_seen(self):
        volume = VolumeGrid(data=np.zeros((4, 4, 4)))
        center = np.zeros((1, 3))
        assert volume.sample(center)[0] == 0.0
        volume.data = np.full((4, 4, 4), 3.0, dtype=np.float32)
        assert volume.sample(center)[0] == 3.0
        assert np.array_equal(
            volume.sample(center), reference_sample(volume, center)
        )

