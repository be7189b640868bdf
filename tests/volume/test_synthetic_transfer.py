"""Tests for synthetic datasets and transfer functions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.volume import synthetic
from repro.volume.synthetic import (
    gaussian_blobs,
    hydrogen_orbital,
    lattice_points,
    neg_hip,
    vortex,
)
from repro.volume.transfer import _PRESETS, TransferFunction, preset

from .reference_accel import opacity_only
from .reference_neghip import reference_neg_hip


class TestLatticePoints:
    def test_shape_and_bounds(self):
        pts = lattice_points((4, 5, 6))
        assert pts.shape == (4 * 5 * 6, 3)
        assert pts.min() == -1.0
        assert pts.max() == 1.0


class TestNegHip:
    def test_default_is_64_cubed(self):
        v = neg_hip()
        assert v.shape == (64, 64, 64)
        assert v.name == "negHip-synthetic"

    def test_normalized_to_unit_range(self):
        v = neg_hip(size=32)
        lo, hi = v.value_range
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(1.0)

    def test_deterministic_by_seed(self, monkeypatch):
        monkeypatch.setattr(synthetic, "NEG_HIP_SEED", 5)
        a = neg_hip(size=16)
        b = neg_hip(size=16)
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ(self, monkeypatch):
        monkeypatch.setattr(synthetic, "NEG_HIP_SEED", 5)
        a = neg_hip(size=16)
        monkeypatch.setattr(synthetic, "NEG_HIP_SEED", 6)
        b = neg_hip(size=16)
        assert not np.array_equal(a.data, b.data)

    def test_structure_is_interior(self):
        """Charges live inside r<0.6, so boundary voxels are smooth/mid."""
        v = neg_hip(size=32)
        boundary = np.concatenate([
            v.data[0].ravel(), v.data[-1].ravel(),
            v.data[:, 0].ravel(), v.data[:, -1].ravel(),
        ])
        # extrema (0 and 1 after normalization) are near charges, not edges
        assert boundary.min() > 0.0
        assert boundary.max() < 1.0

    def test_size_validation(self):
        with pytest.raises(ValueError):
            neg_hip(size=4)

    @pytest.mark.parametrize("size", [8, 16, 32, 48, 64])
    def test_blocks_are_the_broadcast_bit_for_bit(self, size):
        got, want = neg_hip(size=size), reference_neg_hip(size=size)
        assert got.data.tobytes() == want.data.tobytes()

    def test_memory_is_bounded_by_the_block(self):
        """The broadcast peaked at 294 MB here; the blocks stay at the
        volume's own arrays (≈ 13 MB at 64³)."""
        tracemalloc.start()
        try:
            neg_hip(size=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestOtherVolumes:
    @pytest.mark.parametrize(
        "factory", [gaussian_blobs, vortex, hydrogen_orbital]
    )
    def test_normalized_and_shaped(self, factory):
        v = factory(size=24)
        assert v.shape == (24, 24, 24)
        assert v.data.max() == pytest.approx(1.0, abs=1e-5)
        assert v.data.min() >= 0.0


class TestTransferFunction:
    def test_interpolates_between_points(self):
        tf = TransferFunction.from_list(
            [(0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0, 10.0)]
        )
        rgb, a = tf(np.array([0.5]))
        np.testing.assert_allclose(rgb[0], [0.5, 0.5, 0.5], atol=1e-6)
        assert a[0] == pytest.approx(5.0)

    def test_clips_out_of_range_values(self):
        tf = preset("ramp")
        rgb_low, _ = tf(np.array([-5.0]))
        rgb_zero, _ = tf(np.array([0.0]))
        np.testing.assert_allclose(rgb_low, rgb_zero)

    def test_unsorted_points_are_sorted(self):
        tf = TransferFunction.from_list(
            [(1.0, 1, 1, 1, 1.0), (0.0, 0, 0, 0, 0.0), (0.5, 1, 0, 0, 2.0)]
        )
        assert list(tf.points[:, 0]) == [0.0, 0.5, 1.0]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            TransferFunction(points=np.zeros((3, 4)))
        with pytest.raises(ValueError):
            TransferFunction(points=np.zeros((1, 5)))

    def test_rejects_span_not_covering_unit(self):
        with pytest.raises(ValueError):
            TransferFunction.from_list(
                [(0.2, 0, 0, 0, 0), (1.0, 1, 1, 1, 1)]
            )

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            TransferFunction.from_list(
                [(0.0, 0, 0, 0, -1.0), (1.0, 1, 1, 1, 1)]
            )

    def test_rejects_out_of_range_color(self):
        with pytest.raises(ValueError):
            TransferFunction.from_list(
                [(0.0, 0, 0, 2.0, 0), (1.0, 1, 1, 1, 1)]
            )

    def test_opacity_only_matches_call(self):
        tf = preset("neghip")
        v = np.linspace(0, 1, 33)
        _, a_full = tf(v)
        a_only = opacity_only(tf, v)
        np.testing.assert_allclose(a_full, a_only, rtol=1e-6)

    @given(v=st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_outputs_always_valid(self, v):
        tf = preset("neghip")
        rgb, a = tf(np.array([v]))
        assert np.all(rgb >= 0) and np.all(rgb <= 1)
        assert a[0] >= 0

    def test_presets_all_load(self):
        for name in sorted(_PRESETS):
            tf = preset(name)
            rgb, a = tf(np.linspace(0, 1, 16))
            assert rgb.shape == (16, 3)

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            preset("no-such-preset")
