"""Tests for the min-max macrocell grid and its conservativeness contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.volume import accel
from repro.volume.accel import MacrocellGrid, _dilate26
from repro.volume.grid import VolumeGrid
from repro.volume.synthetic import neg_hip
from repro.volume.transfer import TransferFunction, preset

from .reference_accel import opacity_only, ray_intervals


def random_tf(rng, n_points=5):
    vals = np.sort(rng.random(n_points))
    vals[0], vals[-1] = 0.0, 1.0
    rows = [
        (v, rng.random(), rng.random(), rng.random(), float(rng.random() * 8))
        for v in vals
    ]
    return TransferFunction.from_list(rows)


class TestMaxOpacityIn:
    def test_degenerate_range_equals_pointwise(self):
        tf = preset("neghip")
        v = np.linspace(0, 1, 101)
        np.testing.assert_allclose(
            tf.max_opacity_in(v, v), opacity_only(tf, v), rtol=1e-6
        )

    def test_interior_control_point_dominates(self):
        # peak at 0.5 must be found even though both endpoints map to 0
        tf = TransferFunction.from_list(
            [(0, 0, 0, 0, 0.0), (0.5, 1, 1, 1, 7.0), (1, 0, 0, 0, 0.0)]
        )
        assert tf.max_opacity_in(0.1, 0.9) == pytest.approx(7.0)
        # a range strictly inside one linear piece is endpoint-dominated
        assert tf.max_opacity_in(0.6, 0.8) == pytest.approx(
            max(opacity_only(tf, 0.6), opacity_only(tf, 0.8)), rel=1e-6
        )

    def test_full_range_is_global_max(self):
        tf = preset("hot-core")
        assert tf.max_opacity_in(0.0, 1.0) == pytest.approx(
            float(tf.points[:, 4].max())
        )

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            preset("neghip").max_opacity_in(0.8, 0.2)

    def test_broadcasts(self):
        tf = preset("neghip")
        out = tf.max_opacity_in(np.zeros((3, 4)), np.full((3, 4), 1.0))
        assert out.shape == (3, 4)

    @given(
        seed=st.integers(0, 2**31 - 1),
        lo=st.floats(0, 1),
        width=st.floats(0, 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_dense_sampling(self, seed, lo, width):
        """The range max upper-bounds (and is attained by) dense samples."""
        rng = np.random.default_rng(seed)
        tf = random_tf(rng)
        hi = min(1.0, lo + width)
        bound = float(tf.max_opacity_in(lo, hi))
        dense = opacity_only(tf, np.linspace(lo, hi, 257))
        assert bound >= dense.max() - 1e-6
        # exactness: the bound is attained at an endpoint or control point
        candidates = [lo, hi] + [
            float(v) for v in tf.points[:, 0] if lo <= v <= hi
        ]
        attained = opacity_only(tf, np.asarray(candidates)).max()
        assert bound == pytest.approx(float(attained), rel=1e-5, abs=1e-6)


class TestMacrocellGrid:
    def test_minmax_bounds_every_voxel(self):
        vol = neg_hip(size=21)  # not a multiple of cell_size
        grid = MacrocellGrid.build(vol)
        cs = grid.cell_size
        data = vol.data
        for c in np.ndindex(grid.minv.shape):
            sl = tuple(
                slice(ci * cs, min((ci + 1) * cs + 1, n))
                for ci, n in zip(c, data.shape)
            )
            block = data[sl]
            assert grid.minv[c] <= block.min() + 1e-7
            assert grid.maxv[c] >= block.max() - 1e-7

    def test_boundary_plane_overlap(self):
        """A spike on a cell-boundary voxel plane must appear in BOTH cells:
        trilinear samples on either side interpolate from that plane."""
        data = np.zeros((9, 9, 9), dtype=np.float32)
        data[4, 4, 4] = 1.0  # voxel 4 is the boundary plane for cs=4
        grid = MacrocellGrid.build(VolumeGrid(data))
        assert grid.minv.shape == (2, 2, 2)
        assert grid.maxv[0, 0, 0] == 1.0
        assert grid.maxv[1, 1, 1] == 1.0

    def test_classify_transparent_tf_all_inactive(self):
        vol = neg_hip(size=16)
        tf = TransferFunction.from_list(
            [(0, 0, 0, 0, 0.0), (1, 1, 1, 1, 0.0)]
        )
        cells = MacrocellGrid.build(vol).classify(tf)
        assert cells.active_fraction == 0.0
        assert not cells.reachable.any()

    def test_classify_neghip_mostly_empty(self):
        """The acceptance scene: most of negHip is empty under its preset."""
        cells = MacrocellGrid.build(neg_hip(size=64)).classify(
            preset("neghip")
        )
        assert 0.0 < cells.active_fraction < 0.5

    def test_classify_eps_monotone(self, monkeypatch):
        grid = MacrocellGrid.build(neg_hip(size=32))
        tf = preset("ramp")
        loose = grid.classify(tf).mask
        monkeypatch.setattr(accel, "SKIP_EXTINCTION", 1.0)
        tight = grid.classify(tf).mask
        assert (tight <= loose).all()

    def test_dilate26_reaches_all_neighbors(self):
        m = np.zeros((5, 5, 5), dtype=bool)
        m[2, 2, 2] = True
        d = _dilate26(m)
        assert d.sum() == 27
        assert d[1:4, 1:4, 1:4].all()


class TestRaySegments:
    @pytest.fixture(scope="class")
    def scene(self):
        vol = neg_hip(size=32)
        cells = MacrocellGrid.build(vol).classify(
            preset("neghip")
        )
        return vol, cells

    def _random_rays(self, vol, n, seed):
        rng = np.random.default_rng(seed)
        origins = rng.normal(size=(n, 3))
        origins *= (3.0 * vol.bounding_radius) / np.linalg.norm(
            origins, axis=1, keepdims=True
        )
        targets = rng.uniform(-0.5, 0.5, size=(n, 3)) * vol.extent
        dirs = targets - origins
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return origins, dirs

    def test_segments_conservative(self, scene):
        """Every t where extinction can be nonzero lies inside a segment."""
        vol, cells = scene
        tf = preset("neghip")
        origins, dirs = self._random_rays(vol, 64, seed=3)
        t_near, t_far = vol.intersect_rays(origins, dirs)
        ok = t_near < t_far
        origins, dirs = origins[ok], dirs[ok]
        t_near, t_far = t_near[ok], t_far[ok]
        seg_t0, seg_t1, ptr = cells.ray_segments(origins, dirs, t_near, t_far)
        for i in range(len(origins)):
            ts = np.linspace(t_near[i], t_far[i], 400)
            sigma = opacity_only(
                tf, vol.sample(origins[i] + ts[:, None] * dirs[i])
            )
            s0, s1 = seg_t0[ptr[i]:ptr[i + 1]], seg_t1[ptr[i]:ptr[i + 1]]
            for t, s in zip(ts, sigma):
                if s > 0:
                    assert ((s0 <= t) & (t <= s1)).any(), (i, t, s)

    def test_segments_sorted_and_clipped(self, scene):
        vol, cells = scene
        origins, dirs = self._random_rays(vol, 64, seed=4)
        t_near, t_far = vol.intersect_rays(origins, dirs)
        ok = t_near < t_far
        seg_t0, seg_t1, ptr = cells.ray_segments(
            origins[ok], dirs[ok], t_near[ok], t_far[ok]
        )
        assert (seg_t0 <= seg_t1 + 1e-12).all()
        for i in range(int(ok.sum())):
            s0, s1 = seg_t0[ptr[i]:ptr[i + 1]], seg_t1[ptr[i]:ptr[i + 1]]
            assert (np.diff(s0) > 0).all()
            assert (s1 <= t_far[ok][i] + 1e-9).all()

    def test_intervals_summarize_segments(self, scene):
        vol, cells = scene
        origins, dirs = self._random_rays(vol, 32, seed=5)
        t_near, t_far = vol.intersect_rays(origins, dirs)
        ok = t_near < t_far
        args = (origins[ok], dirs[ok], t_near[ok], t_far[ok])
        seg_t0, seg_t1, ptr = cells.ray_segments(*args)
        t0, t1, hit = ray_intervals(cells, *args)
        for i in range(int(ok.sum())):
            if ptr[i] == ptr[i + 1]:
                assert not hit[i]
            else:
                assert hit[i]
                assert t0[i] == seg_t0[ptr[i]]
                assert t1[i] == seg_t1[ptr[i + 1] - 1]

    def test_transparent_tf_yields_no_segments(self):
        vol = neg_hip(size=16)
        tf = TransferFunction.from_list(
            [(0, 0, 0, 0, 0.0), (1, 1, 1, 1, 0.0)]
        )
        cells = MacrocellGrid.build(vol).classify(tf)
        o = np.array([[0.0, 0.0, -5.0]])
        d = np.array([[0.0, 0.0, 1.0]])
        t_near, t_far = vol.intersect_rays(o, d)
        _, _, ptr = cells.ray_segments(o, d, t_near, t_far)
        assert ptr[-1] == 0
        _, _, hit = ray_intervals(cells, o, d, t_near, t_far)
        assert not hit.any()
