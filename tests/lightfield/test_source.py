"""Tests for view-set payload sources (real DB adapter + synthetic)."""

import hashlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lightfield import source as source_module
from repro.lightfield.build import LightFieldBuilder
from repro.lightfield.compression import codec_for_payload
from repro.lightfield.lattice import CameraLattice
from repro.lightfield.source import SyntheticSource
from repro.lightfield.viewset import ViewSet
from repro.render.raycast import RenderSettings
from repro.volume import neg_hip, preset

from .reference_source import DatabaseSource, reference_viewset


@pytest.fixture(scope="module")
def lattice():
    return CameraLattice(n_theta=6, n_phi=12, l=3)


class TestSyntheticSource:
    def test_payload_is_decodable_viewset(self, lattice):
        src = SyntheticSource(lattice, resolution=48)
        payload = src.payload((1, 2))
        vs, _ = codec_for_payload(payload).decompress(payload)
        assert vs.key == (1, 2)
        assert vs.resolution == 48
        assert vs.l == lattice.l

    def test_deterministic(self, lattice, monkeypatch):
        monkeypatch.setattr(source_module, "SEED", 5)
        a = SyntheticSource(lattice, resolution=32).payload((0, 1))
        b = SyntheticSource(lattice, resolution=32).payload((0, 1))
        assert a == b

    def test_seed_changes_content(self, lattice, monkeypatch):
        monkeypatch.setattr(source_module, "SEED", 5)
        a = SyntheticSource(lattice, resolution=32).payload((0, 1))
        monkeypatch.setattr(source_module, "SEED", 6)
        b = SyntheticSource(lattice, resolution=32).payload((0, 1))
        assert a != b

    def test_different_keys_differ(self, lattice):
        src = SyntheticSource(lattice, resolution=32)
        assert src.payload((0, 0)) != src.payload((1, 1))

    def test_cache_returns_same_object(self, lattice):
        src = SyntheticSource(lattice, resolution=32)
        assert src.payload((0, 0)) is src.payload((0, 0))

    def test_compression_ratio_in_paper_band(self, lattice):
        """The calibrated generator must land near the paper's 5-7x."""
        src = SyntheticSource(lattice, resolution=200)
        payload = src.payload((1, 1))
        ratio = ViewSet.payload_size(lattice.l, 200) / len(payload)
        assert 4.0 < ratio < 8.5

    def test_noise_fraction_controls_ratio(self, lattice, monkeypatch):
        monkeypatch.setattr(source_module, "NOISE_FRACTION", 0.0)
        smooth = SyntheticSource(lattice, resolution=96)
        raw = ViewSet.payload_size(lattice.l, 96)
        r_smooth = raw / len(smooth.payload((0, 0)))
        monkeypatch.setattr(source_module, "NOISE_FRACTION", 0.5)
        noisy = SyntheticSource(lattice, resolution=96)
        r_noisy = raw / len(noisy.payload((0, 0)))
        assert r_smooth > r_noisy

    def test_silhouette_background_is_black(self, lattice):
        src = SyntheticSource(lattice, resolution=64)
        vs = src.viewset((0, 0))
        # image corners are outside the inner-sphere silhouette
        corners = vs.images[:, :, 0, 0, :]
        assert np.all(corners == 0)

    def test_validation(self, lattice):
        with pytest.raises(ValueError):
            SyntheticSource(lattice, resolution=0)


#: sha256 over the per-payload sha256 digests, in ``all_viewsets()`` order, of
#: the default source (seed 2003, noise 0.13, zlib 6) — recorded at PR 20,
#: before synthesis changed.  The three shapes are the ones ``perf/`` sets
#: up: ``browse_paper``, the ``fleet_*`` family, ``client_playback``'s
#: reference size (first six keys; 4.3 MB raw each).  Like ``GOLDEN``'s
#: payload sizes they are this platform's bytes (numpy's float32 ``sin``,
#: zlib 1.2.13); the ``==`` tests below hold wherever numpy does.
PAYLOAD_PINS = [
    ((24, 48, 6), 64, None,
     "ff47cbb5b1102e755250fc95fc4d1c4e4b650b43e0474283419f32572ee54c39"),
    ((18, 36, 3), 64, None,
     "5945fb0fc2754405e55e9ccae65d738984bdbcf25d28df77bb858c1254c23446"),
    ((12, 24, 6), 200, 6,
     "a60980f47cd59c8595f5d6e87627c73e3f0ad60a5c709a991d30c0d929aa93ac"),
]


class TestPayloadBytesPinned:
    """Synthetic payloads are data: no change to how they are made moves one."""

    @pytest.mark.parametrize("shape,resolution,first,pin", PAYLOAD_PINS)
    def test_payload_sha256(self, shape, resolution, first, pin):
        src = SyntheticSource(CameraLattice(*shape), resolution)
        digest = hashlib.sha256()
        for key in list(src.lattice.all_viewsets())[:first]:
            digest.update(hashlib.sha256(src.payload(key)).digest())
        assert digest.hexdigest() == pin

    @pytest.mark.parametrize("resolution", [1, 2, 17, 33, 64, 65, 200])
    @pytest.mark.parametrize("noise", [0.0, 0.13, 0.3, 1.0])
    def test_equals_reference_at_simd_edges(self, resolution, noise,
                                            monkeypatch):
        """Widths around the vector lanes, and the figures' own 200²."""
        monkeypatch.setattr(source_module, "NOISE_FRACTION", noise)
        src = SyntheticSource(CameraLattice(12, 24, 2), resolution)
        assert src.viewset((1, 3)) == reference_viewset(src, (1, 3))

    @settings(max_examples=60, deadline=None)
    @given(
        resolution=st.integers(1, 80),
        l=st.integers(1, 6),
        noise=st.sampled_from([0.0, 0.13, 0.3, 1.0]),
        seed=st.integers(0, 2**31),
        vi=st.integers(0, 5),
        vj=st.integers(0, 11),
    )
    def test_equals_reference(self, resolution, l, noise, seed, vi, vj):
        src = SyntheticSource(CameraLattice(6 * l, 12 * l, l), resolution)
        with patch.object(source_module, "NOISE_FRACTION", noise), \
                patch.object(source_module, "SEED", seed):
            assert src.viewset((vi, vj)) == reference_viewset(src, (vi, vj))


class TestDatabaseSource:
    def test_adapts_complete_database(self):
        lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
        builder = LightFieldBuilder(
            neg_hip(size=16), preset("neghip"), lattice, resolution=16,
            workers=1, settings=RenderSettings(shaded=False),
        )
        db = builder.build()
        src = DatabaseSource(db)
        payload = src.payload((0, 0))
        assert payload == db.payload((0, 0))
        assert src.resolution == 16

    def test_rejects_incomplete_database(self):
        lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
        builder = LightFieldBuilder(
            neg_hip(size=16), preset("neghip"), lattice, resolution=16,
            workers=1, settings=RenderSettings(shaded=False),
        )
        db = builder.build(keys=[(0, 0)])
        with pytest.raises(ValueError):
            DatabaseSource(db)
