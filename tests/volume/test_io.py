"""Tests for volume file input (raw bricks)."""

import numpy as np
import pytest

from repro.volume.grid import VolumeGrid
from repro.volume import io as volume_io
from repro.volume.io import read_raw
from repro.volume.synthetic import neg_hip


def write_brick(path, data):
    """Write an ``(nx, ny, nz)`` array the volvis way: x fastest."""
    path.write_bytes(np.ascontiguousarray(data.transpose(2, 1, 0)).tobytes())


class TestRaw:
    def test_roundtrip_uint8(self, tmp_path):
        vol = neg_hip(size=16)
        lo, hi = vol.value_range
        p = tmp_path / "vol.raw"
        write_brick(p, np.rint((vol.data - lo) / (hi - lo) * 255.0)
                    .astype(np.uint8))
        back = read_raw(p, shape=(16, 16, 16), dtype="uint8")
        # uint8 quantization: within one level after normalization
        assert back.shape == (16, 16, 16)
        np.testing.assert_allclose(back.data, vol.data, atol=1.5 / 255)

    def test_roundtrip_float32_exact(self, tmp_path, monkeypatch):
        monkeypatch.setattr(volume_io, "NORMALIZE", False)
        vol = neg_hip(size=12)
        p = tmp_path / "vol.f32"
        write_brick(p, vol.data.astype(np.float32))
        back = read_raw(p, shape=(12, 12, 12), dtype="float32")
        np.testing.assert_array_equal(back.data, vol.data)

    def test_x_fastest_disk_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(volume_io, "NORMALIZE", False)
        """The volvis convention: x varies fastest in the file."""
        raw = np.zeros(2 * 3 * 4, dtype=np.float32)
        raw[1] = 7.0  # second sample on disk
        p = tmp_path / "o.raw"
        p.write_bytes(raw.tobytes())
        back = read_raw(p, shape=(2, 3, 4), dtype="float32")
        assert back.data[1, 0, 0] == 7.0  # is the second x sample

    def test_size_mismatch_rejected(self, tmp_path):
        p = tmp_path / "short.raw"
        p.write_bytes(b"\x00" * 100)
        with pytest.raises(ValueError):
            read_raw(p, shape=(16, 16, 16))

    @pytest.mark.parametrize("shape, axis", [
        ((-4, -4, 64), "nx"), ((4, 0, 64), "ny"), ((4, 4, -64), "nz")])
    def test_nonpositive_axis_is_named(self, tmp_path, shape, axis):
        """``--shape -4,-4,64`` multiplies out to the file's 1024 bytes;
        it is refused by name, not inside numpy's reshape."""
        p = tmp_path / "k.raw"
        p.write_bytes(b"\x00" * 1024)
        with pytest.raises(ValueError, match=f"{axis} = "):
            read_raw(p, shape=shape)

    def test_anisotropic_shape(self, tmp_path, monkeypatch):
        monkeypatch.setattr(volume_io, "NORMALIZE", False)
        rng = np.random.default_rng(0)
        data = rng.random((4, 6, 8)).astype(np.float32)
        p = tmp_path / "a.raw"
        write_brick(p, data)
        back = read_raw(p, shape=(4, 6, 8), dtype="float32")
        np.testing.assert_array_equal(back.data, data)
        assert isinstance(back, VolumeGrid)
