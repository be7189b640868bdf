"""Tests for view-set serialization and the lossless codecs."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lightfield.compression import (
    CodecError,
    DeltaZlibCodec,
    ZlibCodec,
    codec_for_payload,
)
from repro.lightfield.viewset import ViewSet, ViewSetFormatError

from .reference_source import to_bytes
from .reference_synthesis import view_for_camera


def random_viewset(l=3, r=16, seed=0, key=(1, 2)):
    rng = np.random.default_rng(seed)
    return ViewSet(
        key=key, images=rng.integers(0, 256, size=(l, l, r, r, 3),
                                     dtype=np.uint8)
    )


def coherent_viewset(l=4, r=24, key=(0, 0)):
    """High-entropy content varying smoothly between adjacent views.

    Each view is the same noisy base image under a slightly different
    brightness — the small-rotation coherence view sets exploit.  Plain LZ
    cannot match the rescaled bytes; deltas between views are tiny.
    """
    rng = np.random.default_rng(42)
    base = rng.integers(40, 216, size=(r, r, 3)).astype(np.float64)
    images = np.empty((l, l, r, r, 3), dtype=np.uint8)
    for a in range(l):
        for b in range(l):
            scale = 1.0 + 0.004 * (a * l + b)
            images[a, b] = np.clip(base * scale, 0, 255).astype(np.uint8)
    return ViewSet(key=key, images=images)


class TestViewSet:
    def test_wire_roundtrip(self):
        vs = random_viewset()
        back = ViewSet.from_bytes(to_bytes(vs))
        assert back == vs
        assert back.key == (1, 2)

    def test_wire_blob_is_header_then_pixel_block(self):
        """Also for pixels that are not one C-ordered block in memory."""
        vs = random_viewset(l=2, r=8)
        blob = to_bytes(vs)
        header = ViewSet.payload_size(2, 8) - vs.nbytes
        assert type(blob) is bytes
        assert blob[header:] == vs.images.tobytes()
        vs.images = vs.images.transpose(1, 0, 2, 3, 4)  # a strided view
        assert not vs.images.flags.c_contiguous
        assert to_bytes(vs) == blob[:header] + vs.images.tobytes()

    def test_properties(self):
        vs = random_viewset(l=3, r=16)
        assert vs.l == 3
        assert vs.resolution == 16
        assert vs.nbytes == 3 * 3 * 16 * 16 * 3

    def test_payload_size_matches(self):
        vs = random_viewset(l=3, r=16)
        assert len(to_bytes(vs)) == ViewSet.payload_size(3, 16)

    def test_view_accessors(self):
        vs = random_viewset(l=3, r=8, key=(2, 5))
        # camera (2*3+1, 5*3+2) is local (1, 2)
        np.testing.assert_array_equal(
            view_for_camera(vs, 7, 17), vs.images[1, 2]
        )

    def test_view_out_of_range(self):
        vs = random_viewset(l=3, r=8)
        with pytest.raises(KeyError):
            view_for_camera(vs, 0, 0)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            ViewSet(key=(0, 0), images=np.zeros((2, 2, 4, 4, 3)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ViewSet(key=(0, 0),
                    images=np.zeros((2, 3, 4, 4, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            ViewSet(key=(0, 0),
                    images=np.zeros((2, 2, 4, 5, 3), dtype=np.uint8))

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(ViewSetFormatError):
            ViewSet.from_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(ViewSetFormatError):
            ViewSet.from_bytes(b"\x00")

    def test_from_bytes_rejects_truncated_payload(self):
        vs = random_viewset()
        blob = to_bytes(vs)
        with pytest.raises(ViewSetFormatError):
            ViewSet.from_bytes(blob[:-1])

    @pytest.mark.parametrize("delta", [-1, +1])
    def test_from_bytes_size_error_names_sizes(self, delta):
        vs = random_viewset()
        blob = to_bytes(vs)
        blob = blob[:-1] if delta < 0 else blob + b"\x00"
        with pytest.raises(
            ViewSetFormatError,
            match=f"payload is {vs.nbytes + delta} bytes, "
                  f"expected {vs.nbytes}",
        ):
            ViewSet.from_bytes(blob)

    def test_from_bytes_does_not_alias_callers_buffer(self):
        vs = random_viewset()
        buf = bytearray(to_bytes(vs))
        back = ViewSet.from_bytes(buf)
        assert back.images.flags.owndata and back.images.flags.writeable
        buf[-1] ^= 0xFF     # the caller recycles its receive buffer
        assert back == vs

    @given(
        l=st.integers(1, 4), r=st.integers(1, 16), seed=st.integers(0, 100)
    )
    @settings(max_examples=30, deadline=None)
    def test_any_shape_roundtrip(self, l, r, seed):
        vs = random_viewset(l=l, r=r, seed=seed)
        assert ViewSet.from_bytes(to_bytes(vs)) == vs


class TestCodecs:
    @pytest.mark.parametrize("codec_cls", [ZlibCodec, DeltaZlibCodec])
    def test_lossless_roundtrip(self, codec_cls):
        codec = codec_cls()
        vs = random_viewset()
        result = codec.compress(vs)
        back, seconds = codec.decompress(result.payload)
        assert back == vs
        assert seconds >= 0.0

    @pytest.mark.parametrize("codec_cls", [ZlibCodec, DeltaZlibCodec])
    def test_coherent_data_compresses(self, codec_cls):
        codec = codec_cls()
        vs = coherent_viewset()
        result = codec.compress(vs)
        assert result.ratio > 1.0

    def test_delta_beats_plain_on_coherent_views(self):
        vs = coherent_viewset()
        plain = ZlibCodec().compress(vs)
        delta = DeltaZlibCodec().compress(vs)
        assert delta.compressed_size < plain.compressed_size

    def test_rendered_like_content_hits_paper_ratio_band(self):
        """Smooth sample views should compress well (paper: 5-7x)."""
        l, r = 3, 64
        yy, xx = np.mgrid[0:r, 0:r].astype(np.float32) / r
        images = np.empty((l, l, r, r, 3), dtype=np.uint8)
        for a in range(l):
            for b in range(l):
                img = np.stack(
                    [0.5 + 0.4 * np.sin(3 * xx + a * 0.1),
                     0.5 + 0.4 * np.cos(2 * yy + b * 0.1),
                     np.full_like(xx, 0.1)],
                    axis=-1,
                )
                images[a, b] = (img * 255).astype(np.uint8)
        vs = ViewSet(key=(0, 0), images=images)
        result = ZlibCodec().compress(vs)
        assert result.ratio > 3.0

    @pytest.mark.parametrize("codec_cls", [ZlibCodec, DeltaZlibCodec])
    def test_decompress_bytes_like(self, codec_cls):
        vs = random_viewset()
        payload = codec_cls().compress(vs).payload
        for view in (bytearray(payload), memoryview(payload)):
            back, _ = codec_cls().decompress(view)
            assert back == vs and back.images.flags.writeable

    def test_wrong_tag_rejected(self):
        vs = random_viewset()
        z = ZlibCodec().compress(vs)
        with pytest.raises(CodecError):
            DeltaZlibCodec().decompress(z.payload)

    def test_corrupt_body_rejected(self):
        vs = random_viewset()
        z = ZlibCodec().compress(vs)
        with pytest.raises(CodecError):
            ZlibCodec().decompress(z.payload[:2] + b"corrupt")

    def test_codec_for_payload_dispatch(self):
        vs = random_viewset()
        for codec in (ZlibCodec(), DeltaZlibCodec()):
            payload = codec.compress(vs).payload
            back, _ = codec_for_payload(payload).decompress(payload)
            assert back == vs

    def test_codec_for_payload_unknown(self):
        with pytest.raises(CodecError):
            codec_for_payload(b"??data")

    def test_level_validation(self):
        with pytest.raises(ValueError):
            ZlibCodec(level=10)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_delta_codec_is_exactly_lossless(self, seed):
        vs = random_viewset(l=2, r=9, seed=seed, key=(3, 4))
        result = DeltaZlibCodec().compress(vs)
        back, _ = DeltaZlibCodec().decompress(result.payload)
        assert back.key == vs.key
        np.testing.assert_array_equal(back.images, vs.images)

    @pytest.mark.parametrize("codec_cls", [ZlibCodec, DeltaZlibCodec])
    def test_result_records_level(self, codec_cls):
        vs = coherent_viewset()
        for level in (1, 6, 9):
            codec = codec_cls()
            codec.level = level
            assert codec.compress(vs).level == level

    def test_higher_level_never_larger_on_coherent_views(self):
        """The speed/ratio sweep the generation benchmark relies on: level
        9 must compress coherent view sets at least as well as level 1."""
        vs = coherent_viewset()
        fast = ZlibCodec(level=1).compress(vs)
        best = ZlibCodec(level=9).compress(vs)
        assert best.compressed_size <= fast.compressed_size
        # both remain lossless regardless of level
        for result in (fast, best):
            back, _ = ZlibCodec().decompress(result.payload)
            np.testing.assert_array_equal(back.images, vs.images)


def delta_payload(vi, vj, l, r, body, level=6):
    """A ``D1`` payload with the given int32 header fields and body."""
    header = np.array([vi, vj, l, r], dtype=np.int32).tobytes()
    return DeltaZlibCodec.tag + zlib.compress(header + body, level)


class TestStreamedCodecs:
    """The codecs stream through zlib; their bytes are the one-shot forms'."""

    @given(l=st.integers(1, 4), r=st.integers(1, 24),
           level=st.integers(0, 9), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_payloads_are_the_one_shot_forms(self, l, r, level, seed):
        vs = random_viewset(l=l, r=r, seed=seed, key=(seed % 5, 3))
        assert ZlibCodec(level).compress(vs).payload == (
            ZlibCodec.tag + zlib.compress(to_bytes(vs), level))
        flat = vs.images.reshape(l * l, -1)
        delta = flat.copy()
        delta[1:] = flat[1:] - flat[:-1]
        codec = DeltaZlibCodec()
        codec.level = level
        payload = codec.compress(vs).payload
        assert payload == delta_payload(*vs.key, l, r, delta.tobytes(), level)
        # the in-place uint8 running sum is the uint64 sum cast back
        back, _ = DeltaZlibCodec().decompress(payload)
        np.testing.assert_array_equal(
            back.images.reshape(l * l, -1),
            np.cumsum(delta.astype(np.uint64), axis=0).astype(np.uint8))

    @pytest.mark.parametrize("codec_cls", [ZlibCodec, DeltaZlibCodec])
    def test_strided_pixels_compress_as_their_copy(self, codec_cls):
        vs = random_viewset(l=2, r=8)
        strided = ViewSet(vs.key, vs.images)
        strided.images = vs.images[::-1, ::-1, ::-1, ::-1, ::-1]  # a view
        copy = ViewSet(vs.key, strided.images.copy())
        assert (codec_cls().compress(strided).payload
                == codec_cls().compress(copy).payload)

    @pytest.mark.parametrize("delta", [-1, +1])
    def test_zlib_size_error_names_sizes(self, delta):
        vs = random_viewset()
        blob = to_bytes(vs)
        blob = blob[:-1] if delta < 0 else blob + b"\x00"
        with pytest.raises(
            ViewSetFormatError,
            match=f"payload is {vs.nbytes + delta} bytes, "
                  f"expected {vs.nbytes}",
        ):
            ZlibCodec().decompress(ZlibCodec.tag + zlib.compress(blob))

    @pytest.mark.parametrize("codec_cls", [ZlibCodec, DeltaZlibCodec])
    def test_truncated_stream_rejected(self, codec_cls):
        payload = codec_cls().compress(random_viewset()).payload
        with pytest.raises(CodecError, match="truncated"):
            codec_cls().decompress(payload[:-9])

    def test_header_larger_than_the_stream_can_hold_is_not_allocated(self):
        vs = random_viewset(l=1, r=4)
        blob = bytearray(to_bytes(vs))
        blob[10:14] = (0xFFFF).to_bytes(2, "little") * 2    # l = r = 65535
        with pytest.raises(ViewSetFormatError, match="more than"):
            ZlibCodec().decompress(ZlibCodec.tag + zlib.compress(bytes(blob)))


class TestMalformedDeltaHeaders:
    """Bad ``D1`` header fields are refused by name, not by numpy."""

    @pytest.mark.parametrize("field, l, r", [
        ("r", 2, 65536),        # l*l*r*r*3 wrapped to 0 in int32
        ("l", -2, 4),           # reshape(4, -1) of a negative size
        ("l", 0, 4),
        ("r", 2, 0),
    ])
    def test_field_out_of_range_is_named(self, field, l, r):
        payload = delta_payload(0, 0, l, r, b"")
        value = {"l": l, "r": r}[field]
        with pytest.raises(CodecError, match=f"field {field} is {value}"):
            DeltaZlibCodec().decompress(payload)

    def test_size_mismatch_is_named(self):
        payload = delta_payload(0, 0, 2, 4, bytes(2 * 2 * 4 * 4 * 3 - 1))
        with pytest.raises(CodecError, match="is 191 bytes, expected 192"):
            DeltaZlibCodec().decompress(payload)

    def test_header_larger_than_the_stream_can_hold(self):
        payload = delta_payload(0, 0, 65535, 65535, b"")
        with pytest.raises(CodecError, match="more than"):
            DeltaZlibCodec().decompress(payload)

    def test_short_header_is_truncated(self):
        with pytest.raises(CodecError, match="truncated delta payload"):
            DeltaZlibCodec().decompress(
                DeltaZlibCodec.tag + zlib.compress(b"\x00" * 15))
