"""Lossless view-set compression.

The paper compresses every view set with zlib ("the lossless scheme zlib
[1]") and reports 5-7× ratios on negHip sample views; decompression time at
the client is a first-class cost in its latency accounting (Figure 8), so the
codec interface here reports wall-clock timings.

Two codecs are provided:

* :class:`ZlibCodec` — exactly the paper's scheme;
* :class:`DeltaZlibCodec` — an ablation: byte-wise delta between adjacent
  sample views inside the view set before zlib, exploiting the view
  coherence the view-set reorganization creates.  This is the "more
  efficient compression scheme" the paper suggests as an alternative.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .viewset import HEADER_SIZE, ViewSet, ViewSetFormatError, unpack_header

__all__ = ["CompressionResult", "ZlibCodec", "DeltaZlibCodec", "CodecError"]


# payload bytes one inflate step feeds, and output bytes it takes at most
_STEP = 1 << 18
# deflate's ceiling on output per input byte (258-byte matches in 2 bits)
_MAX_RATIO = 1032


class CodecError(ValueError):
    """Raised when decoding fails or codec tags mismatch."""


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one view set.

    ``level`` records the zlib effort level the payload was produced with,
    so benchmark sweeps over the speed/ratio tradeoff can label results
    without keeping the codec object around; -1 means "not applicable".
    """

    payload: bytes
    raw_size: int
    compressed_size: int
    compress_seconds: float
    level: int = -1

    @property
    def ratio(self) -> float:
        """Raw / compressed size (the paper's 5-7×)."""
        if self.compressed_size == 0:
            return float("inf")
        return self.raw_size / self.compressed_size


class _Inflater:
    """A zlib stream inflated in bounded steps into caller-owned buffers.

    Each step feeds at most :data:`_STEP` payload bytes and takes at most
    :data:`_STEP` bytes out, so a decode holds its output buffer plus a few
    steps, never the whole inflated stream as ``bytes``.
    """

    def __init__(self, body: memoryview) -> None:
        self._body = body
        self._fed = 0                  # payload bytes handed to zlib so far
        self._pending: bytes = b""     # input the last step left unconsumed
        self._z = zlib.decompressobj()

    def readinto(self, out) -> int:
        """Fill the writable buffer ``out``; returns the bytes written.

        Fewer than ``len(out)`` only where the stream ends.
        """
        out = memoryview(out).cast("B")
        filled = 0
        while filled < len(out) and not self._z.eof:
            chunk = self._pending
            if not chunk and self._fed < len(self._body):
                chunk = self._body[self._fed:self._fed + _STEP]
                self._fed += len(chunk)
            try:
                piece = self._z.decompress(
                    chunk, min(len(out) - filled, _STEP))
            except zlib.error as exc:
                raise CodecError(f"zlib decode failed: {exc}") from exc
            self._pending = self._z.unconsumed_tail
            out[filled:filled + len(piece)] = piece
            filled += len(piece)
            if not piece and not chunk:
                break          # every byte fed and nothing held back
        return filled

    def read_block(self, shape: Tuple[int, ...], error: type) -> np.ndarray:
        """The rest of the stream, inflated into a new owned array of
        ``shape`` (``uint8``).

        Raises ``error`` naming both sizes if the stream holds more or
        fewer bytes, before allocating if it cannot hold that many at all
        (deflate expands at most 1032:1), and :class:`CodecError` if it is
        cut short.
        """
        size = math.prod(shape)    # Python ints: a bad header cannot wrap
        if size > _MAX_RATIO * len(self._body):
            raise error(
                f"header expects {size} bytes, more than a "
                f"{len(self._body)}-byte zlib stream can hold"
            )
        block = np.empty(shape, dtype=np.uint8)
        got = self.readinto(block)
        scratch = bytearray(_STEP >> 4)     # counts whatever follows
        n = len(scratch)
        while n == len(scratch):
            n = self.readinto(scratch)
            got += n
        if not self._z.eof:
            raise CodecError(
                "zlib decode failed: incomplete or truncated stream")
        if got != size:
            raise error(f"payload is {got} bytes, expected {size}")
        return block


class ZlibCodec:
    """zlib compression of the view-set wire format (paper's scheme)."""

    tag = b"Z1"

    def __init__(self, level: int = 6) -> None:
        if not 0 <= level <= 9:
            raise ValueError("zlib level must be 0..9")
        self.level = level

    def compress(self, viewset: ViewSet) -> CompressionResult:
        """Compress a view set; returns payload + accounting.

        The header and the pixel block stream through one compressor, so
        the payload is ``zlib.compress`` of the LFVS wire blob
        (``viewset.header()`` then the pixels) byte for byte, without that
        blob ever being built.
        """
        t0 = time.perf_counter()
        z = zlib.compressobj(self.level)
        payload = b"".join((
            self.tag, z.compress(viewset.header()),
            z.compress(np.ascontiguousarray(viewset.images)), z.flush(),
        ))
        dt = time.perf_counter() - t0
        return CompressionResult(
            payload=payload,
            raw_size=ViewSet.payload_size(viewset.l, viewset.resolution),
            compressed_size=len(payload),
            compress_seconds=dt,
            level=self.level,
        )

    def decompress(self, payload: bytes) -> Tuple[ViewSet, float]:
        """Decode a payload; returns (view set, decompress wall seconds).

        The pixels inflate straight into the returned view set's own
        (owned, writable) block; the payload is never copied whole.
        """
        if payload[:2] != self.tag:
            raise CodecError(f"payload is not {self.tag!r}-coded")
        t0 = time.perf_counter()
        stream = _Inflater(memoryview(payload)[2:])
        head = bytearray(HEADER_SIZE)
        key, l, r = unpack_header(head[:stream.readinto(head)])
        images = stream.read_block((l, l, r, r, 3), ViewSetFormatError)
        return ViewSet(key=key, images=images), time.perf_counter() - t0


class DeltaZlibCodec:
    """Delta-predict adjacent sample views, then zlib.

    Within a view set the l² sample views differ by a 2.5° camera rotation,
    so adjacent views are highly correlated; storing view[k] - view[k-1]
    (mod 256) concentrates byte values near zero and compresses better at
    the cost of a vectorized add on decode.
    """

    tag = b"D1"
    #: the zlib level the deltas compress at
    level = 6

    def compress(self, viewset: ViewSet) -> CompressionResult:
        """Compress a view set; returns payload + accounting.

        The int32 header and the deltas, one view at a time, stream through
        one compressor, so no copy of the block is made.
        """
        t0 = time.perf_counter()
        flat = np.ascontiguousarray(viewset.images).reshape(
            viewset.l * viewset.l, -1
        )  # one row per sample view
        header = np.array(
            [viewset.key[0], viewset.key[1], viewset.l, viewset.resolution],
            dtype=np.int32,
        ).tobytes()
        z = zlib.compressobj(self.level)
        parts = [self.tag, z.compress(header), z.compress(flat[0])]
        delta = np.empty_like(flat[0])
        for prev, view in zip(flat, flat[1:]):
            # uint8 wraparound is mod-256
            parts.append(z.compress(np.subtract(view, prev, out=delta)))
        parts.append(z.flush())
        payload = b"".join(parts)
        dt = time.perf_counter() - t0
        return CompressionResult(
            payload=payload,
            raw_size=ViewSet.payload_size(viewset.l, viewset.resolution),
            compressed_size=len(payload),
            compress_seconds=dt,
            level=self.level,
        )

    def decompress(self, payload: bytes) -> Tuple[ViewSet, float]:
        if payload[:2] != self.tag:
            raise CodecError(f"payload is not {self.tag!r}-coded")
        t0 = time.perf_counter()
        stream = _Inflater(memoryview(payload)[2:])
        head = bytearray(16)
        if stream.readinto(head) < len(head):
            raise CodecError("truncated delta payload")
        vi, vj, l, r = np.frombuffer(head, dtype=np.int32).tolist()
        for name, value in (("l", l), ("r", r)):
            if not 1 <= value <= 0xFFFF:
                raise CodecError(
                    f"delta header field {name} is {value}, outside 1..65535"
                )
        images = stream.read_block((l, l, r, r, 3), CodecError)
        # undo the deltas in place; uint8 wraps mod 256 as the encoder did
        flat = images.reshape(l * l, -1)
        np.cumsum(flat, axis=0, dtype=np.uint8, out=flat)
        vs = ViewSet(key=(vi, vj), images=images)
        return vs, time.perf_counter() - t0


def codec_for_payload(payload: bytes):
    """Instantiate the codec matching a payload's tag byte-pair."""
    tag = payload[:2]
    if tag == ZlibCodec.tag:
        return ZlibCodec()
    if tag == DeltaZlibCodec.tag:
        return DeltaZlibCodec()
    raise CodecError(f"unknown codec tag {tag!r}")
