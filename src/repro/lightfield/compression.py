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

import time
import zlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .viewset import ViewSet

__all__ = ["CompressionResult", "ZlibCodec", "DeltaZlibCodec", "CodecError"]


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


class ZlibCodec:
    """zlib compression of the view-set wire format (paper's scheme)."""

    tag = b"Z1"

    def __init__(self, level: int = 6) -> None:
        if not 0 <= level <= 9:
            raise ValueError("zlib level must be 0..9")
        self.level = level

    def compress(self, viewset: ViewSet) -> CompressionResult:
        """Compress a view set; returns payload + accounting."""
        raw = viewset.to_bytes()
        t0 = time.perf_counter()
        body = zlib.compress(raw, self.level)
        dt = time.perf_counter() - t0
        payload = self.tag + body
        return CompressionResult(
            payload=payload,
            raw_size=len(raw),
            compressed_size=len(payload),
            compress_seconds=dt,
            level=self.level,
        )

    def decompress(self, payload: bytes) -> Tuple[ViewSet, float]:
        """Decode a payload; returns (view set, decompress wall seconds)."""
        if payload[:2] != self.tag:
            raise CodecError(f"payload is not {self.tag!r}-coded")
        t0 = time.perf_counter()
        try:
            raw = zlib.decompress(memoryview(payload)[2:])
        except zlib.error as exc:
            raise CodecError(f"zlib decode failed: {exc}") from exc
        vs = ViewSet.from_bytes(raw)
        return vs, time.perf_counter() - t0


class DeltaZlibCodec:
    """Delta-predict adjacent sample views, then zlib.

    Within a view set the l² sample views differ by a 2.5° camera rotation,
    so adjacent views are highly correlated; storing view[k] - view[k-1]
    (mod 256) concentrates byte values near zero and compresses better at
    the cost of a vectorized add on decode.
    """

    tag = b"D1"

    def __init__(self, level: int = 6) -> None:
        if not 0 <= level <= 9:
            raise ValueError("zlib level must be 0..9")
        self.level = level

    def compress(self, viewset: ViewSet) -> CompressionResult:
        raw_len = len(viewset.to_bytes())
        t0 = time.perf_counter()
        flat = viewset.images.reshape(
            viewset.l * viewset.l, -1
        )  # one row per sample view
        delta = flat.copy()
        delta[1:] = flat[1:] - flat[:-1]  # uint8 wraparound is mod-256
        header = np.array(
            [viewset.key[0], viewset.key[1], viewset.l, viewset.resolution],
            dtype=np.int32,
        ).tobytes()
        body = zlib.compress(header + delta.tobytes(), self.level)
        dt = time.perf_counter() - t0
        payload = self.tag + body
        return CompressionResult(
            payload=payload,
            raw_size=raw_len,
            compressed_size=len(payload),
            compress_seconds=dt,
            level=self.level,
        )

    def decompress(self, payload: bytes) -> Tuple[ViewSet, float]:
        if payload[:2] != self.tag:
            raise CodecError(f"payload is not {self.tag!r}-coded")
        t0 = time.perf_counter()
        try:
            raw = zlib.decompress(memoryview(payload)[2:])
        except zlib.error as exc:
            raise CodecError(f"zlib decode failed: {exc}") from exc
        if len(raw) < 16:
            raise CodecError("truncated delta payload")
        vi, vj, l, r = np.frombuffer(raw, dtype=np.int32, count=4)
        expected = l * l * r * r * 3
        if len(raw) - 16 != expected:
            raise CodecError(
                f"delta payload is {len(raw) - 16} bytes, expected {expected}"
            )
        delta = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(l * l, -1)
        flat = np.cumsum(delta.astype(np.uint64), axis=0).astype(np.uint8)
        images = flat.reshape(l, l, r, r, 3)
        vs = ViewSet(key=(int(vi), int(vj)), images=images)
        return vs, time.perf_counter() - t0


def codec_for_payload(payload: bytes):
    """Instantiate the codec matching a payload's tag byte-pair."""
    tag = payload[:2]
    if tag == ZlibCodec.tag:
        return ZlibCodec()
    if tag == DeltaZlibCodec.tag:
        return DeltaZlibCodec()
    raise CodecError(f"unknown codec tag {tag!r}")
