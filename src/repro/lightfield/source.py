"""View-set payload sources for the streaming system.

The streaming experiments (Figures 8-12) need *payload bytes* for every view
set of a paper-scale database (12 × 24 view sets at 200²-600² sample views).
Ray-casting all 10,368 sample views in pure Python would take hours per
resolution, so :class:`SyntheticSource` generates sample views procedurally,
their zlib compressibility calibrated towards the paper's 5-7× band (it
reaches it at the figures' resolutions, not below them — see the class).
The pixel *content* is irrelevant to streaming latency; only payload sizes
and (de)compression cost matter, and those are real: every payload is a real
zlib stream over a real uint8 view-set block.  Anything with the
:class:`ViewSetSource` shape streams the same way; the integration tests
stream a really-rendered :class:`~repro.lightfield.database.LightFieldDatabase`
through a thin adapter of their own.

This substitution is recorded in DESIGN.md §2.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol

import numpy as np

from .compression import ZlibCodec
from .lattice import CameraLattice, ViewSetKey
from .sphere import TwoSphere
from .viewset import ViewSet

__all__ = ["ViewSetSource", "SyntheticSource"]


class ViewSetSource(Protocol):
    """Provider of compressed view-set payloads for a whole lattice."""

    lattice: CameraLattice
    spheres: TwoSphere
    resolution: int

    def payload(self, key: ViewSetKey) -> bytes:
        """Compressed wire payload for a view set."""
        ...


#: the fraction of silhouette pixels carrying dither noise, which sets the
#: compression ratio: 0 compresses far better, 0.3 worse.  Measured with
#: zlib level 6 at 0.13: 5.1-5.9× at 200²-300² and 6.0-6.3× at 500² (the
#: figures' sizes, inside the paper's 5-7× band) but 3.9-4.9× at 64² (the
#: test and benchmark size, below it).
NOISE_FRACTION = 0.13


class SyntheticSource:
    """Procedural view sets with paper-band compressibility.

    Each sample view is a smooth multi-frequency pattern (a stand-in for the
    shaded negHip renders) plus low-amplitude deterministic noise that keeps
    zlib from over-compressing; adjacent views drift slowly, mimicking view
    coherence.  Payloads are produced lazily, cached, and deterministic in
    ``(key, seed)``.

    :data:`NOISE_FRACTION` sets the compression ratio.

    A payload's bytes are made once and never change: ``payload`` returns
    the same immutable object on every call, and nothing downstream copies
    it in order to account for it (DESIGN.md §2).
    """

    def __init__(
        self,
        lattice: CameraLattice,
        resolution: int,
        seed: int = 2003,
        codec: Optional[ZlibCodec] = None,
    ) -> None:
        if resolution < 1:
            raise ValueError("resolution must be positive")
        self.lattice = lattice
        self.resolution = int(resolution)
        self.spheres = TwoSphere(1.0, 2.5)
        self.seed = seed
        self.codec = codec if codec is not None else ZlibCodec()
        self._cache: Dict[ViewSetKey, bytes] = {}

    # ------------------------------------------------------------------
    def viewset(self, key: ViewSetKey) -> ViewSet:
        """Generate (deterministically) the uncompressed view set.

        Structure mirrors a real sample view: zero background outside the
        inner-sphere silhouette, smooth shaded interior (quantized — real
        renders quantize to uint8 too), sparse dither noise standing in for
        shading detail.
        """
        vi, vj = key
        l, r = self.lattice.l, self.resolution
        rng = np.random.default_rng(
            (self.seed * 1_000_003 + vi * 1009 + vj) & 0x7FFFFFFF
        )
        span = np.linspace(-1.0, 1.0, r, dtype=np.float32)
        xx, yy = np.meshgrid(span, span)
        disk = (xx * xx + yy * yy) <= 0.92  # silhouette of inner sphere
        phase = rng.uniform(0, 2 * np.pi, size=4).astype(np.float32)
        freq = rng.uniform(2.0, 6.0, size=4).astype(np.float32)
        images = np.empty((l, l, r, r, 3), dtype=np.uint8)
        dither = NOISE_FRACTION > 0 and bool(disk.any())
        # Row and column waves are functions of one axis: evaluate them on
        # ``span`` (the column wave never drifts: once) and broadcast; only
        # the diagonal wave costs r² sines a view.  Each float32 operation
        # keeps its order in tests/lightfield/reference_source.py (the pin).
        row = freq[0] * span + phase[0]
        col = np.sin(freq[1] * span + phase[1])[:, None]
        diag = freq[2] * (xx + yy) + phase[2]
        inside = np.repeat(disk, 3).reshape(r, r, 3).astype(np.uint8)
        frame = np.empty((r, r, 3), dtype=np.float32)  # reused by each view
        pixels = frame.reshape(-1, 3)
        for a in range(l):
            for b in range(l):
                drift = 0.06 * (a * l + b)  # slow per-view drift
                base = (
                    np.sin(row + drift) + col + np.sin(diag + drift)
                ) / 3.0
                lum = (0.5 + 0.45 * base) * 255.0
                lum = np.round(lum / 3.0) * 3.0  # smooth quantized shading
                frame[..., 0] = lum
                np.multiply(lum, 0.8, out=frame[..., 1])
                frame[..., 2] = lum * 0.6 + 20.0
                if dither:
                    mask = (rng.random((r, r)) < NOISE_FRACTION) & disk
                    at = np.flatnonzero(mask)
                    pixels[at] += rng.integers(-5, 6, size=(len(at), 3))
                # zero the background while storing: one contiguous pass
                np.multiply(np.clip(frame, 0, 255).astype(np.uint8), inside,
                            out=images[a, b])
        return ViewSet(key=key, images=images)

    def payload(self, key: ViewSetKey) -> bytes:
        """Compressed payload (made on first request, then cached)."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        payload = self._cache[key] = self.codec.compress(
            self.viewset(key)).payload
        return payload

    def raw_size(self) -> int:
        """Uncompressed bytes of one view set (all are identical in size)."""
        return ViewSet.payload_size(self.lattice.l, self.resolution)
