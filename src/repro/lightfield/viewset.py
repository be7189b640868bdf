"""View sets: the unit of light field storage and transmission.

A view set is the block of ``l × l`` sample views (each an ``r × r`` RGB
image) covering one 15°-by-15° window of the camera lattice.  It is what the
client agent requests, what depots store, and what zlib compresses — "the
smallest unit of network transmission we use".

The binary layout is a fixed little-endian header followed by the raw
``(l, l, r, r, 3)`` uint8 pixel block, so (de)serialization is a header pack
plus one ``join``/``frombuffer`` — no per-pixel work.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["ViewSet", "ViewSetFormatError"]

_MAGIC = b"LFVS"
_VERSION = 1
# magic, version, vi, vj, l, r, flags, reserved
_HEADER = struct.Struct("<4sHhhHHHH")


class ViewSetFormatError(ValueError):
    """Raised when decoding bytes that are not a valid view set."""


@dataclass
class ViewSet:
    """An ``l × l`` block of ``r × r`` RGB sample views.

    Attributes
    ----------
    key:
        (vi, vj) view-set grid coordinates.
    images:
        ``(l, l, r, r, 3)`` uint8 array; ``images[a, b]`` is the sample view
        of lattice camera ``(vi*l + a, vj*l + b)``.
    """

    key: Tuple[int, int]
    images: np.ndarray

    def __post_init__(self) -> None:
        img = np.ascontiguousarray(self.images)
        if img.dtype != np.uint8:
            raise ValueError("view-set images must be uint8")
        if img.ndim != 5 or img.shape[0] != img.shape[1] or img.shape[4] != 3:
            raise ValueError(
                f"images must be (l, l, r, r, 3), got {img.shape}"
            )
        if img.shape[2] != img.shape[3]:
            raise ValueError("sample views must be square")
        self.images = img

    @property
    def l(self) -> int:
        """View-set edge length in cameras."""
        return self.images.shape[0]

    @property
    def resolution(self) -> int:
        """Sample-view resolution r (images are r × r)."""
        return self.images.shape[2]

    @property
    def nbytes(self) -> int:
        """Uncompressed pixel payload size."""
        return self.images.nbytes

    def view(self, a: int, b: int) -> np.ndarray:
        """The (r, r, 3) sample view at local offset (a, b) — zero copy."""
        if not (0 <= a < self.l and 0 <= b < self.l):
            raise IndexError(f"local view ({a}, {b}) outside l={self.l}")
        return self.images[a, b]

    def view_for_camera(self, i: int, j: int) -> np.ndarray:
        """The sample view for global lattice camera (i, j).

        Raises KeyError if the camera is not in this view set.
        """
        vi, vj = self.key
        a, b = i - vi * self.l, j - vj * self.l
        if not (0 <= a < self.l and 0 <= b < self.l):
            raise KeyError(f"camera ({i}, {j}) not in view set {self.key}")
        return self.images[a, b]

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the LFVS wire format."""
        vi, vj = self.key
        header = _HEADER.pack(
            _MAGIC, _VERSION, vi, vj, self.l, self.resolution, 0, 0
        )
        # one copy: the join reads the pixel block through its buffer
        return b"".join((header, self.images.reshape(-1).data))

    @classmethod
    def from_bytes(cls, blob: bytes) -> ViewSet:
        """Decode the LFVS wire format; validates header and payload size."""
        if len(blob) < _HEADER.size:
            raise ViewSetFormatError("blob shorter than header")
        magic, version, vi, vj, l, r, _flags, _rsvd = _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise ViewSetFormatError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise ViewSetFormatError(f"unsupported version {version}")
        expected = l * l * r * r * 3
        got = len(blob) - _HEADER.size
        if got != expected:
            raise ViewSetFormatError(
                f"payload is {got} bytes, expected {expected}"
            )
        images = (
            np.frombuffer(
                blob, dtype=np.uint8, count=expected, offset=_HEADER.size
            )
            .reshape(l, l, r, r, 3)
            .copy()  # the one copy: own the memory, blob may be transient
        )
        return cls(key=(vi, vj), images=images)

    @classmethod
    def payload_size(cls, l: int, r: int) -> int:
        """Uncompressed wire size for given l and r (header included)."""
        return _HEADER.size + l * l * r * r * 3

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ViewSet):
            return NotImplemented
        return self.key == other.key and np.array_equal(
            self.images, other.images
        )
