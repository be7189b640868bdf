"""View sets: the unit of light field storage and transmission.

A view set is the block of ``l × l`` sample views (each an ``r × r`` RGB
image) covering one 15°-by-15° window of the camera lattice.  It is what the
client agent requests, what depots store, and what zlib compresses — "the
smallest unit of network transmission we use".

The binary layout is a fixed little-endian header followed by the raw
``(l, l, r, r, 3)`` uint8 pixel block, so (de)serialization is a header pack
plus one ``join``/``frombuffer`` — no per-pixel work.  A codec that inflates
the layout reads the header with :func:`unpack_header` and writes the pixels
straight into the block of the view set it returns.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["ViewSet", "ViewSetFormatError", "HEADER_SIZE", "unpack_header"]

_MAGIC = b"LFVS"
_VERSION = 1
# magic, version, vi, vj, l, r, flags, reserved
_HEADER = struct.Struct("<4sHhhHHHH")
HEADER_SIZE = _HEADER.size
# pixel bytes __eq__ compares at a time: bounds its boolean temporary
_EQ_SLICE = 1 << 18


class ViewSetFormatError(ValueError):
    """Raised when decoding bytes that are not a valid view set."""


def unpack_header(blob) -> Tuple[Tuple[int, int], int, int]:
    """``(key, l, r)`` from the first :data:`HEADER_SIZE` bytes of ``blob``.

    Validates length, magic and version, not the payload that follows.
    """
    if len(blob) < _HEADER.size:
        raise ViewSetFormatError("blob shorter than header")
    magic, version, vi, vj, l, r, _flags, _rsvd = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ViewSetFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise ViewSetFormatError(f"unsupported version {version}")
    return (vi, vj), l, r


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

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def header(self) -> bytes:
        """The LFVS header that precedes the pixel block on the wire."""
        vi, vj = self.key
        return _HEADER.pack(
            _MAGIC, _VERSION, vi, vj, self.l, self.resolution, 0, 0
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> ViewSet:
        """Decode the LFVS wire format; validates header and payload size."""
        key, l, r = unpack_header(blob)
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
        return cls(key=key, images=images)

    @classmethod
    def payload_size(cls, l: int, r: int) -> int:
        """Uncompressed wire size for given l and r (header included)."""
        return _HEADER.size + l * l * r * r * 3

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ViewSet):
            return NotImplemented
        if self.key != other.key or self.images.shape != other.images.shape:
            return False
        # slice by slice: no boolean temporary the size of the block
        a, b = self.images.reshape(-1), other.images.reshape(-1)
        return all(
            np.array_equal(a[i:i + _EQ_SLICE], b[i:i + _EQ_SLICE])
            for i in range(0, a.size, _EQ_SLICE)
        )
