"""Framebuffer utilities: quantization, PPM output, image-quality metrics.

The client console in the paper displays 8-bit RGB frames; view sets store
8-bit pixels (that is what zlib compresses).  PPM is used for example output
because it needs no external imaging library.  RMSE/PSNR provide the "direct
metric of correctness" the paper lists as design criterion (iii): a light
field synthesis can be compared against ground-truth ray casting.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

__all__ = [
    "to_uint8",
    "to_float",
    "save_ppm",
    "rmse",
    "psnr",
]


def to_uint8(img: np.ndarray) -> np.ndarray:
    """Quantize a float image in [0, 1] to uint8 with round-to-nearest."""
    img = np.asarray(img)
    if img.dtype == np.uint8:
        return img
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def to_float(img: np.ndarray) -> np.ndarray:
    """Promote a uint8 image to float32 in [0, 1]."""
    img = np.asarray(img)
    if img.dtype != np.uint8:
        return img.astype(np.float32)
    return img.astype(np.float32) / 255.0


def save_ppm(path: Union[str, Path], img: np.ndarray) -> None:
    """Write an ``(H, W, 3)`` image as binary PPM (P6)."""
    arr = to_uint8(img)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {arr.shape}")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    """Root-mean-square error between two images (any matching dtype)."""
    fa, fb = to_float(a), to_float(b)
    if fa.shape != fb.shape:
        raise ValueError(f"shape mismatch: {fa.shape} vs {fb.shape}")
    return float(np.sqrt(np.mean((fa - fb) ** 2)))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB against a peak of 1.0; +inf for
    identical images."""
    err = rmse(a, b)
    if err == 0:
        return float("inf")
    return float(20.0 * np.log10(1.0 / err))
