"""Test-side oracle: the straightforward trilinear lookup the kernel is proven against.

:func:`reference_sample` and :func:`reference_gradient` are the bodies
``VolumeGrid.sample`` / ``VolumeGrid.gradient`` had before the flat-index
kernel (``repro.volume.grid.axis_terms`` / ``lerp_cells``) replaced them,
kept verbatim with ``self`` renamed to ``volume``: every lookup redoes
``world_to_index`` for all three axes, builds the inside mask from the
``(N, 3)`` index array, compacts to the inside points and gathers the eight
corners with three-index fancy indexing; the gradient is six independent
full lookups.  The production kernel must be ``np.array_equal`` to these —
not close, equal — because the light field generator's frames (and hence
payload CRCs) are pinned bit for bit.

Imported by nothing under ``src/``, ``benchmarks/`` or ``examples/``.
"""

from typing import Optional

import numpy as np

from repro.volume.grid import VolumeGrid


def world_to_index(volume: VolumeGrid, points: np.ndarray) -> np.ndarray:
    """Map world coordinates to continuous voxel indices."""
    pts = np.asarray(points, dtype=np.float64)
    return (pts + volume._half_size) / volume._voxel


def reference_sample(volume: VolumeGrid, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation at ``(N, 3)`` world points (pre-kernel body)."""
    idx = world_to_index(volume, points)
    nx, ny, nz = volume.data.shape
    # tolerate float rounding at the faces: a point computed as lying on
    # the bounding box (e.g. a ray's exact exit t) may land 1 ulp past
    # it, and must sample the boundary plane, not the vacuum sentinel
    eps = 1e-6
    inside = (
        (idx[:, 0] >= -eps) & (idx[:, 0] <= nx - 1 + eps)
        & (idx[:, 1] >= -eps) & (idx[:, 1] <= ny - 1 + eps)
        & (idx[:, 2] >= -eps) & (idx[:, 2] <= nz - 1 + eps)
    )
    out = np.zeros(len(idx), dtype=np.float32)
    if not inside.any():
        return out
    p = np.clip(
        idx[inside], 0.0, np.array([nx - 1, ny - 1, nz - 1], dtype=np.float64)
    )
    i0 = np.floor(p).astype(np.intp)
    i0[:, 0] = np.clip(i0[:, 0], 0, nx - 2)
    i0[:, 1] = np.clip(i0[:, 1], 0, ny - 2)
    i0[:, 2] = np.clip(i0[:, 2], 0, nz - 2)
    f = (p - i0).astype(np.float32)
    x0, y0, z0 = i0[:, 0], i0[:, 1], i0[:, 2]
    d = volume.data
    c000 = d[x0, y0, z0]
    c100 = d[x0 + 1, y0, z0]
    c010 = d[x0, y0 + 1, z0]
    c110 = d[x0 + 1, y0 + 1, z0]
    c001 = d[x0, y0, z0 + 1]
    c101 = d[x0 + 1, y0, z0 + 1]
    c011 = d[x0, y0 + 1, z0 + 1]
    c111 = d[x0 + 1, y0 + 1, z0 + 1]
    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    out[inside] = c0 * (1 - fz) + c1 * fz
    return out


def reference_gradient(
    volume: VolumeGrid, points: np.ndarray, h: Optional[float] = None
) -> np.ndarray:
    """Central-difference gradient at ``(N, 3)`` points (pre-kernel body)."""
    pts = np.asarray(points, dtype=np.float64)
    if h is None:
        h = volume._voxel * 0.5
    grad = np.empty((len(pts), 3), dtype=np.float32)
    for axis in range(3):
        dp = np.zeros(3)
        dp[axis] = h
        grad[:, axis] = (
            reference_sample(volume, pts + dp)
            - reference_sample(volume, pts - dp)
        ) / (2.0 * h)
    return grad
