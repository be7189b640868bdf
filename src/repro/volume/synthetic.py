"""Synthetic scientific volume datasets.

The paper's test dataset is **negHip**: "a simulation of electrical potential
of a negative high-energy protein", 64³ voxels.  That dataset is not
redistributable, so :func:`neg_hip` synthesizes the closest equivalent — the
electric potential field of a cluster of point charges with net negative
charge, evaluated on the same 64³ lattice with a softened Coulomb kernel.
The result has the same qualitative structure the paper's transfer functions
classify: smooth positive/negative lobes around atomic sites.

Additional generators (:func:`gaussian_blobs`, :func:`vortex`,
:func:`hydrogen_orbital`) provide the varied workloads used by examples and
the ablation benchmarks.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .grid import VolumeGrid

__all__ = [
    "neg_hip",
    "gaussian_blobs",
    "vortex",
    "hydrogen_orbital",
    "lattice_points",
]

#: negHip's charges, the share of them that is negative, and the
#: softening length of their Coulomb potential
N_CHARGES = 24
NET_NEGATIVE_FRACTION = 0.65
SOFTENING = 0.08
# voxels whose potential one block evaluates: its temporaries are
# _NEGHIP_BLOCK × N_CHARGES × 3 floats (1.2 MB) whatever the volume's size
_NEGHIP_BLOCK = 2048
#: the seed negHip's charge sites and signs are drawn from
NEG_HIP_SEED = 2003


def lattice_points(shape: Tuple[int, int, int]) -> np.ndarray:
    """World-like coordinates in [-1, 1]³ for every voxel, shape (N, 3)."""
    axes = [np.linspace(-1.0, 1.0, n) for n in shape]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def neg_hip(size: int = 64) -> VolumeGrid:
    """Synthetic negHip: softened Coulomb potential of a charge cluster.

    :data:`N_CHARGES` charges are placed inside a sphere of radius 0.6 (so
    the interesting structure is well inside the bounding box, as in the
    protein dataset); :data:`NET_NEGATIVE_FRACTION` of them are negative,
    making the aggregate potential negative-dominated like the original
    "negative high-energy protein".  The field is normalized to [0, 1] for
    transfer-function use.
    """
    if size < 8:
        raise ValueError("size must be >= 8")
    rng = np.random.default_rng(NEG_HIP_SEED)
    # charge sites: clustered positions, mildly correlated to mimic a chain
    centers = np.empty((N_CHARGES, 3))
    pos = rng.normal(scale=0.15, size=3)
    for i in range(N_CHARGES):
        step = rng.normal(scale=0.18, size=3)
        pos = np.clip(pos * 0.8 + step, -0.6, 0.6)
        centers[i] = pos
    signs = np.where(
        rng.random(N_CHARGES) < NET_NEGATIVE_FRACTION, -1.0, 1.0
    )
    magnitudes = rng.uniform(0.5, 1.5, size=N_CHARGES)
    charges = signs * magnitudes

    pts = lattice_points((size, size, size))
    # softened Coulomb: q / sqrt(r² + eps²), one block of voxels at a time;
    # a voxel's potential depends on its own row alone, so the blocks give
    # the bits of one whole-volume broadcast without its voxels × charges
    # × 3 temporary
    potential = np.empty(len(pts))
    for at in range(0, len(pts), _NEGHIP_BLOCK):
        diff = pts[at:at + _NEGHIP_BLOCK, None, :] - centers[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", diff, diff)
        potential[at:at + _NEGHIP_BLOCK] = (
            charges[None, :] / np.sqrt(r2 + SOFTENING**2)).sum(axis=1)
    field = potential.reshape(size, size, size)
    lo, hi = field.min(), field.max()
    field = (field - lo) / (hi - lo)
    return VolumeGrid(data=field.astype(np.float32), name="negHip-synthetic")


def gaussian_blobs(size: int = 64) -> VolumeGrid:
    """A fuel-injection-like dataset: eight superposed anisotropic
    Gaussians."""
    rng = np.random.default_rng(7)
    pts = lattice_points((size, size, size))
    field = np.zeros(len(pts))
    for _ in range(8):
        center = rng.uniform(-0.5, 0.5, size=3)
        sigma = rng.uniform(0.08, 0.3, size=3)
        amp = rng.uniform(0.4, 1.0)
        d = (pts - center) / sigma
        field += amp * np.exp(-0.5 * np.einsum("ij,ij->i", d, d))
    field = field.reshape(size, size, size)
    field /= max(field.max(), 1e-12)
    return VolumeGrid(data=field.astype(np.float32), name="blobs")


def vortex(size: int = 64) -> VolumeGrid:
    """A tornado-like dataset: vorticity magnitude of a helical flow."""
    pts = lattice_points((size, size, size))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    # helical core drifting with height
    cx = 0.3 * np.sin(3.0 * z)
    cy = 0.3 * np.cos(3.0 * z)
    r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
    core = np.exp(-((r / 0.25) ** 2))
    taper = np.exp(-((z / 0.9) ** 4))
    field = (core * taper).reshape(size, size, size)
    field /= max(field.max(), 1e-12)
    return VolumeGrid(data=field.astype(np.float32), name="vortex")


def hydrogen_orbital(size: int = 64) -> VolumeGrid:
    """|psi|² of a hydrogen 3d_z² orbital — a classic volume benchmark."""
    pts = lattice_points((size, size, size)) * 12.0  # Bohr-ish radii
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    r = np.sqrt(x**2 + y**2 + z**2) + 1e-9
    cos_t = z / r
    # R_32 ∝ r² e^{-r/3}; Y_20 ∝ 3cos²θ - 1
    psi = (r**2) * np.exp(-r / 3.0) * (3.0 * cos_t**2 - 1.0)
    field = (psi**2).reshape(size, size, size)
    field /= max(field.max(), 1e-12)
    return VolumeGrid(data=field.astype(np.float32), name="hydrogen-3dz2")
