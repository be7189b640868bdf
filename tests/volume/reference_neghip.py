"""Test-side oracle: negHip's potential broadcast over every voxel at once.

:func:`reference_neg_hip` is the body ``repro.volume.synthetic.neg_hip`` had
before it evaluated the potential in voxel blocks, kept verbatim: one
``voxels × charges × 3`` float64 difference array (≈ 150 MB at 64³) and its
reductions.  Each voxel's potential depends on that voxel's row alone, so
the blocked evaluation must be ``np.array_equal`` to this at every size.

Imported by nothing under ``src/``, ``benchmarks/`` or ``examples/``.
"""

import numpy as np

from repro.volume.grid import VolumeGrid
from repro.volume.synthetic import lattice_points


def reference_neg_hip(
    size: int = 64,
    n_charges: int = 24,
    net_negative_fraction: float = 0.65,
    softening: float = 0.08,
    seed: int = 2003,
) -> VolumeGrid:
    """Synthetic negHip, the whole-volume broadcast (pre-block body)."""
    rng = np.random.default_rng(seed)
    centers = np.empty((n_charges, 3))
    pos = rng.normal(scale=0.15, size=3)
    for i in range(n_charges):
        step = rng.normal(scale=0.18, size=3)
        pos = np.clip(pos * 0.8 + step, -0.6, 0.6)
        centers[i] = pos
    signs = np.where(
        rng.random(n_charges) < net_negative_fraction, -1.0, 1.0
    )
    magnitudes = rng.uniform(0.5, 1.5, size=n_charges)
    charges = signs * magnitudes

    pts = lattice_points((size, size, size))
    # softened Coulomb: q / sqrt(r² + eps²), vectorized over all voxels
    diff = pts[:, None, :] - centers[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    potential = (charges[None, :] / np.sqrt(r2 + softening**2)).sum(axis=1)
    field = potential.reshape(size, size, size)
    lo, hi = field.min(), field.max()
    field = (field - lo) / (hi - lo)
    return VolumeGrid(data=field.astype(np.float32), name="negHip-synthetic")
