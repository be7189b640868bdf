"""Volume dataset substrate: scalar grids, synthetic datasets, transfer
functions.

Provides the data the light field generator ray-casts — including
``neg_hip()``, the synthetic stand-in for the paper's 64³ negHip protein
potential dataset.
"""

from .accel import ActiveCells, MacrocellGrid
from .grid import VolumeGrid
from .io import read_raw
from .synthetic import (
    gaussian_blobs,
    hydrogen_orbital,
    lattice_points,
    neg_hip,
    vortex,
)
from .transfer import TransferFunction, preset

__all__ = [
    "ActiveCells",
    "MacrocellGrid",
    "VolumeGrid",
    "read_raw",
    "TransferFunction",
    "gaussian_blobs",
    "hydrogen_orbital",
    "lattice_points",
    "neg_hip",
    "preset",
    "vortex",
]
