"""Volume file input.

The paper's negHip dataset circulated as a raw little-endian uint8 brick
(64×64×64).  :func:`read_raw` loads that format (any numpy dtype, C order,
x-fastest) for ``python -m repro build --raw``.  Nothing here writes a
volume: the generator's volumes are made in memory (``neg_hip`` and the
other generators of :mod:`repro.volume.synthetic`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple, Union

import numpy as np

from .grid import VolumeGrid

__all__ = ["read_raw"]

#: rescale what is read to [0, 1], the range transfer functions take
NORMALIZE = True


def read_raw(
    path: Union[str, Path],
    shape: Tuple[int, int, int],
    dtype: str = "uint8",
) -> VolumeGrid:
    """Load a raw volume brick (the classic volvis distribution format).

    ``shape`` is (nx, ny, nz) with x varying fastest on disk, matching how
    negHip and friends were shipped; its largest axis spans ``[-1, 1]``.
    With :data:`NORMALIZE` the samples are rescaled to [0, 1].
    """
    for axis, n in zip("xyz", shape):
        if n < 1:
            raise ValueError(f"{path}: shape n{axis} = {n}, must be >= 1")
    raw = Path(path).read_bytes()
    dt = np.dtype(dtype)
    expected = int(np.prod(shape)) * dt.itemsize
    if len(raw) != expected:
        raise ValueError(
            f"{path}: got {len(raw)} bytes, expected {expected} for "
            f"{shape} {dtype}"
        )
    # disk order: x fastest -> stored as (nz, ny, nx); transpose to x,y,z
    data = (
        np.frombuffer(raw, dtype=dt)
        .reshape(shape[2], shape[1], shape[0])
        .transpose(2, 1, 0)
        .astype(np.float32)
    )
    grid = VolumeGrid(data=data, name=Path(path).stem)
    return grid.normalized() if NORMALIZE else grid
