"""Flow-field support (Section 5 future work: "flow fields").

Light fields capture *appearance*, so visualizing a vector field through
this system means deriving renderable scalar volumes from it.  This module
provides that bridge:

* :class:`VectorField` — a dense 3-D vector field, sampled by the grid
  module's trilinear kernel (:func:`repro.volume.grid.trilinear`);
* derived scalar volumes: :func:`vorticity_magnitude` (the classic tornado
  look), :func:`helicity` and :func:`speed` — each returns a
  :class:`~repro.volume.grid.VolumeGrid` ready for the light field builder;
* :func:`trace_streamlines` — vectorized RK4 particle tracing, and
  :func:`streamline_density` which splats traced streamlines into a scalar
  volume (a line-integral-convolution-flavored representation that renders
  well through a transfer function);
* :func:`tornado_flow` — the standard synthetic tornado vector field used
  by flow-vis papers of the era.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .grid import VolumeGrid, trilinear
from .synthetic import lattice_points

__all__ = [
    "VectorField",
    "tornado_flow",
    "speed",
    "vorticity_magnitude",
    "helicity",
    "trace_streamlines",
    "streamline_density",
]


@dataclass
class VectorField:
    """A dense vector field on the same world frame as :class:`VolumeGrid`.

    ``data`` is ``(nx, ny, nz, 3)``; the field occupies the cube scaled so
    its largest axis spans ``[-extent, extent]``.
    """

    data: np.ndarray
    extent: float = 1.0
    name: str = "flow"

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 4 or self.data.shape[3] != 3:
            raise ValueError(
                f"vector field must be (nx, ny, nz, 3), got {self.data.shape}"
            )
        if min(self.data.shape[:3]) < 2:
            raise ValueError("each axis needs at least 2 samples")
        if not np.isfinite(self.data).all():
            raise ValueError("vector field contains non-finite samples")
        shape = np.asarray(self.data.shape[:3], dtype=np.float64)
        self._voxel = 2.0 * self.extent / (shape.max() - 1.0)
        self._half_size = (shape - 1.0) * self._voxel / 2.0

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Grid dimensions."""
        return self.data.shape[:3]  # type: ignore[return-value]

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Trilinear vector interpolation at ``(N, 3)`` world points.

        The same kernel as :meth:`VolumeGrid.sample
        <repro.volume.grid.VolumeGrid.sample>`, run over three-component
        cells — so the faces carry the same rounding tolerance: a point
        1 ulp past a face reads the boundary plane.  Outside the bounds the
        field is zero (particles stop).
        """
        return trilinear(self.data, self._half_size, self._voxel, points)

    def curl(self) -> VectorField:
        """The discrete curl (central differences), as a new field."""
        h = self._voxel
        v = self.data.astype(np.float64)
        dvz_dy = np.gradient(v[..., 2], h, axis=1)
        dvy_dz = np.gradient(v[..., 1], h, axis=2)
        dvx_dz = np.gradient(v[..., 0], h, axis=2)
        dvz_dx = np.gradient(v[..., 2], h, axis=0)
        dvy_dx = np.gradient(v[..., 1], h, axis=0)
        dvx_dy = np.gradient(v[..., 0], h, axis=1)
        curl = np.stack(
            [dvz_dy - dvy_dz, dvx_dz - dvz_dx, dvy_dx - dvx_dy], axis=-1
        )
        return VectorField(data=curl.astype(np.float32),
                           extent=self.extent, name=f"curl({self.name})")


def tornado_flow(size: int = 32, time: float = 0.0) -> VectorField:
    """The classic synthetic tornado: swirl around a wandering core."""
    if size < 4:
        raise ValueError("size must be >= 4")
    pts = lattice_points((size, size, size))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    # core wanders with height (and with time, for animated datasets)
    cx = 0.25 * np.sin(2.0 * z + time)
    cy = 0.25 * np.cos(2.0 * z + time)
    dx = x - cx
    dy = y - cy
    r2 = dx * dx + dy * dy + 1e-4
    swirl = np.exp(-4.0 * r2)
    vx = -dy / np.sqrt(r2) * swirl
    vy = dx / np.sqrt(r2) * swirl
    vz = 0.4 * swirl + 0.05
    data = np.stack([vx, vy, vz], axis=-1).reshape(size, size, size, 3)
    return VectorField(data=data.astype(np.float32), name="tornado")


def speed(field: VectorField) -> VolumeGrid:
    """|v| as a renderable, normalized scalar volume."""
    mag = np.linalg.norm(field.data, axis=-1)
    peak = float(mag.max()) or 1.0
    return VolumeGrid(
        data=(mag / peak).astype(np.float32),
        extent=field.extent,
        name=f"speed({field.name})",
    )


def vorticity_magnitude(field: VectorField) -> VolumeGrid:
    """|curl v|, normalized — the standard tornado rendering scalar."""
    grid = speed(field.curl())
    grid.name = f"vorticity({field.name})"
    return grid


def helicity(field: VectorField) -> VolumeGrid:
    """v . curl(v), rescaled to [0, 1] (0.5 = zero helicity)."""
    c = field.curl()
    h = np.einsum("...i,...i->...", field.data.astype(np.float64),
                  c.data.astype(np.float64))
    peak = float(np.abs(h).max()) or 1.0
    return VolumeGrid(
        data=(0.5 + 0.5 * h / peak).astype(np.float32),
        extent=field.extent,
        name=f"helicity({field.name})",
    )


def trace_streamlines(
    field: VectorField,
    seeds: np.ndarray,
    step: float = 0.02,
    n_steps: int = 200,
) -> np.ndarray:
    """Vectorized RK4 tracing: ``(n_seeds, n_steps+1, 3)`` positions.

    Particles leaving the domain freeze in place (the field is zero
    outside, so all RK4 increments vanish).
    """
    if step <= 0 or n_steps < 1:
        raise ValueError("step and n_steps must be positive")
    pos = np.asarray(seeds, dtype=np.float64).copy()
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("seeds must be (N, 3)")
    out = np.empty((len(pos), n_steps + 1, 3), dtype=np.float32)
    out[:, 0] = pos
    for k in range(1, n_steps + 1):
        k1 = field.sample(pos)
        k2 = field.sample(pos + 0.5 * step * k1)
        k3 = field.sample(pos + 0.5 * step * k2)
        k4 = field.sample(pos + step * k3)
        pos = pos + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[:, k] = pos
    return out


def streamline_density(
    field: VectorField,
    n_seeds: int = 256,
    size: int = 64,
    step: float = 0.02,
    n_steps: int = 200,
    seed: int = 11,
    sigma_voxels: float = 1.0,
) -> VolumeGrid:
    """Splat traced streamlines into a renderable density volume.

    Seeds are drawn uniformly in the domain; every traced sample deposits
    into its nearest voxel and the result is smoothed with a separable
    Gaussian — a cheap LIC-flavored scalar that shows the flow structure
    through the ordinary volume renderer (and hence through light fields).
    """
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(seed)
    seeds = rng.uniform(-0.9 * field.extent, 0.9 * field.extent,
                        size=(n_seeds, 3))
    lines = trace_streamlines(field, seeds, step=step, n_steps=n_steps)
    pts = lines.reshape(-1, 3)
    # world -> voxel indices of the output volume
    half = field.extent
    idx = np.clip(
        ((pts + half) / (2 * half) * (size - 1)).round().astype(np.intp),
        0, size - 1,
    )
    vol = np.zeros((size, size, size), dtype=np.float64)
    np.add.at(vol, (idx[:, 0], idx[:, 1], idx[:, 2]), 1.0)
    vol = gaussian_filter(vol, sigma=sigma_voxels)
    peak = vol.max() or 1.0
    return VolumeGrid(
        data=(vol / peak).astype(np.float32),
        extent=field.extent,
        name=f"streamlines({field.name})",
    )
