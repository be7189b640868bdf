"""Regular-grid scalar volumes with trilinear sampling and gradients.

The paper's generator ray-casts a volume dataset (the 64³ negHip electric
potential field) into light field sample views.  This module provides that
volume substrate: a dense scalar grid positioned in world space, with
vectorized trilinear interpolation and central-difference gradients — the two
sampling primitives the ray caster needs.

All sampling functions take ``(N, 3)`` arrays of world-space points and return
per-point values/gradients; there are no per-point Python loops.

Every lookup in the package goes through one flat-index kernel, in two
halves: :func:`axis_terms` turns world coordinates into per-axis *(inside
flag, flat base index, float32 fraction)* rows, and :func:`lerp_cells`
gathers the eight corners with one ``take`` on the flattened grid and blends
them in a fixed order.  ``VolumeGrid.sample`` is the two composed;
``VolumeGrid.gradient`` composes them itself so that a lookup offset along
one axis recomputes that axis's terms only.
``tests/volume/reference_trilinear.py`` keeps the
straightforward per-lookup formulation the kernel must equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["VolumeGrid", "axis_terms", "lerp_cells"]


def _as_points(points: np.ndarray) -> np.ndarray:
    """``points`` as a float64 ``(N, 3)`` array, or ``ValueError``."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got shape {pts.shape}")
    return pts


def axis_terms(
    coords: np.ndarray,
    half_size: np.ndarray,
    voxel: float,
    shape: Tuple[int, ...],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis lookup terms for planar world coordinates ``(..., 3, N)``.

    Returns ``(inside, base, frac)``, each C-contiguous and shaped like
    ``coords``: along axis ``a``, ``inside[..., a, :]`` says the coordinate
    is within the grid (faces included), ``base[..., a, :]`` is the lower
    neighbour's index times that axis's stride in the flattened grid, and
    ``frac[..., a, :]`` is the float32 weight of the upper neighbour.  The
    axes are independent, so the base index of a cell is the sum of its
    three ``base`` rows and a point is inside iff all three flags are set —
    which is what lets a lookup that moves along one axis reuse the other
    two axes' rows.
    """
    hi = (np.array(shape, dtype=np.float64) - 1.0)[:, None]
    idx = np.add(coords, half_size[:, None], out=np.empty(coords.shape))
    idx /= voxel
    # tolerate float rounding at the faces: a point computed as lying on
    # the bounding box (e.g. a ray's exact exit t) may land 1 ulp past
    # it, and must sample the boundary plane, not the vacuum sentinel
    eps = 1e-6
    inside = (idx >= -eps) & (idx <= hi + eps)
    # fmax/fmin clamp like np.clip but send a NaN coordinate (flagged
    # outside above) to cell 0 instead of an out-of-range index
    p = np.fmin(np.fmax(idx, 0.0), hi)
    i0 = np.minimum(np.floor(p), hi - 1.0)
    frac = (p - i0).astype(np.float32)
    strides = np.array([[shape[1] * shape[2]], [shape[2]], [1]], dtype=np.intp)
    return inside, i0.astype(np.intp) * strides, frac


def lerp_cells(
    cells: np.ndarray,
    shape: Tuple[int, ...],
    base: np.ndarray,
    inside: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    fz: np.ndarray,
) -> np.ndarray:
    """Gather the eight corners of each cell and blend them x, then y, then z.

    ``cells`` is the grid flattened over its three spatial axes, ``base``
    the flat index of each cell's lowest corner, ``inside`` the vacuum mask
    (False reads 0) and ``fx, fy, fz`` the float32 upper-neighbour weights,
    each broadcastable against ``base``.  The blend
    order and the ``lo * (1 - f) + hi * f`` form are fixed: float32
    rounding depends on both, and rendered frames are pinned bit for bit.
    """
    sy, sx = shape[2], shape[1] * shape[2]  # (nx, ny, nz) C order
    # corner c = 4*dx + 2*dy + dz, so each blend halves the leading axis
    corners = np.array(
        [0, 1, sy, sy + 1, sx, sx + 1, sx + sy, sx + sy + 1], dtype=np.intp
    ).reshape((8,) + (1,) * base.ndim)
    c = cells.take(base + corners, axis=0)
    c = c[:4] * (1 - fx) + c[4:] * fx
    c = c[:2] * (1 - fy) + c[2:] * fy
    out: np.ndarray = c[0] * (1 - fz) + c[1] * fz
    if not inside.all():
        out[~inside] = 0.0
    return out


@dataclass
class VolumeGrid:
    """A dense scalar field on a regular grid, centered in world space.

    Parameters
    ----------
    data:
        ``(nx, ny, nz)`` float array of scalar samples, C-contiguous.
    extent:
        World-space half-width of the largest axis; the volume is scaled
        uniformly so its largest dimension spans ``[-extent, +extent]`` and
        centered at the origin (this matches the concentric-sphere
        parameterization, which wants the dataset near the origin).
    name:
        Identifier used in database metadata.
    """

    data: np.ndarray
    extent: float = 1.0
    name: str = "volume"

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise ValueError(f"volume must be 3-D, got shape {self.data.shape}")
        if min(self.data.shape) < 2:
            raise ValueError("each volume axis needs at least 2 samples")
        if not np.isfinite(self.data).all():
            raise ValueError("volume contains non-finite samples")
        if self.extent <= 0:
            raise ValueError("extent must be positive")
        shape = np.asarray(self.data.shape, dtype=np.float64)
        # uniform scale: world units per voxel along the largest axis
        self._voxel = 2.0 * self.extent / (shape.max() - 1.0)
        self._half_size = (shape - 1.0) * self._voxel / 2.0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int, int]:
        """Grid dimensions (nx, ny, nz)."""
        return self.data.shape  # type: ignore[return-value]

    @property
    def world_min(self) -> np.ndarray:
        """Lower corner of the bounding box in world space."""
        return -self._half_size

    @property
    def world_max(self) -> np.ndarray:
        """Upper corner of the bounding box in world space."""
        return self._half_size

    @property
    def bounding_radius(self) -> float:
        """Radius of the sphere circumscribing the bounding box."""
        return float(np.linalg.norm(self._half_size))

    @property
    def value_range(self) -> Tuple[float, float]:
        """(min, max) of the scalar field."""
        return float(self.data.min()), float(self.data.max())

    def world_to_index(self, points: np.ndarray) -> np.ndarray:
        """Map world coordinates to continuous voxel indices."""
        pts = np.asarray(points, dtype=np.float64)
        return (pts + self._half_size) / self._voxel

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self, points: np.ndarray) -> np.ndarray:
        """Trilinear interpolation at ``(N, 3)`` world points.

        Points outside the bounding box return 0 (vacuum), which is how the
        ray caster composites empty space without branching.  The flat view
        of ``data`` is taken per call (O(1) on a C-contiguous array), so
        edits to the array are never missed.
        """
        inside, base, frac = axis_terms(
            _as_points(points).T, self._half_size, self._voxel, self.shape)
        return lerp_cells(
            self.data.reshape(-1), self.shape,
            base[0] + base[1] + base[2], inside[0] & inside[1] & inside[2],
            *frac,
        )

    def gradient(self, points: np.ndarray, h: Optional[float] = None) -> np.ndarray:
        """Central-difference gradient of the field at ``(N, 3)`` points.

        Used for shading normals.  ``h`` defaults to half a voxel.  The six
        ``±h`` lookups share one :func:`axis_terms` pass: the pair along an
        axis takes that axis's rows from the offset coordinates and the
        other two axes' rows from the unmoved ones.
        """
        pts = _as_points(points)
        if h is None:
            h = self._voxel * 0.5
        shape = self.shape
        cells = self.data.reshape(-1)
        # coords[0] the points themselves, [1] all axes +h, [2] all axes -h
        coords = np.add(
            pts.T, np.array([0.0, h, -h])[:, None, None],
            out=np.empty((3, 3, len(pts))),
        )
        inside, base, frac = axis_terms(coords, self._half_size, self._voxel, shape)
        grad = np.empty((len(pts), 3), dtype=np.float32)
        for axis in range(3):
            b, c = (axis + 1) % 3, (axis + 2) % 3
            f = list(frac[0])
            f[axis] = frac[1:, axis]
            plus, minus = lerp_cells(
                cells, shape,
                base[1:, axis] + (base[0, b] + base[0, c]),
                inside[1:, axis] & (inside[0, b] & inside[0, c]),
                *f,
            )
            grad[:, axis] = (plus - minus) / (2.0 * h)
        return grad

    # ------------------------------------------------------------------
    # ray intersection
    # ------------------------------------------------------------------
    def intersect_rays(
        self, origins: np.ndarray, directions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Slab-method intersection of rays with the bounding box.

        Returns ``(t_near, t_far)`` arrays; rays that miss have
        ``t_near > t_far``.  Directions need not be normalized.
        """
        o = np.asarray(origins, dtype=np.float64)
        d = np.asarray(directions, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = 1.0 / d
            t1 = (self.world_min[None, :] - o) * inv
            t2 = (self.world_max[None, :] - o) * inv
        tmin = np.minimum(t1, t2)
        tmax = np.maximum(t1, t2)
        # axes with zero direction: ray parallel to slab — inside iff origin
        # within bounds, else miss
        par = d == 0.0
        if par.any():
            inside = (o >= self.world_min) & (o <= self.world_max)
            tmin = np.where(par & inside, -np.inf, tmin)
            tmax = np.where(par & inside, np.inf, tmax)
            tmin = np.where(par & ~inside, np.inf, tmin)
            tmax = np.where(par & ~inside, -np.inf, tmax)
        t_near = np.maximum(tmin.max(axis=1), 0.0)
        t_far = tmax.min(axis=1)
        return t_near, t_far

    def normalized(self) -> VolumeGrid:
        """A copy with samples linearly rescaled to [0, 1]."""
        lo, hi = self.value_range
        span = hi - lo
        if span == 0:
            data = np.zeros_like(self.data)
        else:
            data = (self.data - lo) / span
        return VolumeGrid(data=data, extent=self.extent, name=self.name)
