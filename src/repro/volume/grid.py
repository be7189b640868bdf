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

``sample`` and ``gradient`` run their points through the kernel in blocks
of ``BLOCK``, and every array a block needs comes from the volume's
:class:`Workspace`, which the volume's renderers share: call after call
they reuse the same few megabytes, and allocate nothing that grows with
the number of points but their result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Tuple

import numpy as np

__all__ = ["BLOCK", "VolumeGrid", "Workspace", "axis_terms", "lerp_cells"]

#: points the sampling kernel handles at a time: its arrays take ≈ 2 MB,
#: whatever the number of points
BLOCK = 8192
#: the central-difference offset of :meth:`VolumeGrid.gradient`, in voxels
GRADIENT_STEP_VOXELS = 0.5


class Workspace:
    """Scratch arrays kept from call to call, one buffer per name.

    ``work(name, shape, dtype, room)`` is a C-contiguous view of the buffer
    kept under ``name``, valid until the next request for that name.  The
    buffer is replaced only when a request needs more elements than it
    holds; it holds at least ``room`` elements, or the workspace's own
    ``room`` if that is more, so a caller that knows the bound of its
    requests allocates once and never again.  Pages a request never writes
    are never made resident: room costs address space, not memory.
    """

    __slots__ = ("_buffers", "room")

    def __init__(self, room: int = 0) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self.room = room

    def __reduce__(self) -> Tuple[type, Tuple[int]]:
        # scratch contents mean nothing elsewhere: a copy starts empty
        return Workspace, (self.room,)

    def __call__(self, name: str, shape: Tuple[int, ...], dtype: Any,
                 room: int = 0) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = np.empty(max(size, room, self.room), dtype)
            self._buffers[name] = buf
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes held by all buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())


def _as_points(points: np.ndarray) -> np.ndarray:
    """``points`` as a float64 ``(N, 3)`` array, or ``ValueError``."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got shape {pts.shape}")
    return pts


@lru_cache(maxsize=8)
def _grid_constants(
    shape: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis ``(last index, last index + face tolerance, last cell,
    flat stride)`` columns of a grid ``shape``, and its eight corner
    offsets in the flattened grid."""
    hi = (np.array(shape, dtype=np.float64) - 1.0)[:, None]
    sy, sx = shape[2], shape[1] * shape[2]  # (nx, ny, nz) C order
    # corner c = 4*dx + 2*dy + dz, so each blend halves the leading axis
    corners = np.array(
        [0, 1, sy, sy + 1, sx, sx + 1, sx + sy, sx + sy + 1], dtype=np.intp)
    # tolerate float rounding at the faces: a point computed as lying on
    # the bounding box (e.g. a ray's exact exit t) may land 1 ulp past
    # it, and must sample the boundary plane, not the vacuum sentinel
    out = (hi, hi + 1e-6, hi - 1.0,
           np.array([[sx], [sy], [1]], dtype=np.intp), corners)
    for a in out:
        a.flags.writeable = False  # shared by every caller of the cache
    return out


def axis_terms(
    coords: np.ndarray,
    half_size: np.ndarray,
    voxel: float,
    shape: Tuple[int, ...],
    work: Workspace,
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
    two axes' rows.  The three arrays live in ``work`` (``axis.*``).
    """
    hi, hi_face, last, strides, _ = _grid_constants(tuple(shape))
    idx = np.add(coords, half_size[:, None],
                 out=work("axis.index", coords.shape, np.float64))
    idx /= voxel
    inside = np.greater_equal(idx, -1e-6,
                              out=work("axis.inside", coords.shape, np.bool_))
    inside &= np.less_equal(idx, hi_face,
                            out=work("axis.below", coords.shape, np.bool_))
    # fmax/fmin clamp like np.clip but send a NaN coordinate (flagged
    # outside above) to cell 0 instead of an out-of-range index
    p = np.fmin(np.fmax(idx, 0.0, out=idx), hi, out=idx)
    i0 = np.floor(p, out=work("axis.floor", coords.shape, np.float64))
    np.minimum(i0, last, out=i0)
    # float64 results, rounded (frac) or truncated (base) as they are stored
    frac = np.subtract(p, i0, casting="same_kind",
                       out=work("axis.frac", coords.shape, np.float32))
    base = np.multiply(i0, strides, casting="unsafe",
                       out=work("axis.base", coords.shape, np.intp))
    return inside, base, frac


def lerp_cells(
    cells: np.ndarray,
    shape: Tuple[int, ...],
    base: np.ndarray,
    inside: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    fz: np.ndarray,
    out: np.ndarray,
    work: Workspace,
) -> np.ndarray:
    """Gather the eight corners of each cell and blend them x, then y, then z.

    ``cells`` is the float32 grid flattened over its three spatial axes,
    ``base`` the flat index of each cell's lowest corner, ``inside`` the
    vacuum mask (False reads 0) and ``fx, fy, fz`` the float32
    upper-neighbour weights, each broadcastable against ``base``.  The
    result, shaped like ``base``, goes to ``out``; the corners are
    gathered and blended in place in ``work`` (``lerp.*``).  The blend
    order and the ``lo * (1 - f) + hi * f`` form are fixed: float32
    rounding depends on both, and rendered frames are pinned bit for bit.
    """
    corners = _grid_constants(tuple(shape))[4].reshape((8,) + (1,) * base.ndim)
    index = np.add(base, corners, out=work("lerp.index", (8,) + base.shape,
                                          np.intp))
    # every index is in range (axis_terms clamps), so "clip" changes no
    # value; it spares take the copy of ``out`` that "raise" makes
    c = cells.take(index, axis=0, mode="clip",
                   out=work("lerp.corners", index.shape, cells.dtype))
    # corner c = 4*dx + 2*dy + dz, so each blend halves the leading axis
    for half, f in ((4, fx), (2, fy), (1, fz)):
        lo, hi = c[:half], c[half:2 * half]
        lo *= np.subtract(1, f, out=work("lerp.weight", f.shape, f.dtype))
        hi *= f
        lo += hi
    out[...] = c[0]
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
        # not a field: no part of the volume's value, and pickled empty;
        # no request of the kernel needs more than a block's eight corners
        self._work = Workspace(room=8 * BLOCK)

    @property
    def workspace(self) -> Workspace:
        """Scratch arrays of the sampling kernel and of every renderer of
        this volume: they run one at a time, so one set of buffers serves
        them all."""
        return self._work

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

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self, points: np.ndarray) -> np.ndarray:
        """Trilinear interpolation at ``(N, 3)`` world points.

        Points outside the bounding box return 0 (vacuum), which is how the
        ray caster composites empty space without branching.  The flat view
        of ``data`` is taken per call (O(1) on a C-contiguous array), so
        edits to the array are never missed.  The points go through the
        kernel ``BLOCK`` at a time.
        """
        pts = _as_points(points)
        work = self._work
        out = np.empty(len(pts), dtype=np.float32)
        cells = self.data.reshape(-1)
        for at in range(0, len(pts), BLOCK):
            block = pts[at:at + BLOCK].T
            n = block.shape[1]
            inside, base, frac = axis_terms(
                block, self._half_size, self._voxel, self.shape, work)
            flat = np.add(base[0], base[1],
                          out=work("sample.base", (n,), np.intp))
            flat += base[2]
            ins = np.logical_and(inside[0], inside[1],
                                 out=work("sample.inside", (n,), np.bool_))
            ins &= inside[2]
            lerp_cells(cells, self.shape, flat, ins, *frac,
                       out=out[at:at + n], work=work)
        return out

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Central-difference gradient of the field at ``(N, 3)`` points.

        Used for shading normals.  The offset ``h`` is
        :data:`GRADIENT_STEP_VOXELS` voxels.  The six ``±h`` lookups share
        one :func:`axis_terms` pass: the pair along an axis takes that
        axis's rows from the offset coordinates and the other two axes'
        rows from the unmoved ones.  Blocks as in :meth:`sample`.
        """
        pts = _as_points(points)
        h = self._voxel * GRADIENT_STEP_VOXELS
        work = self._work
        shape = self.shape
        cells = self.data.reshape(-1)
        grad = np.empty((len(pts), 3), dtype=np.float32)
        # coords[0] the points themselves, [1] all axes +h, [2] all axes -h
        offsets = np.array([0.0, h, -h])[:, None, None]
        # a ± pair doubles the kernel's arrays: half a block at a time
        for at in range(0, len(pts), BLOCK // 2):
            block = pts[at:at + BLOCK // 2].T
            n = block.shape[1]
            coords = np.add(block, offsets,
                            out=work("gradient.coords", (3, 3, n), np.float64))
            inside, base, frac = axis_terms(
                coords, self._half_size, self._voxel, shape, work)
            pair = work("gradient.pair", (2, n), np.float32)
            for axis in range(3):
                b, c = (axis + 1) % 3, (axis + 2) % 3
                f = list(frac[0])
                f[axis] = frac[1:, axis]
                flat = np.add(base[0, b], base[0, c],
                              out=work("gradient.base", (n,), np.intp))
                flat = np.add(base[1:, axis], flat,
                              out=work("gradient.pair_base", (2, n), np.intp))
                ins = np.logical_and(
                    inside[0, b], inside[0, c],
                    out=work("gradient.inside", (n,), np.bool_))
                ins = np.logical_and(
                    inside[1:, axis], ins,
                    out=work("gradient.pair_inside", (2, n), np.bool_))
                plus, minus = lerp_cells(cells, shape, flat, ins, *f,
                                         out=pair, work=work)
                np.divide(np.subtract(plus, minus, out=plus), 2.0 * h,
                          out=grad[at:at + n, axis])
        return grad

    # ------------------------------------------------------------------
    # ray intersection
    # ------------------------------------------------------------------
    def intersect_rays(
        self, origins: np.ndarray, directions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Slab-method intersection of rays with the bounding box.

        Returns ``(t_near, t_far)`` arrays; rays that miss have
        ``t_near > t_far``.  Directions need not be normalized.  The rays
        are intersected ``BLOCK`` at a time.
        """
        o = np.asarray(origins, dtype=np.float64)
        d = np.asarray(directions, dtype=np.float64)
        t_near = np.empty(len(o))
        t_far = np.empty(len(o))
        for at in range(0, len(o), BLOCK):
            t_near[at:at + BLOCK], t_far[at:at + BLOCK] = self._slabs(
                o[at:at + BLOCK], d[at:at + BLOCK])
        return t_near, t_far

    def _slabs(self, o: np.ndarray, d: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`intersect_rays` of one block of rays."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = np.divide(1.0, d)
            t1 = np.subtract(self.world_min[None, :], o)
            t1 *= inv
            t2 = np.subtract(self.world_max[None, :], o)
            t2 *= inv
        tmin = np.minimum(t1, t2, out=inv)
        tmax = np.maximum(t1, t2, out=t1)
        # axes with zero direction: ray parallel to slab — inside iff origin
        # within bounds, else miss
        par = d == 0.0
        if par.any():
            inside = (o >= self.world_min) & (o <= self.world_max)
            tmin = np.where(par & inside, -np.inf, tmin)
            tmax = np.where(par & inside, np.inf, tmax)
            tmin = np.where(par & ~inside, np.inf, tmin)
            tmax = np.where(par & ~inside, -np.inf, tmax)
        return np.maximum(tmin.max(axis=1), 0.0), tmax.min(axis=1)

    def normalized(self) -> VolumeGrid:
        """A copy with samples linearly rescaled to [0, 1]."""
        lo, hi = self.value_range
        span = hi - lo
        if span == 0:
            data = np.zeros_like(self.data)
        else:
            data = (self.data - lo) / span
        return VolumeGrid(data=data, extent=self.extent, name=self.name)
