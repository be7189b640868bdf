"""Min-max macrocell grid: empty-space skipping for the generator kernel.

Database generation is the paper's dominant offline cost (hours of
32-processor ray casting per database).  Most of that work is wasted on
empty space: under a typical classification the far field of the dataset
maps to zero extinction, yet the brute-force marcher samples it anyway.

This module provides the classic fix — a *macrocell* grid (Levoy-style
min-max octree flattened to one level): the volume is partitioned into
:data:`MACROCELL_SIZE`³-voxel cells storing the scalar min/max over each
cell, and a transfer function's exact range-maximum opacity query
(:meth:`~repro.volume.transfer.TransferFunction.max_opacity_in`) classifies
cells as active/inactive *without touching voxels*.  The ray caster then
clips each ray's march to the span of active cells it can intersect.

Conservativeness contract
-------------------------
Trilinear samples inside cell ``c`` depend only on voxels with indices in
``[c*cs, (c+1)*cs]`` inclusive (the +1 boundary plane is shared with the
next cell), and the interpolated value always lies within the min/max of
its 8 surrounding voxels — so ``minv``/``maxv`` computed over that inclusive
slab bound every sample the renderer can take inside the cell.  A cell
whose value range maps to zero maximum extinction contributes *exactly*
nothing to the composited image, which is why skipping is lossless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .grid import VolumeGrid
from .transfer import TransferFunction

__all__ = ["MacrocellGrid", "ActiveCells"]


def _reduce_axis(
    a: np.ndarray, axis: int, cs: int, op: Callable[..., np.ndarray]
) -> np.ndarray:
    """Overlapping block-reduce along one axis: cell c covers voxel indices
    [c*cs, (c+1)*cs] inclusive (the shared boundary plane)."""
    n = a.shape[axis]
    nc = max(1, math.ceil((n - 1) / cs))
    out = []
    for c in range(nc):
        sl = [slice(None)] * a.ndim
        sl[axis] = slice(c * cs, min((c + 1) * cs + 1, n))
        out.append(op(a[tuple(sl)], axis=axis))
    return np.stack(out, axis=axis)


def _dilate26(mask: np.ndarray) -> np.ndarray:
    """Binary dilation with the full 3×3×3 structuring element."""
    nx, ny, nz = mask.shape
    padded = np.pad(mask, 1, constant_values=False)
    out = np.zeros_like(mask)
    for dx in range(3):
        for dy in range(3):
            for dz in range(3):
                out |= padded[dx:dx + nx, dy:dy + ny, dz:dz + nz]
    return out


#: cells whose *maximum possible* extinction is at most this are skipped.
#: Zero is the lossless setting: the accelerated render equals the
#: brute-force one.
SKIP_EXTINCTION = 0.0
#: macrocell edge, in voxels.  Classic macrocell practice uses ~8³, but the
#: interval pass queries a mask dilated by one full cell, so smaller cells
#: keep the conservative envelope much tighter: on the 64³ negHip scene, 4
#: skips ~2× more samples than 8 at negligible extra build cost
MACROCELL_SIZE = 4


@dataclass
class MacrocellGrid:
    """Per-macrocell scalar min/max over a :class:`VolumeGrid`.

    Built once per volume (offline, independent of the transfer function)
    with :meth:`build`; classified against a transfer function with
    :meth:`classify`, which is cheap enough to redo whenever the TF changes.
    """

    cell_size: int
    minv: np.ndarray        # (ncx, ncy, ncz) float32
    maxv: np.ndarray        # (ncx, ncy, ncz) float32
    world_min: np.ndarray   # (3,) lower corner of the volume bbox
    cell_world: float       # world-space edge length of one macrocell

    @classmethod
    def build(cls, volume: VolumeGrid) -> MacrocellGrid:
        """Compute the min-max grid for ``volume``, in cells of
        :data:`MACROCELL_SIZE` voxels a side."""
        cell_size = MACROCELL_SIZE
        data = volume.data
        minv = data
        maxv = data
        for axis in range(3):
            minv = _reduce_axis(minv, axis, cell_size, np.min)
            maxv = _reduce_axis(maxv, axis, cell_size, np.max)
        return cls(
            cell_size=cell_size,
            minv=np.ascontiguousarray(minv, dtype=np.float32),
            maxv=np.ascontiguousarray(maxv, dtype=np.float32),
            world_min=volume.world_min.copy(),
            cell_world=float(cell_size * volume._voxel),
        )

    def classify(self, transfer: TransferFunction) -> ActiveCells:
        """Mark cells active iff their value range can have extinction
        above :data:`SKIP_EXTINCTION`."""
        sigma_max = transfer.max_opacity_in(self.minv, self.maxv)
        mask = sigma_max > SKIP_EXTINCTION
        return ActiveCells(
            mask=mask,
            reachable=_dilate26(mask),
            world_min=self.world_min,
            cell_world=self.cell_world,
        )


@dataclass
class ActiveCells:
    """A macrocell activity mask classified under one transfer function.

    ``reachable`` is ``mask`` dilated by one cell in all 26 directions; the
    interval pass queries it at points spaced one cell edge apart along each
    ray, and the dilation guarantees a sample that close to an active cell
    always lands in a flagged cell — so no active cell is missed, even one
    the ray only clips at a corner.
    """

    mask: np.ndarray       # (ncx, ncy, ncz) bool — σ_max > eps
    reachable: np.ndarray  # mask dilated by one cell per axis
    world_min: np.ndarray
    cell_world: float

    @property
    def active_fraction(self) -> float:
        """Fraction of macrocells that are active (1 - empty-space frac)."""
        return float(self.mask.mean())

    def cell_of(self, points: np.ndarray) -> np.ndarray:
        """Macrocell integer indices for ``(N, 3)`` world points, clipped
        into the grid (out-of-box points map to the nearest boundary cell).
        """
        t = np.subtract(np.asarray(points, dtype=np.float64), self.world_min)
        t /= self.cell_world
        idx = np.floor(t, out=t).astype(np.intp)
        for a, n in enumerate(self.mask.shape):
            np.clip(idx[:, a], 0, n - 1, out=idx[:, a])
        return idx

    def _query_flags(
        self,
        origins: np.ndarray,
        dirs: np.ndarray,
        t_near: np.ndarray,
        t_far: np.ndarray,
    ) -> np.ndarray:
        """Per-(ray, query) activity flags from the vectorized interval pass.

        Walks each ray's ``[t_near, t_far]`` span in steps of one cell edge
        (``delta``), querying the dilated mask at query-segment midpoints
        ``t_near + (q + 0.5) * delta``.  Any t at which the ray could sample
        an active cell lies within ``delta/2`` of some query point, and the
        one-cell dilation guarantees that query is flagged — so unflagged
        query segments provably contain zero extinction only.

        Directions must be unit-length (camera rays are), so t is arc
        length and the delta spacing argument holds.
        """
        o = np.asarray(origins, dtype=np.float64)
        d = np.asarray(dirs, dtype=np.float64)
        n = len(o)
        span = t_far - t_near
        valid = span > 0
        if not valid.any() or not self.mask.any():
            return np.zeros((n, 0), dtype=bool)
        delta = self.cell_world
        qmax = int(np.ceil(float(span[valid].max()) / delta))
        flags = np.zeros((n, qmax), dtype=bool)
        reach = self.reachable
        for q in range(qmax):
            live = np.nonzero(valid & (q * delta < span))[0]
            if live.size == 0:
                break
            tq = t_near[live] + (q + 0.5) * delta
            pos = d.take(live, axis=0)
            pos *= tq[:, None]
            pos += o.take(live, axis=0)
            idx = self.cell_of(pos)
            flags[live, q] = reach[idx[:, 0], idx[:, 1], idx[:, 2]]
        return flags

    def ray_segments(
        self,
        origins: np.ndarray,
        dirs: np.ndarray,
        t_near: np.ndarray,
        t_far: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Conservative active segments per ray, in CSR layout.

        Returns ``(seg_t0, seg_t1, ray_ptr)``: ray ``i``'s segments are
        ``seg_t0[ray_ptr[i]:ray_ptr[i+1]]`` / ``seg_t1[...]``, sorted by t
        and clipped into ``[t_near[i], t_far[i]]``.  Every t at which ray
        ``i`` can sample nonzero extinction lies inside one of its
        segments; rays with no segments never do and can skip marching
        entirely.  Consecutive flagged query cells merge into one segment,
        so interior empty gaps (e.g. the transparent band between the two
        negHip lobes) separate segments and are skipped by the marcher.
        """
        flags = self._query_flags(origins, dirs, t_near, t_far)
        n = len(flags)
        if flags.shape[1] == 0:
            ray_ptr = np.zeros(n + 1, dtype=np.intp)
            empty = np.empty(0, dtype=np.float64)
            return empty, empty.copy(), ray_ptr
        delta = self.cell_world
        padded = np.pad(flags, ((0, 0), (1, 1)))
        starts = flags & ~padded[:, :-2]
        ends = flags & ~padded[:, 2:]
        ray_s, q_s = np.nonzero(starts)   # row-major: per-ray, ascending q
        ray_e, q_e = np.nonzero(ends)     # pairs 1:1 with starts
        # flagged query q covers t in [t_near + q*delta, t_near + (q+1)*delta]
        seg_t0 = t_near[ray_s] + q_s * delta
        seg_t1 = np.minimum(t_near[ray_e] + (q_e + 1) * delta, t_far[ray_e])
        counts = np.bincount(ray_s, minlength=n)
        ray_ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=ray_ptr[1:])
        return seg_t0, seg_t1, ray_ptr
