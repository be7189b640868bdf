"""Vectorized volume ray caster (the paper's "generator" kernel).

Front-to-back emission-absorption compositing with opacity correction and
early ray termination.  The paper's generator is "a parallel ray-caster on 32
processors"; this is the per-processor kernel — :mod:`repro.render.parallel`
distributes it over worker processes.

The marching loop is over *passes* of steps, not rays: a pass advances
every still-active ray for a run of steps, then samples, shades and
composites all of the run's points in one batch of numpy array operations,
up to ``BUNDLE_RAYS`` points.  Between passes the batch is *compacted* with
index arrays — dead rays are physically dropped from the state arrays
rather than masked out, so late passes only touch the few rays still
marching.  A ray that falls below the opacity cutoff mid-pass has its
remaining points of that pass sampled but not composited, shaded or
counted.

Acceleration (``RenderSettings.accelerated``, on by default) clips each
ray's march to the span of *active macrocells* it can intersect, via the
min-max grid in :mod:`repro.volume.accel`.  Sample positions lie on the
same ``t_near + (k + 0.5) * step`` lattice in both paths and skipped
samples have exactly zero extinction, so the accelerated image matches the
brute-force one to floating-point noise (documented tolerance: max abs
error < 1e-5; the only semantic difference is that ``MAX_STEPS`` budgets
marched steps, and the accelerated path spends none on empty space).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..volume.accel import ActiveCells, MacrocellGrid
from ..volume.grid import BLOCK, VolumeGrid
from ..volume.transfer import TransferFunction
from .camera import Camera
from .lighting import shade_blinn_phong

__all__ = ["BUNDLE_RAYS", "RaycastRenderer", "RenderSettings", "RenderStats"]

# Most rays one ``render_rays`` call marches for ``render_many``, and most
# points one ``_march`` pass samples while fewer rays than this are live.
# Bundling views pays because a pass costs per call, not per ray; the cap
# table at 64², 200² and 400² (DESIGN.md §7) puts this within 20 % of the
# fastest cap everywhere.  A view larger than this is its own bundle.
BUNDLE_RAYS = 1 << 16


def view_bundles(
    cameras: Sequence[Camera], workers: int = 1
) -> List[Tuple[int, int]]:
    """Split ``cameras`` into runs ``[lo, hi)`` of at most ``BUNDLE_RAYS``
    rays each, whole views only, in order.  For ``workers`` processes the
    views are first dealt into near-equal runs, as few as the cap allows
    but a multiple of ``workers``, so no worker sits idle while another
    marches a whole extra bundle."""

    def capped(lo: int, hi: int) -> List[Tuple[int, int]]:
        runs: List[Tuple[int, int]] = []
        rays = 0
        for i in range(lo, hi):
            n = cameras[i].width * cameras[i].height
            if i > lo and rays + n > BUNDLE_RAYS:
                runs.append((lo, i))
                lo, rays = i, 0
            rays += n
        if hi > lo:
            runs.append((lo, hi))
        return runs

    bundles = capped(0, len(cameras))
    if workers == 1 or not bundles:
        return bundles
    n = len(cameras)
    m = min(n, -(-len(bundles) // workers) * workers)
    edges = [-(-k * n // m) for k in range(m + 1)]
    return [b for lo, hi in zip(edges, edges[1:]) for b in capped(lo, hi)]


def split_frames(
    rgb: np.ndarray, cameras: Sequence[Camera]
) -> List[np.ndarray]:
    """Cut a bundle's ``(N, 3)`` colours into one ``(H, W, 3)`` frame per
    camera, in order."""
    frames = []
    at = 0
    for camera in cameras:
        n = camera.width * camera.height
        frames.append(rgb[at:at + n].reshape(camera.height, camera.width, 3))
        at += n
    return frames


#: ray-march step, in voxels of the target volume
STEP_VOXELS = 0.5
#: transmittance below which a ray is terminated early
OPACITY_CUTOFF = 1e-3
#: samples one ray takes at most
MAX_STEPS = 4096
#: the colour a ray composites over
BACKGROUND = 0.0


@dataclass(frozen=True)
class RenderSettings:
    """Knobs for the ray caster.

    ``shaded`` lights samples by Blinn-Phong (:mod:`.lighting`);
    ``accelerated`` enables macrocell empty-space skipping (lossless up to
    float noise; see the module docstring).
    """

    shaded: bool = True
    accelerated: bool = True


@dataclass
class RenderStats:
    """Work counters for the last ``render_rays`` call (summed over the
    bundles of the last ``render_many``).

    ``steps`` counts ray-samples actually taken (the unit the macrocell
    skipping saves); ``skipped_rays`` counts rays proven empty by the
    interval pass and never marched at all.
    """

    rays: int = 0
    marched_rays: int = 0
    skipped_rays: int = 0
    steps: int = 0
    accelerated: bool = False

    def __add__(self, other: "RenderStats") -> "RenderStats":
        """Field-wise sum: the stats of two bundles marched as one."""
        return RenderStats(
            rays=self.rays + other.rays,
            marched_rays=self.marched_rays + other.marched_rays,
            skipped_rays=self.skipped_rays + other.skipped_rays,
            steps=self.steps + other.steps,
            accelerated=self.accelerated,
        )


class RaycastRenderer:
    """Renders a :class:`VolumeGrid` through a transfer function."""

    def __init__(
        self,
        volume: VolumeGrid,
        transfer: TransferFunction,
        settings: RenderSettings = RenderSettings(),
    ) -> None:
        self.volume = volume
        self.transfer = transfer
        self.settings = settings
        self._step = volume._voxel * STEP_VOXELS
        self._cells: Optional[ActiveCells] = None
        self.last_render_stats = RenderStats()

    # ------------------------------------------------------------------
    # acceleration structure
    # ------------------------------------------------------------------
    def prepare(self) -> Optional[ActiveCells]:
        """Build the macrocell activity mask now (idempotent).

        Called lazily on the first accelerated render; the parallel
        front end calls it eagerly in the parent process so the structure
        is built once and shared with workers instead of per-process.
        Returns the classified cells (or ``None`` when acceleration is off).
        """
        if not self.settings.accelerated:
            return None
        if self._cells is None:
            grid = MacrocellGrid.build(self.volume)
            self._cells = grid.classify(self.transfer)
        return self._cells

    def _scratch(self, name: str, shape: Tuple[int, ...], dtype: type
                 ) -> np.ndarray:
        """A pass's buffer: passes sample, classify and composite in the
        volume's workspace, which all its renderers share.  A pass holds
        at most BUNDLE_RAYS points unless one view is wider, so every
        buffer has room for three values a point of a full pass."""
        return self.volume.workspace(name, shape, dtype, 3 * BUNDLE_RAYS)

    # ------------------------------------------------------------------
    def render(self, camera: Camera) -> np.ndarray:
        """Render an ``(H, W, 3)`` float32 image in [0, 1]."""
        origins, dirs = camera.rays()
        rgb = self.render_rays(origins, dirs)
        return rgb.reshape(camera.height, camera.width, 3)

    def render_bundle(self, cameras: Sequence[Camera]) -> np.ndarray:
        """Composite the rays of all ``cameras`` in one ``render_rays``
        call; returns their ``(N, 3)`` colours, camera after camera.

        Every ray is marched with elementwise operations only, so each
        view's pixels are bit-equal to its own ``render``.
        """
        return self.render_rays(
            np.concatenate([np.broadcast_to(c.eye, (c.width * c.height, 3))
                            for c in cameras]),
            np.concatenate([c.directions().T for c in cameras]),
        )

    def render_many(self, cameras: Sequence[Camera]) -> List[np.ndarray]:
        """Render ``(H, W, 3)`` frames for ``cameras``, in order.

        Consecutive views are marched together in bundles of at most
        ``BUNDLE_RAYS`` rays (see :func:`view_bundles`); the frames equal
        per-view :meth:`render` bit for bit, and ``last_render_stats`` is
        the field-wise sum of the per-view stats.
        """
        cameras = list(cameras)
        frames: List[np.ndarray] = []
        total = RenderStats(accelerated=self.settings.accelerated)
        for lo, hi in view_bundles(cameras):
            frames += split_frames(
                self.render_bundle(cameras[lo:hi]), cameras[lo:hi]
            )
            total += self.last_render_stats
        self.last_render_stats = total
        return frames

    def render_rays(
        self, origins: np.ndarray, dirs: np.ndarray
    ) -> np.ndarray:
        """Composite arbitrary ray bundles; returns ``(N, 3)`` colors."""
        origins = np.asarray(origins, dtype=np.float64)
        dirs = np.asarray(dirs, dtype=np.float64)
        n = len(origins)
        color = np.full((n, 3), BACKGROUND, dtype=np.float32)
        stats = RenderStats(rays=n, accelerated=self.settings.accelerated)
        self.last_render_stats = stats

        t_near, t_far = self.volume.intersect_rays(origins, dirs)
        sel = np.nonzero(t_near < t_far)[0]
        if sel.size == 0:
            return color

        if self.settings.accelerated:
            cells = self.prepare()
            assert cells is not None  # accelerated on ⇒ prepare() built it
            seg_t0, seg_t1, ray_ptr = cells.ray_segments(
                origins[sel], dirs[sel], t_near[sel], t_far[sel]
            )
            hit = ray_ptr[1:] > ray_ptr[:-1]
            stats.skipped_rays = int(sel.size - hit.sum())
            # rays with no reachable active cell composite pure background,
            # exactly as a zero-extinction march would
            cur = ray_ptr[:-1][hit].copy()
            hi = ray_ptr[1:][hit]
            sel = sel[hit]
            if sel.size == 0:
                return color
        else:
            # brute force: one segment per ray spanning the whole bbox hit
            seg_t0, seg_t1 = t_near[sel], t_far[sel]
            cur = np.arange(sel.size, dtype=np.intp)
            hi = cur + 1

        stats.marched_rays = int(sel.size)
        col, tr = self._march(
            origins[sel], dirs[sel], t_near[sel], t_far[sel],
            seg_t0, seg_t1, cur, hi, stats,
        )

        # composite over background
        col += tr[:, None] * BACKGROUND
        color[sel] = col
        return color

    # ------------------------------------------------------------------
    def _march(
        self,
        o: np.ndarray,
        d: np.ndarray,
        t_base: np.ndarray,
        t_far: np.ndarray,
        seg_t0: np.ndarray,
        seg_t1: np.ndarray,
        cur: np.ndarray,
        hi: np.ndarray,
        stats: RenderStats,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Front-to-back march of one compacted ray batch over segments.

        Ray ``i`` marches the segments ``seg_t0/seg_t1[cur[i]:hi[i]]`` in
        order.  Samples lie at ``t_base + (k + 0.5) * dt``; ``k`` jumps
        forward (never backward) between segments but the position lattice
        is always computed from the step *index*, never accumulated — so
        brute-force (one whole-span segment) and accelerated (active-cell
        segments) runs sample bit-identical positions, and the samples the
        accelerated run skips carry exactly zero extinction.  A sample is
        only taken while its midpoint is short of both the current segment
        end (plus a half-step margin) and ``t_far`` — vacuum beyond the
        volume is never composited.

        The march runs in *passes* of ``max(1, BUNDLE_RAYS // live)`` steps
        (capped by the ``MAX_STEPS`` left): the pass advances its rays step
        by step, recording who is inside a segment where, and
        :meth:`_composite` samples, shades and composites them all at once.
        State arrays are compacted (gather via index arrays): the advance
        state as rays leave their segments, the colours after the pass,
        which also drops the rays gone below the opacity cutoff.
        """
        m = len(o)
        dt = self._step
        cutoff = OPACITY_CUTOFF
        col_out = np.zeros((m, 3), dtype=np.float32)
        tr_out = np.ones(m, dtype=np.float32)

        live = np.arange(m)          # positions in the caller's batch
        o, d = o.T.copy(), d.T.copy()  # planar (3, m)
        cur = cur.copy()
        tr = np.ones(m, dtype=np.float32)
        col = np.zeros((m, 3), dtype=np.float32)
        # enter the first segment: align k down onto the shared lattice,
        # end at the segment exit plus a half-step margin (so a bound that
        # lands exactly on a midpoint still includes it), capped at t_far
        k = np.maximum(0.0, np.floor((seg_t0[cur] - t_base) / dt))
        t_end = np.minimum(seg_t1[cur] + 0.5 * dt, t_far)

        left = MAX_STEPS
        while left > 0 and live.size:
            # one pass: as many steps as keep its samples within the cap
            steps = max(1, min(BUNDLE_RAYS // live.size, left))
            left -= steps
            # advance step by step, recording each point's cell (its step
            # times the live count plus its row in this pass's live set)
            # and position into the pass's buffers
            d0, n = d, live.size
            cell = self._scratch("pass.cells", (steps * n,), np.intp)
            pos = self._scratch("pass.points", (3, steps * n), np.float64)
            r = np.arange(n)
            at = 0
            for step in range(steps):
                mid = t_base + (k + 0.5) * dt
                # advance rays whose next midpoint passed their segment end
                # to their next segment (possibly chaining through short
                # ones); rays out of segments get t_end = -inf and retire
                adv = mid >= t_end
                while adv.any():
                    ai = np.nonzero(adv)[0]
                    cur[ai] += 1
                    more = cur[ai] < hi[ai]
                    good = ai[more]
                    if good.size:
                        k[good] = np.maximum(
                            k[good],
                            np.floor((seg_t0[cur[good]] - t_base[good]) / dt),
                        )
                        t_end[good] = np.minimum(
                            seg_t1[cur[good]] + 0.5 * dt, t_far[good]
                        )
                        mid[good] = t_base[good] + (k[good] + 0.5) * dt
                    t_end[ai[~more]] = -np.inf
                    adv = np.zeros_like(adv)
                    adv[good] = mid[good] >= t_end[good]
                inside = mid < t_end
                if not inside.all():
                    kept = np.nonzero(inside)[0]
                    r, mid = r[kept], mid[kept]
                    o, d = o.take(kept, axis=1), d.take(kept, axis=1)
                    t_base, t_far = t_base[kept], t_far[kept]
                    cur, hi = cur[kept], hi[kept]
                    k, t_end = k[kept], t_end[kept]
                    if r.size == 0:
                        break
                np.add(r, step * n, out=cell[at:at + r.size])
                xyz = np.multiply(mid, d, out=pos[:, at:at + r.size])
                xyz += o
                at += r.size
                k += 1.0
            if at:
                self._composite(d0, cell[:at], pos[:, :at], steps, tr, col,
                                stats)
            # the pass's survivors: still inside a segment, still visible
            alive = tr[r] > cutoff
            if not alive.all():
                kept = np.nonzero(alive)[0]
                r = r[kept]
                o, d = o.take(kept, axis=1), d.take(kept, axis=1)
                t_base, t_far = t_base[kept], t_far[kept]
                cur, hi = cur[kept], hi[kept]
                k, t_end = k[kept], t_end[kept]
            if r.size < live.size:
                dead = np.ones(live.size, dtype=bool)
                dead[r] = False
                col_out[live[dead]] = col[dead]
                tr_out[live[dead]] = tr[dead]
                live, tr, col = live[r], tr[r], col.take(r, axis=0)

        if live.size:  # MAX_STEPS exhausted with rays still marching
            col_out[live] = col
            tr_out[live] = tr
        return col_out, tr_out

    def _composite(
        self,
        d: np.ndarray,
        cell: np.ndarray,
        pos: np.ndarray,
        steps: int,
        tr: np.ndarray,
        col: np.ndarray,
        stats: RenderStats,
    ) -> None:
        """Sample, classify, shade and composite one pass into ``tr`` and
        ``col`` (in place).

        Point ``i`` of the pass lies at ``pos[:, i]``, in cell ``cell[i]`` of
        the pass's ``(steps, rays)`` tables: its step times ``len(tr)``
        plus its ray.  ``d`` holds every ray's direction.  All of the
        pass's points are sampled and classified in one call each.
        Transmittance and colour then run down the tables, whose cells a
        ray does not sample change nothing (factor 1, colour +0): a running
        product and a running sum, the same float operations in the same
        order as one step per turn.  A ray composites a step only while
        its ``tr`` is above the cutoff; only the points composited are
        shaded, coloured and counted in ``steps``.  Every array sized by
        the pass is a :meth:`_scratch` buffer.
        """
        work = self._scratch
        n, points = len(tr), len(cell)
        cutoff = OPACITY_CUTOFF
        rgb, sigma = self.transfer(
            self.volume.sample(pos.T),
            out=(work("pass.colour", (points, 3), np.float32),
                 work("pass.extinction", (points,), np.float32)))
        # Beer-Lambert opacity correction: step opacity from extinction,
        # in float64 whatever the type of the step
        a = np.multiply(sigma, -self._step, dtype=np.float64,
                        out=work("pass.opacity", (points,), np.float64))
        np.subtract(1.0, np.exp(a, out=a), out=a)
        # trs[j] is the rays' tr before step j; a ray's tr stops changing
        # once it is at or below the cutoff (its later factors become 1)
        trs = work("pass.transmittance", (steps + 1, n), np.float32)
        trs[0] = tr
        trs[1:] = 1.0
        factor = work("pass.factor", (points,), np.float32)
        trs[1:].reshape(-1)[cell] = np.subtract(1.0, a, out=factor)
        spent = work("pass.spent", (n,), np.bool_)
        for j in range(steps):
            trs[j + 1][np.less_equal(trs[j], cutoff, out=spent)] = 1.0
            trs[j + 1] *= trs[j]
        tr[:] = trs[steps]
        before = trs.reshape(-1).take(cell, mode="clip", out=factor)
        took = np.greater(before, cutoff,
                          out=work("pass.took", (points,), np.bool_))
        stats.steps += int(np.count_nonzero(took))
        if self.settings.shaded:
            lit = np.greater(sigma, 1e-6,
                             out=work("pass.lit", (points,), np.bool_))
            lit &= took
            lit = np.flatnonzero(lit)
            # half a block of lit points at a time, as the gradient takes them
            for at in range(0, lit.size, BLOCK // 2):
                idx = lit[at:at + BLOCK // 2]
                m = idx.size
                xyz = work("lit.points", (3, m), np.float64)
                # row by row: pos is a view whose rows lie apart, and a
                # take along axis 1 would first copy all of it
                for c in range(3):
                    pos[c].take(idx, mode="clip", out=xyz[c])
                rays = cell.take(idx, mode="clip",
                                 out=work("lit.rays", (m,), np.intp))
                np.remainder(rays, n, out=rays)
                rgb[idx] = shade_blinn_phong(
                    rgb.take(idx, axis=0, mode="clip",
                             out=work("lit.colours", (m, 3), np.float32)),
                    self.volume.gradient(xyz.T),
                    d.take(rays, axis=1, mode="clip",
                           out=work("lit.dirs", (3, m), np.float64)).T,
                    work=self.volume.workspace,
                )
        # weigh the colours (float64 weights, stored as float32); a point
        # not composited adds +0
        weight = np.multiply(before, a, casting="same_kind", out=factor)
        weight *= took
        rgb *= weight[:, None]
        # a channel at a time, the transmittance table holds the rays'
        # colour before the pass in row 0 and what step j adds in row 1 + j,
        # summed down the steps in order.  numpy reduces along any axis but
        # the fastest in order and along the fastest pairwise: one ray's
        # steps are the fastest axis, so they take a running sum instead
        for c in range(3):
            trs[0] = col[:, c]
            trs[1:] = 0.0
            trs[1:].reshape(-1)[cell] = rgb[:, c]
            if n > 1:
                np.add.reduce(trs, axis=0, out=col[:, c])
            else:
                col[0, c] = np.add.accumulate(trs[:, 0], out=trs[:, 0])[-1]
