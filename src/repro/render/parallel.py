"""Process-parallel rendering (the paper's 32-processor generator).

:meth:`ParallelRenderer.render_many` hands each worker one *bundle* of
consecutive sample views (:func:`repro.render.raycast.view_bundles`); this
is how light field databases are built.

Data movement is kept out of the inner loops on both sides of the fence:

* **state in**: workers are initialized once with a fully-prepared
  :class:`RaycastRenderer` — including the macrocell acceleration structure,
  built a single time in the parent.  Under the ``fork`` start method the
  initializer argument is inherited copy-on-write (no pickling at all);
  under ``spawn`` (the fallback wherever fork is unavailable) the same
  state is pickled exactly once per worker.
* **pixels out**: workers write rendered bundles directly into a
  ``multiprocessing.shared_memory`` output buffer instead of pickling
  ``(H, W, 3)`` float arrays through the result queue — the queue carries
  only offsets.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory
from multiprocessing.pool import Pool
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import processes
from ..volume.grid import VolumeGrid
from ..volume.transfer import TransferFunction
from .camera import Camera
from .raycast import (
    RaycastRenderer, RenderSettings, split_frames, view_bundles,
)

__all__ = ["ParallelRenderer", "default_worker_count"]

# per-process renderer installed by the pool initializer
_WORKER_RENDERER: Optional[RaycastRenderer] = None
# per-process cache of attached shared-memory segments, keyed by name
_WORKER_SHM: Dict[str, shared_memory.SharedMemory] = {}


def default_worker_count() -> int:
    """Worker count: all cores minus one, at least 1."""
    return max(1, (os.cpu_count() or 2) - 1)


def _init_worker(renderer: RaycastRenderer) -> None:
    global _WORKER_RENDERER
    _WORKER_RENDERER = renderer
    _WORKER_SHM.clear()


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach (and memoize) a shared-memory segment in a worker.

    Pool workers inherit the parent's resource tracker (fork and spawn
    alike), so the attach-side registration Python < 3.13 performs is a
    no-op on the tracker's name set and the parent's single unlink keeps
    the ledger balanced — no unregister gymnastics needed here.
    """
    shm = _WORKER_SHM.get(name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
        _WORKER_SHM[name] = shm
    return shm


def _render_bundle(task: Tuple[List[Camera], int, int, str]) -> int:
    """Render one bundle of views into the flat shared ``(rays, 3)`` buffer
    at ray offset ``at``."""
    cameras, at, total, shm_name = task
    assert _WORKER_RENDERER is not None, "worker not initialized"
    rgb = _WORKER_RENDERER.render_bundle(cameras)
    shm = _attach_shm(shm_name)
    out = np.ndarray((total, 3), dtype=np.float32, buffer=shm.buf)
    out[at:at + len(rgb)] = rgb
    return at


class ParallelRenderer:
    """View-parallel front end over :class:`RaycastRenderer`.

    With ``workers=1`` all work runs inline, which keeps unit tests fast
    and deterministic.  Pools start as :func:`repro.processes.start_context`
    decides: ``fork`` shares the prepared renderer copy-on-write, ``spawn``
    pickles it once per worker.
    """

    def __init__(
        self,
        volume: VolumeGrid,
        transfer: TransferFunction,
        settings: RenderSettings = RenderSettings(),
        workers: Optional[int] = None,
    ) -> None:
        self.volume = volume
        self.transfer = transfer
        self.settings = settings
        self.workers = workers if workers is not None else default_worker_count()
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self._inline = RaycastRenderer(volume, transfer, settings)
        # build the acceleration structure once, in the parent, before any
        # worker exists: fork inherits it copy-on-write, spawn pickles it
        # with the renderer — either way workers never rebuild it
        self._inline.prepare()

    def render_many(self, cameras: Sequence[Camera]) -> List[np.ndarray]:
        """Render many sample views, preserving order.

        Views are grouped by :func:`view_bundles` for ``workers``
        processes, one bundle per task, so every worker gets one; workers
        write each bundle's colours into one flat shared-memory buffer at
        the bundle's ray offset, whatever the views' resolutions.  A single
        bundle is rendered inline: a pool would only add its start-up.
        """
        cameras = list(cameras)
        bundles = view_bundles(cameras, self.workers)
        if self.workers == 1 or len(bundles) <= 1:
            return self._inline.render_many(cameras)
        sizes = [c.width * c.height for c in cameras]
        total = sum(sizes)
        shm = shared_memory.SharedMemory(create=True, size=total * 3 * 4)
        try:
            tasks = [
                (cameras[lo:hi], sum(sizes[:lo]), total, shm.name)
                for lo, hi in bundles
            ]
            with self._pool() as pool:
                for _ in pool.imap_unordered(_render_bundle, tasks):
                    pass
            rgb = np.ndarray((total, 3), dtype=np.float32, buffer=shm.buf)
            frames = split_frames(rgb.copy(), cameras)
        finally:
            shm.close()
            shm.unlink()
        return frames

    def _pool(self) -> Pool:
        return processes.start_context().Pool(
            processes=self.workers,
            initializer=_init_worker,
            initargs=(self._inline,),
        )
