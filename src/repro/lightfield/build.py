"""Light field database generation (the paper's server-side generator).

Renders every sample view in a view set with the parallel ray caster,
quantizes to 8-bit, packs the view set, compresses it, and accumulates the
timing/size statistics Section 4.1 reports (generation time, per-view-set
compressed sizes, compression ratio).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..render.camera import Camera, orbit_camera
from ..render.image import to_uint8
from ..render.parallel import ParallelRenderer
from ..render.raycast import RenderSettings
from ..volume.grid import VolumeGrid
from ..volume.transfer import TransferFunction
from .compression import CompressionResult, ZlibCodec
from .database import LightFieldDatabase
from .lattice import CameraLattice, ViewSetKey
from .sphere import TwoSphere
from .viewset import ViewSet

__all__ = ["BuildStats", "LightFieldBuilder"]


@dataclass
class BuildStats:
    """Accumulated generation statistics (Section 4.1's numbers)."""

    viewsets_built: int = 0
    views_rendered: int = 0
    render_seconds: float = 0.0
    compress_seconds: float = 0.0
    raw_bytes: int = 0
    compressed_bytes: int = 0

    @property
    def total_seconds(self) -> float:
        """Wall time spent rendering + compressing."""
        return self.render_seconds + self.compress_seconds

    @property
    def compression_ratio(self) -> float:
        """Aggregate raw/compressed ratio."""
        if self.compressed_bytes == 0:
            return float("inf")
        return self.raw_bytes / self.compressed_bytes


class LightFieldBuilder:
    """Builds :class:`LightFieldDatabase` objects from a volume.

    Parameters
    ----------
    volume, transfer:
        Dataset and classification.
    lattice:
        Camera lattice (72×144 at paper scale).
    resolution:
        Sample-view resolution r (paper sweeps 200..600).
    codec:
        View-set codec (default: the paper's zlib).
    workers:
        Ray-caster worker processes (the paper used 32).
    """

    def __init__(
        self,
        volume: VolumeGrid,
        transfer: TransferFunction,
        lattice: CameraLattice,
        resolution: int,
        codec: Optional[ZlibCodec] = None,
        workers: int = 1,
        settings: RenderSettings = RenderSettings(),
    ) -> None:
        if resolution < 1:
            raise ValueError("resolution must be positive")
        self.volume = volume
        self.transfer = transfer
        self.lattice = lattice
        self.resolution = int(resolution)
        # the parameter spheres: the inner one circumscribes the volume with
        # a 5% margin, the outer one has 2.5x its radius
        r_in = volume.bounding_radius * 1.05
        self.spheres = TwoSphere(r_inner=r_in, r_outer=2.5 * r_in)
        self.codec = codec if codec is not None else ZlibCodec()
        # the parallel renderer builds the macrocell acceleration structure
        # once here (in the parent) and shares it with render workers; all
        # l² sample views of a view set land in one shared-memory stack
        self.renderer = ParallelRenderer(
            volume,
            transfer,
            settings,
            workers=workers,
        )
        self.stats = BuildStats()

    # ------------------------------------------------------------------
    def camera_for(self, i: int, j: int) -> Camera:
        """The lattice sample-view camera at lattice position (i, j)."""
        theta, phi = self.lattice.angles(i, j)
        return orbit_camera(
            theta,
            phi,
            radius=self.spheres.r_outer,
            resolution=self.resolution,
            fov_deg=self.spheres.camera_fov_deg(),
        )

    def render_viewset(self, key: ViewSetKey) -> ViewSet:
        """Render all l² sample views of one view set; the result carries
        the key with its column wrapped into range, as the cameras are."""
        cells = self.lattice.cameras_in_viewset(key)
        key = self.lattice.viewset_of(*cells[0])
        cams = [self.camera_for(i, j) for (i, j) in cells]
        t0 = time.perf_counter()
        frames = self.renderer.render_many(cams)
        self.stats.render_seconds += time.perf_counter() - t0
        self.stats.views_rendered += len(frames)
        l, r = self.lattice.l, self.resolution
        images = np.empty((l, l, r, r, 3), dtype=np.uint8)
        for idx, frame in enumerate(frames):
            images[idx // l, idx % l] = to_uint8(frame)
        return ViewSet(key=key, images=images)

    def compress_viewset(self, viewset: ViewSet) -> CompressionResult:
        """Compress one view set with the configured codec."""
        result = self.codec.compress(viewset)
        self.stats.compress_seconds += result.compress_seconds
        self.stats.raw_bytes += result.raw_size
        self.stats.compressed_bytes += result.compressed_size
        self.stats.viewsets_built += 1
        return result

    def build(
        self, keys: Optional[Iterable[ViewSetKey]] = None
    ) -> LightFieldDatabase:
        """Render + compress view sets into a database.

        ``keys=None`` builds the complete lattice.  Passing a subset supports
        the paper's runtime-generation mode (view sets rendered on demand)
        and the extrapolated Figure 7 size measurement.
        """
        db = LightFieldDatabase(
            self.lattice,
            self.spheres,
            self.resolution,
            name=f"{self.volume.name}-r{self.resolution}",
        )
        todo = list(keys) if keys is not None else list(
            self.lattice.all_viewsets()
        )
        for key in todo:
            vs = self.render_viewset(key)
            db.add(vs.key, self.compress_viewset(vs))
        return db
