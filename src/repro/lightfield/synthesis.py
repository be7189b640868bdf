"""Novel-view synthesis from resident view sets (the client's renderer).

"The rendering process of a light field database is simply a sequence of
table lookup operations" — this module implements those lookups, vectorized:

1. each novel-view ray is mapped to ``(s, t, u, v)`` via the two-sphere
   parameterization;
2. the lattice cameras surrounding ``(u, v)`` are found (bilinear in the
   camera lattice, phi-periodic);
3. the ray's inner-sphere point is *reprojected* into each sample view and
   the stored image is sampled there (bilinear in ``(s, t)``) — together the
   quadrilinear interpolation of the 4-D ray space the paper describes;
4. contributions blend; cameras whose view set is not resident drop out and
   the remaining weights renormalize, so a missing neighbor degrades
   smoothly instead of leaving holes.

Performance: the tables are keyed by the storage block, the view set.  A
*view-set texel store* holds one flat ``uint8`` buffer with one row per view
set the recent frames touched (its pixel block, copied in once per ``ViewSet``
object) and a camera-code → byte-offset table; the camera bases of the whole
lattice are twelve contiguous ``float32`` tables built once.  A frame asks the
provider for the handful of view sets its corner cameras touch, refills a row
only if the provider now hands over a different object (so residency changes
need no manual invalidation, and an ordinary frame copies nothing), and then
every corner is the same few ``take`` calls on planar arrays: reproject, tap,
blend — absent cameras ride along at weight 0.  No per-camera Python loop, no
per-frame ``np.unique``, no three-index fancy gathers.

Interpolation modes trade fidelity for speed, mirroring the paper's "table
lookup" fast path:

* ``"quadrilinear"`` — 4 cameras × 4 pixel taps (highest quality);
* ``"uv-nearest"``   — nearest camera, bilinear pixel taps (4 taps total);
* ``"nearest"``      — nearest camera, nearest pixel (1 tap, pure lookup).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Set, Tuple

import numpy as np

from ..render.camera import Camera
from .lattice import CameraLattice, ViewSetKey
from .sphere import TwoSphere, angles_to_cartesian
from .viewset import ViewSet

__all__ = [
    "ViewSetProvider",
    "DictProvider",
    "SynthesisResult",
    "LightFieldSynthesizer",
]

_MODES = ("quadrilinear", "uv-nearest", "nearest")


class ViewSetProvider(Protocol):
    """Anything that can hand over resident view sets."""

    def get_resident(self, key: ViewSetKey) -> Optional[ViewSet]:
        """The view set if locally resident, else None (no I/O implied)."""
        ...


class DictProvider:
    """Trivial provider over a dict — used by tests and examples."""

    def __init__(self, viewsets: Dict[ViewSetKey, ViewSet]) -> None:
        self._viewsets = dict(viewsets)

    def get_resident(self, key: ViewSetKey) -> Optional[ViewSet]:
        return self._viewsets.get(key)

    def add(self, vs: ViewSet) -> None:
        """Insert/replace a view set."""
        self._viewsets[vs.key] = vs

    def remove(self, key: ViewSetKey) -> None:
        """Drop a view set if present."""
        self._viewsets.pop(key, None)


@dataclass
class SynthesisResult:
    """A synthesized frame plus diagnostics."""

    image: np.ndarray            # (H, W, 3) float32
    coverage: float              # fraction of valid rays with full support
    missing_keys: Set[ViewSetKey] = field(default_factory=set)


def _lattice_bases(lattice: CameraLattice, radius: float) -> np.ndarray:
    """``(12, n_cameras)`` float32: eye, right, up, forward (xyz each).

    The whole lattice at once — every sample-view camera sits on the outer
    sphere looking at the origin, +z up except next to the poles — so row
    ``k`` is one contiguous per-camera table indexed by camera code.
    """
    i, j = np.divmod(np.arange(lattice.n_cameras), lattice.n_phi)
    theta = (i + 0.5) * lattice.theta_step
    eye = angles_to_cartesian(theta, j * lattice.phi_step, radius)
    forward = -eye / np.linalg.norm(eye, axis=1, keepdims=True)
    up = np.where(
        (np.abs(np.cos(theta)) > 0.999)[:, None],
        [1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
    )
    right = np.cross(forward, up)
    right /= np.linalg.norm(right, axis=1, keepdims=True)
    true_up = np.cross(right, forward)
    return np.ascontiguousarray(
        np.concatenate([eye, right, true_up, forward], axis=1).T,
        dtype=np.float32,
    )


class _TexelStore:
    """Sample-view texels of the view sets recent frames touched.

    One flat ``uint8`` buffer, one row per view set (its ``(l, l, r, r, 3)``
    block, copied in when the store first sees that ``ViewSet`` object), and
    two tables indexed by camera code: ``base``, the byte offset of the
    camera's image in the buffer, and ``present``.  An absent camera keeps a
    valid base (0) so the kernel can tap it unconditionally at weight 0.
    A row keeps the ``ViewSet`` it was filled from alive until it is released
    — that object is what the next frame's identity check compares against.
    """

    def __init__(self, lattice: CameraLattice, resolution: int) -> None:
        self.lattice = lattice
        self.resolution = resolution
        self.view_bytes = resolution * resolution * 3
        self.row_bytes = lattice.l * lattice.l * self.view_bytes
        self.texels = np.empty(0, dtype=np.uint8)
        self.base = np.zeros(lattice.n_cameras, dtype=np.intp)
        self.present = np.zeros(lattice.n_cameras, dtype=bool)
        self._row_of: Dict[ViewSetKey, int] = {}
        self._filled_from: List[Optional[ViewSet]] = []  # per row; None: free

    def sync(
        self, provider: ViewSetProvider, keys: List[ViewSetKey]
    ) -> Set[ViewSetKey]:
        """Bring the rows of ``keys`` in line with the provider.

        A row is (re)filled only when the provider hands over a different
        object than the one it was filled from, so an ordinary frame copies
        nothing.  Returns the keys that are not resident.
        """
        missing: Set[ViewSetKey] = set()
        for key in keys:
            vs = provider.get_resident(key)
            row = self._row_of.get(key)
            if row is not None:
                if self._filled_from[row] is vs:
                    continue
                self._release(key)
            if vs is None:
                missing.add(key)
            else:
                self._fill(key, vs, keep=keys)
        return missing

    def _camera_codes(self, key: ViewSetKey) -> List[int]:
        """Codes of a view set's cameras, in the order its block stores them."""
        n_phi = self.lattice.n_phi
        return [
            i * n_phi + j for i, j in self.lattice.cameras_in_viewset(key)
        ]

    def _release(self, key: ViewSetKey) -> int:
        row = self._row_of.pop(key)
        self._filled_from[row] = None
        codes = self._camera_codes(key)
        self.present[codes] = False
        self.base[codes] = 0
        return row

    def _fill(
        self, key: ViewSetKey, vs: ViewSet, keep: List[ViewSetKey]
    ) -> None:
        l, r = self.lattice.l, self.resolution
        if vs.images.shape != (l, l, r, r, 3):
            raise ValueError(
                f"view set {key} is {vs.l}x{vs.l} views at resolution "
                f"{vs.resolution}, synthesizer expects {l}x{l} at {r}"
            )
        row = self._free_row(keep)
        start = row * self.row_bytes
        self.texels[start:start + self.row_bytes] = vs.images.reshape(-1)
        self._row_of[key] = row
        self._filled_from[row] = vs
        codes = self._camera_codes(key)
        self.present[codes] = True
        self.base[codes] = start + np.arange(l * l) * self.view_bytes

    def _free_row(self, keep: List[ViewSetKey]) -> int:
        """A free row; else one no key in ``keep`` uses; else a new one.

        The buffer therefore grows only when a single frame touches more
        view sets than it has rows.
        """
        for row, source in enumerate(self._filled_from):
            if source is None:
                return row
        for key in self._row_of:
            if key not in keep:
                return self._release(key)
        row = len(self._filled_from)
        self._filled_from.append(None)
        grown = np.empty((row + 1) * self.row_bytes, dtype=np.uint8)
        grown[:self.texels.size] = self.texels
        self.texels = grown
        return row


class LightFieldSynthesizer:
    """Renders novel views by 4-D lookup into resident view sets."""

    def __init__(
        self,
        lattice: CameraLattice,
        spheres: TwoSphere,
        resolution: int,
        provider: ViewSetProvider,
        background: float = 0.0,
        interpolation: str = "quadrilinear",
    ) -> None:
        if resolution < 1:
            raise ValueError("resolution must be positive")
        if interpolation not in _MODES:
            raise ValueError(
                f"interpolation must be one of {_MODES}, got {interpolation!r}"
            )
        self.lattice = lattice
        self.spheres = spheres
        self.resolution = int(resolution)
        self.provider = provider
        self.background = float(background)
        self.interpolation = interpolation
        self._tan_half = np.tan(np.radians(spheres.camera_fov_deg()) / 2.0)
        self._bases = _lattice_bases(lattice, spheres.r_outer)
        i, j = np.divmod(np.arange(lattice.n_cameras), lattice.n_phi)
        self._viewset_of_code = (
            (i // lattice.l) * lattice.n_viewsets[1] + j // lattice.l
        )
        self._store = _TexelStore(lattice, self.resolution)

    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Drop every row of the texel store.

        Never needed for correctness — residency is re-checked every frame
        — only to give the memory back.
        """
        self._store = _TexelStore(self.lattice, self.resolution)

    def render(self, camera: Camera) -> SynthesisResult:
        """Synthesize the frame seen by ``camera``."""
        colors, cov, missing = self._synthesize(
            camera.eye, camera.directions()
        )
        return SynthesisResult(
            image=colors.reshape(camera.height, camera.width, 3),
            coverage=cov,
            missing_keys=missing,
        )

    def render_rays(
        self, origins: np.ndarray, dirs: np.ndarray
    ) -> Tuple[np.ndarray, float, Set[ViewSetKey]]:
        """Synthesize arbitrary ray bundles: ``(N, 3)`` origins and dirs.

        Returns ``(colors (N,3) float32, coverage, missing view-set keys)``.
        Coverage is the fraction of volume-intersecting rays whose blend
        had full weight support (1.0 when everything needed was resident);
        the missing keys are the non-resident view sets *these* rays touch.
        """
        return self._synthesize(
            np.asarray(origins, dtype=np.float64).T,
            np.asarray(dirs, dtype=np.float64).T,
        )

    def _synthesize(
        self, origins: np.ndarray, dirs: np.ndarray
    ) -> Tuple[np.ndarray, float, Set[ViewSetKey]]:
        """:meth:`render_rays` on rays in ``TwoSphere.project``'s form.

        Planar ``(3, N)`` directions from one ``(3,)`` eye or from planar
        ``(3, N)`` origins.
        """
        colors = np.full(
            (dirs.shape[1], 3), self.background, dtype=np.float32
        )
        vidx, points, u, v = self.spheres.project(origins, dirs)
        if not len(vidx):
            return colors, 1.0, set()
        corners = self._corner_cameras(u, v)
        store = self._store
        missing = store.sync(self.provider, self._touched_viewsets(corners))
        if not store.present.any():     # no texels at all to tap
            return colors, 0.0, missing

        acc = np.zeros((3, len(vidx)), dtype=np.float32)
        wsum = np.zeros(len(vidx), dtype=np.float32)
        for code, w in corners:
            wf = w.astype(np.float32) * store.present.take(code)
            acc += self._sample(code, points) * wf
            wsum += wf
        have = wsum > 1e-6
        acc *= np.float32(1.0 / 255.0) / np.where(have, wsum, np.float32(1.0))
        if not have.all():
            acc[:, ~have] = self.background
        colors[vidx] = acc.T
        return colors, float(np.mean(wsum > 0.999)), missing

    # ------------------------------------------------------------------
    # lattice corner selection
    # ------------------------------------------------------------------
    def _corner_cameras(
        self, u: np.ndarray, v: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """(camera code, weight) pairs for the configured interpolation."""
        n_theta, n_phi = self.lattice.n_theta, self.lattice.n_phi
        fi, fj = self.lattice.continuous_index(u, v)
        if self.interpolation in ("uv-nearest", "nearest"):
            i = np.clip(np.rint(fi), 0, n_theta - 1).astype(np.intp)
            j = np.rint(fj).astype(np.intp) % n_phi
            return [(i * n_phi + j, np.ones(len(fi)))]
        i0 = np.clip(np.floor(fi).astype(np.intp), 0, n_theta - 1)
        i1 = np.minimum(i0 + 1, n_theta - 1)
        wi = np.clip(fi - i0, 0.0, 1.0)
        j0 = np.floor(fj).astype(np.intp) % n_phi
        j1 = (j0 + 1) % n_phi
        wj = np.clip(fj - np.floor(fj), 0.0, 1.0)
        i0 *= n_phi
        i1 *= n_phi
        return [
            (i0 + j0, (1 - wi) * (1 - wj)),
            (i0 + j1, (1 - wi) * wj),
            (i1 + j0, wi * (1 - wj)),
            (i1 + j1, wi * wj),
        ]

    def _touched_viewsets(
        self, corners: List[Tuple[np.ndarray, np.ndarray]]
    ) -> List[ViewSetKey]:
        """Keys of the view sets holding any corner camera."""
        cols = self.lattice.n_viewsets[1]
        touched = np.zeros(self.lattice.n_viewsets[0] * cols, dtype=bool)
        for code, _ in corners:
            touched[self._viewset_of_code.take(code)] = True
        return [divmod(int(c), cols) for c in np.flatnonzero(touched)]

    # ------------------------------------------------------------------
    # vectorized reprojection + texel taps
    # ------------------------------------------------------------------
    def _sample(self, code: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Reproject ``points`` into each ray's camera and tap its image.

        ``points`` is planar ``(3, N)`` float32; so is the result, one row
        per colour channel, in texel units (0..255).
        """
        ex, ey, ez, rx, ry, rz, ux, uy, uz, fx, fy, fz = (
            lut.take(code) for lut in self._bases
        )
        relx, rely, relz = points[0] - ex, points[1] - ey, points[2] - ez
        z = relx * fx + rely * fy + relz * fz
        np.maximum(z, np.float32(1e-9), out=z)
        inv = 1.0 / (z * np.float32(self._tan_half))
        x = (relx * rx + rely * ry + relz * rz) * inv
        y = (relx * ux + rely * uy + relz * uz) * inv
        r = self.resolution
        px = (x + 1.0) * (0.5 * r) - 0.5
        py = (1.0 - y) * (0.5 * r) - 0.5
        np.clip(px, 0.0, r - 1.0, out=px)
        np.clip(py, 0.0, r - 1.0, out=py)
        nearest = self.interpolation == "nearest"
        if nearest:
            x0, y0 = np.rint(px), np.rint(py)
        else:  # top-left tap of the 2x2 footprint, kept inside the image
            x0 = np.minimum(np.floor(px), max(r - 2, 0))
            y0 = np.minimum(np.floor(py), max(r - 2, 0))
        # byte index of each ray's (first) texel, one row per channel
        tap = y0.astype(np.intp)
        tap *= r
        tap += x0.astype(np.intp)
        tap *= 3
        tap += self._store.base.take(code)
        tap = tap + np.arange(3)[:, None]
        texels = self._store.texels
        c00 = texels.take(tap).astype(np.float32)
        if nearest:
            return c00
        dx, dy = (3, 3 * r) if r > 1 else (0, 0)
        tap += dx
        c01 = texels.take(tap).astype(np.float32)
        tap += dy
        c11 = texels.take(tap).astype(np.float32)
        tap -= dx
        c10 = texels.take(tap).astype(np.float32)
        px -= x0
        py -= y0
        c01 -= c00
        c01 *= px
        c01 += c00          # top row at px
        c11 -= c10
        c11 *= px
        c11 += c10          # bottom row at px
        c11 -= c01
        c11 *= py
        c11 += c01
        return c11

    # ------------------------------------------------------------------
    def required_viewsets(
        self, origins: np.ndarray, dirs: np.ndarray
    ) -> Set[ViewSetKey]:
        """Which view sets a ray bundle would touch (prefetch planning).

        The keys :meth:`render_rays` asks the provider for on these rays.
        """
        vidx, _, u, v = self.spheres.project(
            np.asarray(origins, dtype=np.float64).T,
            np.asarray(dirs, dtype=np.float64).T,
        )
        if not len(vidx):
            return set()
        return set(self._touched_viewsets(self._corner_cameras(u, v)))
