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

Performance: the tables are keyed by the storage block, the view set.  The
client holds one copy of its pixels, the resident ``ViewSet``s' own blocks:
a *view-set texel store* maps each camera code of the view sets the current
frame touches to its view set's flat ``uint8`` block and the byte offset of
the camera's image in it, and copies no pixel; the camera bases of the whole
lattice are twelve contiguous ``float32`` tables built once.  A frame sorts
its rays once by their *lead* camera (the first corner, which fixes all of a
ray's corners) and walks the runs of equal lead: a camera's basis, block,
texel base and presence are scalars for its whole run, a run's absent
cameras are skipped, and the blended frame lands in the image with one
scatter.  The frame asks the provider only for the view sets its runs'
corners touch, remaps a key only if the provider now hands over a different
object (so residency changes need no manual invalidation) and lets go of
the keys it no longer touches.  A frame is one to a few runs (1-3 in
``client_playback``, 6-8 in the ``fps`` scene), so the per-run Python is a
handful of loop turns.

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
    "SynthesisStats",
    "LightFieldSynthesizer",
]

_MODES = ("quadrilinear", "uv-nearest", "nearest")
#: the colour of a ray that meets no resident sample
BACKGROUND = 0.0


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


@dataclass
class SynthesisStats:
    """Work counters summed over a synthesizer's frames.

    ``rays`` counts the rays that pierce both spheres (the ones looked up);
    ``runs`` counts the runs of rays sharing a lead camera, the unit the
    kernel pays its per-camera Python for.
    """

    frames: int = 0
    rays: int = 0
    runs: int = 0


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
    """Sample-view texels of the view sets the current frame touches.

    Nothing is copied: for every camera of a resident view set the frame
    touches, ``block[code]`` is that ``ViewSet``'s own flat ``uint8`` pixel
    block and ``present[code]`` is set; ``base[code]``, the byte offset of
    the camera's image in its view set's block, is fixed by the lattice.  An
    absent camera has no block and the kernel never taps it.  The store
    holds a reference to each view set it maps, and drops it once a frame
    no longer touches that key.
    """

    def __init__(self, lattice: CameraLattice, resolution: int) -> None:
        self.lattice = lattice
        self.resolution = resolution
        l = lattice.l
        i, j = np.divmod(np.arange(lattice.n_cameras), lattice.n_phi)
        self.base = ((i % l) * l + j % l) * (resolution * resolution * 3)
        self.block: List[Optional[np.ndarray]] = [None] * lattice.n_cameras
        self.present = np.zeros(lattice.n_cameras, dtype=bool)
        self._held: Dict[ViewSetKey, ViewSet] = {}

    def sync(
        self, provider: ViewSetProvider, keys: List[ViewSetKey]
    ) -> Set[ViewSetKey]:
        """Map exactly the resident view sets among ``keys``.

        A key is remapped only when the provider hands over a different
        object than the one it maps, so residency changes need no manual
        invalidation.  Returns the keys that are not resident.
        """
        held: Dict[ViewSetKey, ViewSet] = {}
        for key in keys:
            vs = provider.get_resident(key)
            if vs is not None:
                if self._held.get(key) is not vs:
                    self._check(key, vs)
                held[key] = vs
        for key, vs in self._held.items():
            if held.get(key) is not vs:
                self._unmap(key)
        for key, vs in held.items():
            if self._held.get(key) is not vs:
                self._map(key, vs)
        self._held = held
        return set(keys) - held.keys()

    def _camera_codes(self, key: ViewSetKey) -> List[int]:
        """Codes of a view set's cameras, in the order its block stores them."""
        n_phi = self.lattice.n_phi
        return [
            i * n_phi + j for i, j in self.lattice.cameras_in_viewset(key)
        ]

    def _check(self, key: ViewSetKey, vs: ViewSet) -> None:
        l, r = self.lattice.l, self.resolution
        if vs.key != key:
            raise ValueError(
                f"provider handed over view set {vs.key} for key {key}"
            )
        if vs.images.shape != (l, l, r, r, 3):
            raise ValueError(
                f"view set {key} is {vs.l}x{vs.l} views at resolution "
                f"{vs.resolution}, synthesizer expects {l}x{l} at {r}"
            )

    def _unmap(self, key: ViewSetKey) -> None:
        codes = self._camera_codes(key)
        for code in codes:
            self.block[code] = None
        self.present[codes] = False

    def _map(self, key: ViewSetKey, vs: ViewSet) -> None:
        codes = self._camera_codes(key)
        block = vs.images.reshape(-1)  # a view: ViewSet keeps it contiguous
        for code in codes:
            self.block[code] = block
        self.present[codes] = True


class LightFieldSynthesizer:
    """Renders novel views by 4-D lookup into resident view sets."""

    def __init__(
        self,
        lattice: CameraLattice,
        spheres: TwoSphere,
        resolution: int,
        provider: ViewSetProvider,
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
        self.interpolation = interpolation
        self._tan_half = np.tan(np.radians(spheres.camera_fov_deg()) / 2.0)
        self._bases = _lattice_bases(lattice, spheres.r_outer)
        i, j = np.divmod(np.arange(lattice.n_cameras), lattice.n_phi)
        self._viewset_of_code = (
            (i // lattice.l) * lattice.n_viewsets[1] + j // lattice.l
        )
        self._store = _TexelStore(lattice, self.resolution)
        self.stats = SynthesisStats()

    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Drop the texel store's references to view sets.

        Never needed for correctness — residency is re-checked every frame
        — only to let view sets the provider has dropped be freed before
        the next frame.
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

    def _synthesize(
        self, origins: np.ndarray, dirs: np.ndarray
    ) -> Tuple[np.ndarray, float, Set[ViewSetKey]]:
        """Synthesize rays in ``TwoSphere.project``'s form: planar
        ``(3, N)`` unit directions from one ``(3,)`` eye or from planar
        ``(3, N)`` origins.

        Returns ``(colors (N,3) float32, coverage, missing view-set keys)``.
        Coverage is the fraction of volume-intersecting rays whose blend
        had full weight support (1.0 when everything needed was resident);
        the missing keys are the non-resident view sets *these* rays touch.
        """
        colors = np.full(
            (dirs.shape[1], 3), BACKGROUND, dtype=np.float32
        )
        vidx, points, u, v = self.spheres.project(origins, dirs)
        n = len(vidx)
        self.stats.frames += 1
        if not n:
            return colors, 1.0, set()
        lead, weights = self._leads(u, v)
        order = np.argsort(lead, kind="stable")
        lead = lead.take(order)
        bounds = [0, *(np.flatnonzero(lead[1:] != lead[:-1]) + 1).tolist(), n]
        codes = self._corners(lead.take(bounds[:-1]))
        self.stats.rays += n
        self.stats.runs += codes.shape[1]
        store = self._store
        missing = store.sync(self.provider, self._touched_viewsets(codes))
        present = store.present.take(codes)
        points = points.take(order, axis=1)
        weights = weights.take(order, axis=1)

        acc = np.zeros((3, n), dtype=np.float32)
        wsum = np.zeros(n, dtype=np.float32)
        runs = zip(bounds, bounds[1:], codes.T.tolist(), present.T.tolist())
        for start, stop, run_codes, run_present in runs:
            run = slice(start, stop)
            for code, w, here in zip(run_codes, weights, run_present):
                if here:
                    wf = w[run]
                    sample = self._sample(code, points[:, run])
                    sample *= wf
                    acc[:, run] += sample
                    wsum[run] += wf
        have = wsum > 1e-6
        acc *= np.float32(1.0 / 255.0) / np.where(have, wsum, np.float32(1.0))
        if not have.all():
            acc[:, ~have] = BACKGROUND
        vidx = vidx.take(order)
        for channel in range(3):
            colors[vidx, channel] = acc[channel]
        return colors, float(np.mean(wsum > 0.999)), missing

    # ------------------------------------------------------------------
    # lattice corner selection
    # ------------------------------------------------------------------
    def _leads(
        self, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each ray's lead camera code and its corners' float32 weights.

        The lead is the one corner in the nearest modes and the first,
        ``i0 * n_phi + j0``, in quadrilinear mode, where it fixes all four
        (:meth:`_corners`).  Weights are ``(corners, N)``, in corner order.
        """
        n_theta, n_phi = self.lattice.n_theta, self.lattice.n_phi
        fi, fj = self.lattice.continuous_index(u, v)
        if self.interpolation in ("uv-nearest", "nearest"):
            i = np.clip(np.rint(fi), 0, n_theta - 1).astype(np.intp)
            j = np.rint(fj).astype(np.intp) % n_phi
            return i * n_phi + j, np.ones((1, len(fi)), dtype=np.float32)
        i0 = np.clip(np.floor(fi).astype(np.intp), 0, n_theta - 1)
        wi = np.clip(fi - i0, 0.0, 1.0)
        j0 = np.floor(fj).astype(np.intp) % n_phi
        wj = np.clip(fj - np.floor(fj), 0.0, 1.0)
        weights = np.empty((4, len(fi)), dtype=np.float32)
        weights[0] = (1 - wi) * (1 - wj)
        weights[1] = (1 - wi) * wj
        weights[2] = wi * (1 - wj)
        weights[3] = wi * wj
        i0 *= n_phi
        i0 += j0
        return i0, weights

    def _corners(self, leads: np.ndarray) -> np.ndarray:
        """``(corners, len(leads))`` camera codes of each lead's corners."""
        if self.interpolation in ("uv-nearest", "nearest"):
            return leads[None, :]
        n_theta, n_phi = self.lattice.n_theta, self.lattice.n_phi
        i0, j0 = np.divmod(leads, n_phi)
        i1 = np.minimum(i0 + 1, n_theta - 1) * n_phi
        j1 = (j0 + 1) % n_phi
        i0 *= n_phi
        return np.stack([i0 + j0, i0 + j1, i1 + j0, i1 + j1])

    def _touched_viewsets(self, codes: np.ndarray) -> List[ViewSetKey]:
        """Keys of the view sets holding any of these cameras."""
        cols = self.lattice.n_viewsets[1]
        touched = np.zeros(self.lattice.n_viewsets[0] * cols, dtype=bool)
        touched[self._viewset_of_code.take(codes)] = True
        return [divmod(int(c), cols) for c in np.flatnonzero(touched)]

    # ------------------------------------------------------------------
    # reprojection + texel taps, one camera at a time
    # ------------------------------------------------------------------
    def _sample(self, code: int, points: np.ndarray) -> np.ndarray:
        """Reproject ``points`` into camera ``code`` and tap its image.

        ``points`` is planar ``(3, N)`` float32; so is the result, one row
        per colour channel, in texel units (0..255).
        """
        # the per-ray kernel's float32 operations in its order, in place
        basis = self._bases[:, code]
        _, _, _, rx, ry, rz, ux, uy, uz, fx, fy, fz = basis
        relx, rely, relz = points - basis[:3, None]
        z = relx * fx
        z += rely * fy
        z += relz * fz
        np.maximum(z, np.float32(1e-9), out=z)
        z *= np.float32(self._tan_half)
        inv = np.divide(1.0, z, out=z)
        px = relx * rx
        px += rely * ry
        px += relz * rz
        px *= inv
        py = relx * ux
        py += rely * uy
        py += relz * uz
        py *= inv
        r = self.resolution
        px += 1.0
        px *= 0.5 * r
        px -= 0.5
        np.subtract(1.0, py, out=py)
        py *= 0.5 * r
        py -= 0.5
        np.clip(px, 0.0, r - 1.0, out=px)
        np.clip(py, 0.0, r - 1.0, out=py)
        nearest = self.interpolation == "nearest"
        if nearest:
            x0, y0 = np.rint(px), np.rint(py)
        else:  # top-left tap of the 2x2 footprint, kept inside the image
            x0, y0 = np.floor(px), np.floor(py)
            np.minimum(x0, max(r - 2, 0), out=x0)
            np.minimum(y0, max(r - 2, 0), out=y0)
        # byte index of each ray's (first) texel, one row per channel
        tap = y0.astype(np.intp)
        tap *= r
        tap += x0.astype(np.intp)
        tap *= 3
        tap += self._store.base[code]
        tap = tap + np.arange(3)[:, None]
        texels = self._store.block[code]
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
