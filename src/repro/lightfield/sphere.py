"""Two-sphere (spherical) light field parameterization.

The original light field used two parallel planes, which forces the camera to
stay behind one boundary plane.  Section 3.2 of the paper replaces this with
**two concentric spheres** around the volume: any viewing ray that intersects
the volume pierces both spheres, and the two intersection points — each
described by spherical angles (theta, phi) — give the 4-D ray index
``(s, t, u, v)``.  By convention here:

* ``(u, v)`` = (theta, phi) of the ray's entry point on the **outer** sphere,
  where the camera lattice lives;
* ``(s, t)`` = (theta, phi) of the ray's entry point on the **inner** sphere,
  which tightly bounds the dataset.

:meth:`TwoSphere.project` is the one ray-to-index mapping: the synthesizer's
frames, arbitrary ray bundles and prefetch planning all go through it, on
planar ``(3, N)`` directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["TwoSphere", "cartesian_to_angles", "angles_to_cartesian"]


def cartesian_to_angles(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of points (relative to the origin).

    theta in [0, pi] from +z; phi in [0, 2pi) from +x toward +y.
    """
    p = np.asarray(points, dtype=np.float64)
    r = np.linalg.norm(p, axis=-1)
    r = np.where(r == 0, 1.0, r)
    theta = np.arccos(np.clip(p[..., 2] / r, -1.0, 1.0))
    phi = np.arctan2(p[..., 1], p[..., 0])
    phi = np.where(phi < 0, phi + 2.0 * np.pi, phi)
    return theta, phi


def angles_to_cartesian(
    theta: np.ndarray, phi: np.ndarray, radius: float = 1.0
) -> np.ndarray:
    """Points on a sphere of ``radius`` from spherical angles."""
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    st = np.sin(theta)
    return radius * np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1
    )


def _first_hit(b: np.ndarray, disc: np.ndarray) -> np.ndarray:
    """Ray parameter of the entry point if ahead of the origin, else exit."""
    sq = np.sqrt(disc)
    t = -b - sq
    return np.where(t >= 0.0, t, -b + sq)


@dataclass(frozen=True)
class TwoSphere:
    """Concentric parameter spheres: cameras on the outer, data in the inner.

    Parameters
    ----------
    r_inner:
        Radius of the inner sphere; must enclose the dataset (typically the
        volume's bounding radius plus a small margin).
    r_outer:
        Radius of the outer sphere, the camera-lattice sphere.
    """

    r_inner: float
    r_outer: float

    def __post_init__(self) -> None:
        if self.r_inner <= 0:
            raise ValueError("r_inner must be positive")
        if self.r_outer <= self.r_inner:
            raise ValueError("r_outer must exceed r_inner")

    # ------------------------------------------------------------------
    def project(
        self, origins: np.ndarray, dirs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Map rays to the 4-D index the synthesizer looks up, valid rays only.

        ``dirs`` are planar ``(3, N)`` unit directions.  ``origins`` is one
        eye ``(3,)`` that every ray shares (a pinhole camera: the
        intersection quadratic's constant term is then a scalar) or planar
        ``(3, N)`` per-ray origins.  A ray is *valid* when it pierces both
        spheres going forward — the paper's point that "not all (s,t,u,v)
        combinations are valid, due to occlusion" of the inner sphere by
        itself.

        Returns ``(vidx, p_in, u, v)``: the indices of the valid rays; their
        inner-sphere entry points, planar ``(3, n)`` float32 — the (s, t)
        point kept Cartesian for reprojection into sample views; and the
        (theta, phi) angles ``(u, v)`` of their outer-sphere entry.  Hit
        distances, points and angles are computed for the valid rays alone.
        """
        o = np.asarray(origins, dtype=np.float64)
        d = np.asarray(dirs, dtype=np.float64)
        shared = o.ndim == 1
        if shared:
            b, oo = o @ d, float(o @ o)
        else:
            b, oo = np.einsum("ij,ij->j", o, d), np.einsum("ij,ij->j", o, o)
        bb = b * b
        # r_outer > r_inner: a ray that meets the inner sphere meets both
        vidx = np.flatnonzero(bb - (oo - self.r_inner**2) >= 0.0)
        b, bb = b[vidx], bb[vidx]
        if not shared:
            oo = oo[vidx]
        t_in = _first_hit(b, bb - (oo - self.r_inner**2))
        t_out = _first_hit(b, bb - (oo - self.r_outer**2))
        ahead = (t_in >= 0.0) & (t_out >= 0.0)
        if not ahead.all():
            vidx, t_in, t_out = vidx[ahead], t_in[ahead], t_out[ahead]
        p_in = np.empty((3, len(vidx)), dtype=np.float32)
        p_out = np.empty((3, len(vidx)))
        for k in range(3):
            o_k = o[k] if shared else o[k][vidx]
            d_k = d[k][vidx]
            np.add(o_k, t_in * d_k, out=p_in[k])
            np.add(o_k, t_out * d_k, out=p_out[k])
        u, v = cartesian_to_angles(p_out.T)
        return vidx, p_in, u, v

    def camera_fov_deg(self, margin: float = 1.02) -> float:
        """Field of view for a lattice camera to just cover the inner sphere.

        A camera on the outer sphere looking at the center sees the inner
        sphere under half-angle ``asin(r_inner / r_outer)``; ``margin``
        scales in a small safety border so bilinear taps near the silhouette
        stay inside the image.
        """
        half = np.arcsin(min(1.0, margin * self.r_inner / self.r_outer))
        return float(np.degrees(2.0 * half))
