"""Pinhole cameras and ray-bundle generation.

The light field generator renders *sample views* from camera positions on a
lattice over the outer parameter sphere, each looking at the volume's center.
This module provides the pinhole model those renders use and the vectorized
ray bundles (``(H*W, 3)`` origins/directions) both the ray caster and the
light field synthesizer consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Tuple

import numpy as np

__all__ = ["Camera", "look_at", "orbit_camera"]


def _normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize zero vector")
    return v / n


def look_at(
    eye: np.ndarray, target: np.ndarray, up: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal camera basis (right, true_up, forward) for a view."""
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)
    forward = _normalize(target - eye)
    right_raw = np.cross(forward, up)
    if np.linalg.norm(right_raw) < 1e-12:
        # up parallel to view direction: pick any perpendicular axis
        alt = np.array([1.0, 0.0, 0.0])
        if abs(forward[0]) > 0.9:
            alt = np.array([0.0, 1.0, 0.0])
        right_raw = np.cross(forward, alt)
    right = _normalize(right_raw)
    true_up = np.cross(right, forward)
    return right, true_up, forward


@dataclass
class Camera:
    """A pinhole camera.

    Parameters
    ----------
    eye:
        World-space position.
    target:
        Point the camera looks at.
    up:
        Approximate up vector (re-orthogonalized).
    fov_deg:
        Full vertical field of view in degrees.
    width, height:
        Image resolution in pixels.
    """

    eye: np.ndarray
    target: np.ndarray
    up: np.ndarray
    fov_deg: float
    width: int
    height: int

    def __post_init__(self) -> None:
        self.eye = np.asarray(self.eye, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        self.up = np.asarray(self.up, dtype=np.float64)
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if not 0.0 < self.fov_deg < 180.0:
            raise ValueError("fov must be in (0, 180) degrees")
        if np.allclose(self.eye, self.target):
            raise ValueError("eye and target coincide")
        self._basis = look_at(self.eye, self.target, self.up)

    # class-level cache of camera-local pixel grids, keyed by geometry —
    # browsing sessions render thousands of frames at one (w, h, fov)
    _GRID_CACHE: ClassVar[Dict[Tuple[int, int, float], np.ndarray]] = {}

    def rays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Origins ``(N, 3)`` and unit directions ``(N, 3)``, row-major.

        Pixel (0, 0) is the top-left corner; rays pass through pixel centers.
        """
        dirs = self.directions().T
        return np.broadcast_to(self.eye, dirs.shape).copy(), dirs

    def directions(self) -> np.ndarray:
        """Planar ``(3, N)`` unit directions of the rays :meth:`rays` returns.

        A transposed view of that ``(N, 3)`` bundle, not a planar copy: BLAS
        rounds ``eye @ directions()`` by memory layout, and this layout keeps
        synthesized frames bit-equal to the pins in
        ``tests/lightfield/test_synthesis_pins.py``.
        """
        right, up, forward = self._basis
        key = (self.width, self.height, round(self.fov_deg, 9))
        grid = Camera._GRID_CACHE.get(key)
        if grid is None:
            tan_half = np.tan(np.radians(self.fov_deg) / 2.0)
            aspect = self.width / self.height
            # normalized device coordinates of pixel centers
            xs = (np.arange(self.width) + 0.5) / self.width * 2.0 - 1.0
            ys = 1.0 - (np.arange(self.height) + 0.5) / self.height * 2.0
            px, py = np.meshgrid(xs * tan_half * aspect, ys * tan_half)
            # camera-local directions (x, y, 1), pre-normalized
            local = np.stack(
                [px.ravel(), py.ravel(), np.ones(px.size)], axis=1
            )
            local /= np.linalg.norm(local, axis=1, keepdims=True)
            if len(Camera._GRID_CACHE) > 32:
                Camera._GRID_CACHE.clear()
            Camera._GRID_CACHE[key] = local
            grid = local
        basis = np.stack([right, up, forward], axis=0)  # rows
        return (grid @ basis).T


def orbit_camera(
    theta: float,
    phi: float,
    radius: float,
    resolution: int,
    fov_deg: float = 30.0,
) -> Camera:
    """Camera on a sphere around the origin, looking inward.

    ``theta`` is the polar angle from +z in radians (0..pi); ``phi`` the
    azimuth from +x (0..2pi) — the same spherical convention the light field
    lattice uses, so ``orbit_camera(*lattice.angles(i, j), ...)`` places a
    sample-view camera.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    eye = radius * np.array(
        [
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        ]
    )
    # up along +z except near the poles, where we flip to +x
    up = np.array([0.0, 0.0, 1.0])
    if abs(np.cos(theta)) > 0.999:
        up = np.array([1.0, 0.0, 0.0])
    return Camera(
        eye=eye, target=np.zeros(3), up=up, fov_deg=fov_deg,
        width=resolution, height=resolution,
    )
