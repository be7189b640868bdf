"""Gradient-based shading for the volume ray caster.

The sample views the generator renders bake lighting into the light field
(IBR captures appearance, not geometry), so the quality of client-side
renderings depends on the generator's shading.  We implement standard
Blinn-Phong over central-difference normals, vectorized across sample
batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["Light", "shade_blinn_phong"]


@dataclass(frozen=True)
class Light:
    """A directional light with ambient and specular terms."""

    direction: Tuple[float, float, float] = (0.4, 0.3, 1.0)
    ambient: float = 0.25
    diffuse: float = 0.65
    specular: float = 0.25
    shininess: float = 32.0

    def unit_direction(self) -> np.ndarray:
        """Normalized direction pointing *toward* the light."""
        d = np.asarray(self.direction, dtype=np.float64)
        n = np.linalg.norm(d)
        if n == 0:
            raise ValueError("light direction cannot be zero")
        return d / n


def shade_blinn_phong(
    colors: np.ndarray,
    gradients: np.ndarray,
    view_dirs: np.ndarray,
    light: Light,
    gradient_floor: float = 1e-4,
) -> np.ndarray:
    """Blinn-Phong shading of emission colors using gradient normals.

    Parameters
    ----------
    colors:
        ``(N, 3)`` unshaded emission colors.
    gradients:
        ``(N, 3)`` field gradients at the sample points (need not be unit).
    view_dirs:
        ``(N, 3)`` unit ray directions (pointing *away* from the eye).
    light:
        Lighting parameters.
    gradient_floor:
        Samples with gradient magnitude below this are left unshaded
        (homogeneous regions have no meaningful normal).

    Returns shaded ``(N, 3)`` colors clipped to [0, 1].
    """
    colors = np.asarray(colors, dtype=np.float32)
    g = np.asarray(gradients, dtype=np.float64)
    v = -np.asarray(view_dirs, dtype=np.float64)  # toward the eye
    x, y, z = g.T
    mag = np.sqrt(x * x + y * y + z * z)  # == np.linalg.norm(g, axis=1)
    strong = mag > gradient_floor
    # every row is lit through a floored magnitude (exact on strong rows);
    # weak rows then take the flat colour
    n = g / np.maximum(mag, gradient_floor)[:, None]
    ldir = light.unit_direction()
    # two-sided shading: volume "surfaces" face either way
    ndotl = np.abs(n @ ldir)
    half = ldir[None, :] + v
    half_norm = np.linalg.norm(half, axis=1, keepdims=True)
    half = np.divide(half, half_norm, out=np.zeros_like(half),
                     where=half_norm > 0)
    ndoth = np.abs(np.einsum("ij,ij->i", n, half))
    spec = light.specular * (ndoth ** light.shininess)
    lum = light.ambient + light.diffuse * ndotl
    lit = colors * lum[:, None].astype(np.float32)
    lit += spec[:, None].astype(np.float32)
    flat = colors * (light.ambient + light.diffuse)
    return np.clip(np.where(strong[:, None], lit, flat), 0.0, 1.0)
