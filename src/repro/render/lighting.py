"""Gradient-based shading for the volume ray caster.

The sample views the generator renders bake lighting into the light field
(IBR captures appearance, not geometry), so the quality of client-side
renderings depends on the generator's shading.  We implement standard
Blinn-Phong over central-difference normals, vectorized across sample
batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..volume.grid import Workspace

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
    work: Optional[Workspace] = None,
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
    work:
        Where the arrays are computed (``shade.*``); a fresh workspace if
        None.  The result is one of them, valid until the next call
        through ``work``.

    Returns shaded ``(N, 3)`` float32 colors clipped to [0, 1].
    """
    work = Workspace() if work is None else work
    colors = np.asarray(colors, dtype=np.float32)
    m = len(colors)
    n = work("shade.normal", (m, 3), np.float64)
    np.copyto(n, gradients)
    x, y, z = n.T
    term = work("shade.term", (m,), np.float64)
    mag = np.multiply(x, x, out=work("shade.magnitude", (m,), np.float64))
    mag += np.multiply(y, y, out=term)
    mag += np.multiply(z, z, out=term)
    np.sqrt(mag, out=mag)  # == np.linalg.norm(gradients, axis=1)
    strong = np.greater(mag, gradient_floor,
                        out=work("shade.strong", (m,), np.bool_))
    # every row is lit through a floored magnitude (exact on strong rows);
    # weak rows then take the flat colour
    n /= np.maximum(mag, gradient_floor, out=mag)[:, None]
    ldir = light.unit_direction()
    # two-sided shading: volume "surfaces" face either way
    lum = np.abs(np.matmul(n, ldir, out=mag), out=mag)
    # the half vector, ldir + (toward the eye = -view_dirs), normalized as
    # np.linalg.norm does; a zero one stays zero
    half = np.subtract(ldir, view_dirs,
                       out=work("shade.half", (m, 3), np.float64))
    norm = np.add.reduce(
        np.multiply(half, half, out=work("shade.square", (m, 3), np.float64)),
        axis=1, out=term)
    nonzero = np.greater(np.sqrt(norm, out=norm), 0,
                         out=work("shade.nonzero", (m,), np.bool_))
    np.divide(half, norm[:, None], out=half, where=nonzero[:, None])
    half[np.logical_not(nonzero, out=nonzero)] = 0.0
    spec = np.abs(np.einsum("ij,ij->i", n, half, out=term), out=term)
    np.power(spec, light.shininess, out=spec)
    spec *= light.specular
    lum *= light.diffuse
    lum += light.ambient
    # float64 factors, rounded to float32 to scale the float32 colours
    single = work("shade.single", (m,), np.float32)
    np.copyto(single, lum, casting="same_kind")
    out = np.multiply(colors, single[:, None],
                      out=work("shade.colour", (m, 3), np.float32))
    np.copyto(single, spec, casting="same_kind")
    out += single[:, None]
    flat = np.multiply(colors, light.ambient + light.diffuse,
                       out=work("shade.flat", (m, 3), np.float32))
    np.copyto(out, flat, where=np.logical_not(strong, out=strong)[:, None])
    return np.clip(out, 0.0, 1.0, out=out)
