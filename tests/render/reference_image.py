"""Test-side fixtures for the image tests: a PPM reader, a test pattern
and an RGBA render.

The program writes PPM (``repro.render.image.save_ppm``) and never reads
one back, never draws a test pattern and never asks for a ray's
transmittance or an alpha channel.
"""

import re
from dataclasses import replace
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from repro.render.camera import Camera
from repro.render.raycast import RaycastRenderer


def load_ppm(path: Union[str, Path]) -> np.ndarray:
    """Read a binary PPM (P6) into a uint8 ``(H, W, 3)`` array."""
    raw = Path(path).read_bytes()
    m = re.match(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s", raw)
    if not m:
        raise ValueError(f"{path}: not a binary PPM")
    w, h, maxval = (int(g) for g in m.groups())
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported")
    data = raw[m.end():]
    expected = w * h * 3
    if len(data) < expected:
        raise ValueError(f"{path}: truncated pixel data")
    return np.frombuffer(data[:expected], dtype=np.uint8).reshape(h, w, 3)


def checkerboard(size: int, tile: int = 8) -> np.ndarray:
    """A float32 test pattern image ``(size, size, 3)``."""
    if size <= 0 or tile <= 0:
        raise ValueError("size and tile must be positive")
    yy, xx = np.mgrid[0:size, 0:size]
    cells = ((yy // tile) + (xx // tile)) % 2
    img = np.empty((size, size, 3), dtype=np.float32)
    img[..., 0] = cells
    img[..., 1] = 1.0 - cells
    img[..., 2] = 0.5
    return img


def render_rays_with_transmittance(
    renderer: RaycastRenderer, origins: np.ndarray, dirs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(colors, trans)`` of a ray bundle: ``renderer.render_rays`` and
    each ray's remaining transmittance (1 = empty space).

    A ray composites ``trans * background`` over its own colour, so its
    colour over a white background less its colour over black is
    ``trans``.  The colours and ``last_render_stats`` are the renderer's
    own, from a last call with its settings as given.
    """
    settings = renderer.settings
    try:
        renderer.settings = replace(settings, background=1.0)
        white = renderer.render_rays(origins, dirs)
        renderer.settings = replace(settings, background=0.0)
        black = renderer.render_rays(origins, dirs)
    finally:
        renderer.settings = settings
    trans = white[:, 0] - black[:, 0]
    return renderer.render_rays(origins, dirs), trans


def render_with_alpha(renderer: RaycastRenderer,
                      camera: Camera) -> np.ndarray:
    """Render an ``(H, W, 4)`` image; alpha = 1 - transmittance."""
    origins, dirs = camera.rays()
    rgb, trans = render_rays_with_transmittance(renderer, origins, dirs)
    alpha = (1.0 - trans)[:, None]
    out = np.concatenate([rgb, alpha], axis=1)
    return out.reshape(camera.height, camera.width, 4)
