"""Volume rendering substrate: cameras, the ray-casting generator kernel,
shading, parallel drivers and image utilities.
"""

from .camera import Camera, look_at, orbit_camera
from .image import (
    psnr,
    rmse,
    save_ppm,
    to_float,
    to_uint8,
)
from .lighting import shade_blinn_phong
from .parallel import ParallelRenderer, default_worker_count
from .raycast import RaycastRenderer, RenderSettings

__all__ = [
    "Camera",
    "ParallelRenderer",
    "RaycastRenderer",
    "RenderSettings",
    "default_worker_count",
    "look_at",
    "orbit_camera",
    "psnr",
    "rmse",
    "save_ppm",
    "shade_blinn_phong",
    "to_float",
    "to_uint8",
]
