"""Synthesized frame pins: the client's frames, bit for bit.

Each entry is the sha256 of ``LightFieldSynthesizer.render(camera).image``
over a short camera path, for every interpolation mode with every view set
resident and with one missing, at two scenes: the ``client_playback`` bench
geometry (12×24 lattice, l=6, 200² views, 200² frames from just outside the
outer sphere, some rays missing both spheres) and the synthesis oracle's
(12×24, l=3, 40² views, 36² frames crossing view sets, both poles and the
phi seam).  They were recorded before the sphere projection took planar
rays and valid rays only, so a change to how a frame is projected,
reprojected or blended must leave them as they are.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.lightfield import CameraLattice, SyntheticSource
from repro.lightfield.synthesis import DictProvider, LightFieldSynthesizer
from repro.render.camera import orbit_camera

# scene: ((n_theta, n_phi, l), view resolution, frame resolution, radius
#         over r_outer, missing view set)
SCENES = {
    "playback": ((12, 24, 6), 200, 200, 1.02, (1, 2)),
    "oracle": ((12, 24, 3), 40, 36, 1.5, (2, 3)),
}

# (scene, mode, residency): sha256
PINS = {
    ("playback", "quadrilinear", "full"):
        "a93e70efb2a02fa9403e29adc4239b0047c454440da01f3010e72b175089d55f",
    ("playback", "quadrilinear", "one-missing"):
        "c1531a927a307d61c27d5945bd7ad8a7742cd3683ad21de5950870ddf4facf42",
    ("playback", "uv-nearest", "full"):
        "8795b70d31da959912bd898e06f9a996ea0cd164032ff57bfa362a69a25b2710",
    ("playback", "uv-nearest", "one-missing"):
        "2af4d443123534635b35a93df8333718a10f5fa3d46d9389e03350b0c11f3690",
    ("playback", "nearest", "full"):
        "d12397bf62068bd707c8d5a03e759acf0f49e0a7d51b2dc9920de50cfc74d59c",
    ("playback", "nearest", "one-missing"):
        "b096990962787ba02422a551c5806c72bebd1bf128734dd3e76d2283c1155e21",
    ("oracle", "quadrilinear", "full"):
        "185655f21f0c6a45e88fb611a40331a8a9dd6bc8da893b6061ab7b675d5b8350",
    ("oracle", "quadrilinear", "one-missing"):
        "fad98cc75b64c8bf062bed560a3bf07bf6b595c400f829edaba27c9785f257ef",
    ("oracle", "uv-nearest", "full"):
        "2487e0b50d81febc8a42852eaf503ab863769a36b0e19cef1698b50beecd519c",
    ("oracle", "uv-nearest", "one-missing"):
        "591320c4acd43c3befdc92c6da4bd8346ec5cd09bfa00231721917d1c1ea0bc5",
    ("oracle", "nearest", "full"):
        "c47a27a5f46acc5098983371af1684d71b76c4484d0523ff41d14924887c4e9f",
    ("oracle", "nearest", "one-missing"):
        "75abaec22ec2ee64bdbc96212672be7ccfcb9e498634e62b9d89887fd698a7bd",
}

@functools.lru_cache(maxsize=None)
def _source(scene):
    (n_theta, n_phi, l), resolution, *_ = SCENES[scene]
    lattice = CameraLattice(n_theta=n_theta, n_phi=n_phi, l=l)
    source = SyntheticSource(lattice, resolution)
    return source, {k: source.viewset(k) for k in lattice.all_viewsets()}


def _path(scene, source):
    """Cameras around the missing view set: inside it, on its edge, at
    both poles and across the phi seam."""
    lattice, spheres = source.lattice, source.spheres
    _, _, size, radius, hole = SCENES[scene]
    theta, phi = lattice.viewset_center(hole)
    dth, dph = lattice.theta_step, lattice.phi_step
    where = [
        (theta + 0.3 * dth, phi - 0.7 * dph),
        (theta + 0.3 * dth, phi - lattice.l / 2 * dph),
        (0.3 * dth, 1.0),
        (np.pi - 0.2 * dth, 4.0),
        (1.2, 2.0 * np.pi - 0.4 * dph),
    ]
    return [
        orbit_camera(th, ph, radius=radius * spheres.r_outer,
                     resolution=size, fov_deg=spheres.camera_fov_deg())
        for th, ph in where
    ]


def frames_sha(scene, mode, residency):
    source, viewsets = _source(scene)
    hole = SCENES[scene][4]
    resident = {k: v for k, v in viewsets.items()
                if residency == "full" or k != hole}
    synth = LightFieldSynthesizer(
        source.lattice, source.spheres, source.resolution,
        DictProvider(resident), interpolation=mode)
    digest = hashlib.sha256()
    for camera in _path(scene, source):
        digest.update(synth.render(camera).image.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("scene, mode, residency", sorted(PINS))
def test_synthesized_frames_pinned(scene, mode, residency):
    assert frames_sha(scene, mode, residency) == PINS[scene, mode, residency]


if __name__ == "__main__":  # python tests/lightfield/test_synthesis_pins.py
    for spec in PINS:
        print(f"    {spec}:\n        \"{frames_sha(*spec)}\",")
