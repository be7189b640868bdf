"""Rendered view-set pins: the generator's images, bit for bit.

Each entry is the sha256 of ``LightFieldBuilder.render_viewset(key).images``
for a neg-hip scene at the ``generate_db`` bench size (32³, l=2, 64²) and
reference size (64³, l=3, 200²), plus one unshaded key.  They were recorded
while every sample view was still ray-cast by its own ``render`` call, so a
change to how views are batched through the ray caster must leave them as
they are.
"""

import hashlib

import pytest

from repro.lightfield.build import LightFieldBuilder
from repro.lightfield.lattice import CameraLattice
from repro.render.raycast import RenderSettings
from repro.volume import neg_hip, preset

# name: (volume size, (n_theta, n_phi, l), resolution, shaded, key, sha256)
PINS = {
    "bench_a": (32, (12, 24, 2), 64, True, (2, 3),
        "459d3d65a8406075a83e2b6b094eb8eb67a2b8c4c9058de0401aff32c5784dad"),
    "bench_b": (32, (12, 24, 2), 64, True, (4, 9),
        "bc98ee241ca6b9a770f33221e973664cc439d34a6c0e243ac7b94c8fa8e23937"),
    "reference_a": (64, (12, 24, 3), 200, True, (1, 2),
        "865186080a1660e01910cb47f6075cfdf7c4e692424a49d137f9b89a43678098"),
    "reference_b": (64, (12, 24, 3), 200, True, (2, 5),
        "f31f491312cad5269224be46a57d1f6bc8838ada8b61f476228db8e90de60f56"),
    "bench_unshaded": (32, (12, 24, 2), 64, False, (3, 7),
        "05bf69a9cea818b96dd255f9c8c3e9d2d78ffc4e6231ccda2392267fb124b462"),
}


def viewset_sha(size, lattice, resolution, shaded, key):
    n_theta, n_phi, l = lattice
    builder = LightFieldBuilder(
        neg_hip(size=size), preset("neghip"),
        CameraLattice(n_theta=n_theta, n_phi=n_phi, l=l),
        resolution=resolution, settings=RenderSettings(shaded=shaded),
        workers=1)
    images = builder.render_viewset(key).images
    return hashlib.sha256(images.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_viewset_images_pinned(name):
    *spec, sha = PINS[name]
    assert viewset_sha(*spec) == sha


if __name__ == "__main__":  # python tests/lightfield/test_viewset_pins.py
    for name, (*spec, _) in PINS.items():
        print(f'    "{name}": ... "{viewset_sha(*spec)}"')
