"""The client holds one copy of its pixels: the resident view sets' own.

A decode inflates straight into the block of the view set it returns, and
the synthesizer taps that block where it lies instead of copying it into a
buffer of its own.  The playback scene is ``client_playback``'s: a 12 × 24
lattice, l = 6, 200² views (4.32 MB a view set), two view sets resident,
8 frames a view-set switch.  tracemalloc counts what numpy and Python
allocate, whatever the C allocator does with it.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro.lightfield import CameraLattice, SyntheticSource
from repro.lightfield.compression import DeltaZlibCodec, ZlibCodec
from repro.lightfield.synthesis import DictProvider, LightFieldSynthesizer
from repro.render.camera import orbit_camera

from .reference_synthesis import required_viewsets

#: most a decode may allocate beyond the block it returns (the parent's
#: decode of the 200² block held 9.45 MB: the inflated bytes and a copy)
DECODE_SLACK = 2 * 2**20


@pytest.fixture(scope="module")
def playback():
    lattice = CameraLattice(n_theta=12, n_phi=24, l=6)
    return SyntheticSource(lattice, 200)


def traced(call):
    """``(result, peak, held)``: bytes above where ``call`` began."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - start, held - start


def orbit(source, key, rng):
    """A ``client_playback`` frame's camera around view set ``key``."""
    lattice, spheres = source.lattice, source.spheres
    theta0, phi0 = lattice.viewset_center(key)
    reach = (lattice.l - 1) / 2.0 - 1.0
    return orbit_camera(
        theta0 + rng.uniform(-reach, reach) * lattice.theta_step,
        phi0 + rng.uniform(-reach, reach) * lattice.phi_step,
        radius=1.02 * spheres.r_outer, resolution=source.resolution,
        fov_deg=spheres.camera_fov_deg())


def test_every_mapped_camera_taps_its_resident_view_set(playback):
    source = playback
    lattice = source.lattice
    keys = [(0, 1), (0, 2), (1, 1), (1, 2)]
    provider = DictProvider({k: source.viewset(k) for k in keys})
    synth = LightFieldSynthesizer(
        lattice, source.spheres, source.resolution, provider)
    store = synth._store
    rng = random.Random(3)
    for key in ((0, 1), (1, 2), (0, 1)):
        camera = orbit(source, key, rng)
        synth.render(camera)
        touched = required_viewsets(synth, *camera.rays())
        mapped = 0
        for code in range(lattice.n_cameras):
            i, j = divmod(code, lattice.n_phi)
            owner = (i // lattice.l, j // lattice.l)
            block = store.block[code]
            if owner in touched and owner in keys:
                assert store.present[code]
                assert np.shares_memory(
                    block, provider.get_resident(owner).images)
                mapped += 1
            else:       # untouched keys are let go of
                assert block is None and not store.present[code]
        assert mapped == lattice.l ** 2 * len(touched & set(keys)) > 0


@pytest.mark.parametrize("codec", [ZlibCodec(), DeltaZlibCodec()],
                         ids=["zlib", "delta"])
def test_a_decode_holds_about_one_block(playback, codec):
    source = playback
    vs = source.viewset((1, 2))
    payload = codec.compress(vs).payload
    (back, _), peak, _ = traced(lambda: codec.decompress(payload))
    assert back == vs
    assert back.images.flags.owndata and back.images.flags.writeable
    assert peak <= vs.nbytes + DECODE_SLACK, (
        f"{peak / 1e6:.2f} MB for a {vs.nbytes / 1e6:.2f} MB block")


def test_warm_playback_units_do_not_grow(playback):
    source = playback
    lattice = source.lattice
    keys = [(0, 1), (1, 2), (0, 3), (1, 1)]
    payloads = [(k, source.payload(k)) for k in keys]
    provider = DictProvider({})
    synth = LightFieldSynthesizer(
        lattice, source.spheres, source.resolution, provider)
    resident = []
    rng = random.Random(7)

    def unit(index):
        # switch view set: inflate, keep two resident, orbit it 8 frames
        key, payload = payloads[index % len(payloads)]
        provider.add(ZlibCodec().decompress(payload)[0])
        resident.append(key)
        if len(resident) > 2:
            provider.remove(resident.pop(0))
        synth.invalidate_cache()
        for _ in range(8):
            assert synth.render(orbit(source, key, rng)).coverage > 0.999

    for index in range(len(keys)):                       # warm-up
        unit(index)
    block = source.viewset(keys[0]).nbytes
    peaks, held = [], []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for index in range(len(keys), 3 * len(keys)):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            unit(index)
            now, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - before)
            held.append(now - start)
    finally:
        tracemalloc.stop()
    # from the third unit on, both resident view sets were decoded under
    # the trace, so freeing one counts: a switch replaces one by another of
    # the same size, and a unit peaks at the larger of a decode (a block
    # and its slack) and a frame's temporaries (7.3 MB); holding the
    # inflated bytes beside the block (9.9) or a copy of the view set the
    # frames touch (11.6) does not fit
    peaks, held = peaks[2:], held[2:]
    assert max(peaks) <= 2 * block, [f"{p / 1e6:.2f} MB" for p in peaks]
    growth = [b - a for a, b in zip(held, held[1:])]
    assert max(growth) <= 64 * 1024, growth
