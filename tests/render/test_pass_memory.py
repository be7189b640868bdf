"""A warm renderer's passes run in reused buffers: bounded, and not growing.

The scene is ``generate_db``'s unit-0 view set (negHip 32³, a 12 × 24 × 2
lattice at 64², view set (2, 2)).  Its four views march as one bundle in
four passes of up to 2¹⁶ points.  With a pass's arrays allocated afresh, a
``render_many`` of it peaks 15 MB above where it started, every call; from
the volume's workspace, warm, it peaks at 3.6 MB.  tracemalloc counts what
numpy and Python allocate, whatever the C allocator does with it.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.lightfield import CameraLattice, LightFieldBuilder
from repro.render import RaycastRenderer, RenderSettings
from repro.volume import neg_hip, preset
from repro.volume.grid import Workspace

#: most a warm render_many of the scene may allocate above where it began
WARM_PEAK = 6 * 2**20


@pytest.fixture(scope="module")
def scene():
    volume, transfer = neg_hip(size=32), preset("neghip")
    builder = LightFieldBuilder(
        volume, transfer, CameraLattice(n_theta=12, n_phi=24, l=2),
        resolution=64)
    cameras = [builder.camera_for(i, j)
               for i, j in builder.lattice.cameras_in_viewset((2, 2))]
    return volume, transfer, cameras


def workspace_bytes(work):
    """Bytes a workspace's buffers hold."""
    return sum(buf.nbytes for buf in work._buffers.values())


def traced_calls(call, times):
    """``(peak, held)`` bytes above the start of each of ``times`` calls."""
    out = []
    tracemalloc.start()
    try:
        for _ in range(times):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            held, peak = tracemalloc.get_traced_memory()
            out.append((peak - start, held - start))
    finally:
        tracemalloc.stop()
    return out


def test_a_warm_render_many_stays_bounded_and_does_not_grow(scene):
    volume, transfer, cameras = scene
    renderer = RaycastRenderer(volume, transfer)
    renderer.render_many(cameras)                  # fills the workspace
    held_by_workspace = workspace_bytes(volume.workspace)
    (second, _), (third, held) = traced_calls(
        lambda: renderer.render_many(cameras), 2)
    assert second <= WARM_PEAK, f"{second / 2**20:.1f} MB"
    assert third <= second
    assert held < 64 * 1024          # a few Python objects, no array
    assert workspace_bytes(volume.workspace) == held_by_workspace


def test_renderers_of_one_volume_share_its_workspace(scene):
    volume, transfer, cameras = scene
    RaycastRenderer(volume, transfer).render_many(cameras)
    held_by_workspace = workspace_bytes(volume.workspace)
    brute = RaycastRenderer(volume, transfer, RenderSettings(accelerated=False))
    (peak, _), = traced_calls(lambda: brute.render(cameras[0]), 1)
    assert peak <= WARM_PEAK, f"{peak / 2**20:.1f} MB"
    assert workspace_bytes(volume.workspace) == held_by_workspace


class TestWorkspace:
    def test_a_name_keeps_its_buffer_until_a_request_outgrows_it(self):
        work = Workspace()
        a = work("x", (2, 3), np.float64, room=12)
        assert a.shape == (2, 3) and a.flags.c_contiguous
        a[...] = 7.0
        b = work("x", (3, 4), np.float64)
        assert np.shares_memory(a, b) and b.flat[0] == 7.0
        c = work("x", (13,), np.float64)
        assert not np.shares_memory(a, c)
        assert workspace_bytes(work) == 13 * 8

    def test_another_dtype_gets_its_own_buffer(self):
        work = Workspace()
        a = work("x", (4,), np.float64)
        b = work("x", (4,), np.float32)
        assert b.dtype == np.float32 and not np.shares_memory(a, b)

    def test_a_pickled_volume_starts_with_an_empty_workspace(self, scene):
        volume, _, _ = scene
        volume.sample(np.zeros((5, 3)))
        assert workspace_bytes(volume.workspace) > 0
        copy = pickle.loads(pickle.dumps(volume))
        assert workspace_bytes(copy.workspace) == 0
        assert np.array_equal(copy.data, volume.data)
