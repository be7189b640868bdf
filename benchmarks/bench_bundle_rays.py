"""Bundle-size curve for the ray caster: time and peak RSS by bundle rays.

``RaycastRenderer.render_many`` marches consecutive sample views as one ray
bundle of at most ``BUNDLE_RAYS`` rays.  ``_march`` costs per step rather
than per ray, so a bigger bundle pays until a bundle's per-step arrays fall
out of cache; past that it only costs memory.  This renders one view set
of the neg-hip generator scene at 64² (32³ volume, 36 views), 200² and
400² (64³ volume, 9 views) with the cap patched to each size in ``CAPS``,
and records the best wall seconds per view set and the peak RSS of the
render (``VmHWM``, reset through ``/proc/self/clear_refs`` before each
run after ``malloc_trim``; Linux and glibc only).

Asserted: at every resolution the committed ``BUNDLE_RAYS`` is within 20 %
of the fastest cap and faster than one view per bundle wherever it
bundles more than one view.  The table goes to
``benchmarks/results/bundle_rays.txt`` and DESIGN.md section 7; nothing
here writes a ``BENCH_*.json``.
"""

import ctypes
from time import perf_counter

from repro.experiments import md_table
from repro.lightfield.build import LightFieldBuilder
from repro.lightfield.lattice import CameraLattice
from repro.render import raycast
from repro.volume import neg_hip, preset

# resolution: (volume size, l, repeats)
SCENES = {64: (32, 6, 3), 200: (64, 3, 3), 400: (64, 3, 2)}
CAPS = (1 << 12, 1 << 14, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20)


def peak_rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def reset_peak_rss():
    # hand freed heap back first, or a bigger layout's run sets the floor
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def viewset_cameras(resolution, size, l):
    volume, transfer = neg_hip(size=size), preset("neghip")
    builder = LightFieldBuilder(
        volume, transfer, CameraLattice(n_theta=12, n_phi=24, l=l),
        resolution=resolution)
    cams = [builder.camera_for(i, j)
            for i, j in builder.lattice.cameras_in_viewset((1, 2))]
    return raycast.RaycastRenderer(volume, transfer), cams


def measure(monkeypatch, renderer, cams, caps, repeats):
    """Best seconds and peak RSS MB per distinct bundle layout, keyed by
    cap.  Caps that split the views alike share one measurement, and the
    layouts are timed round-robin so host drift hits them all alike."""
    layouts = {}
    for cap in caps:
        monkeypatch.setattr(raycast, "BUNDLE_RAYS", cap)
        layouts.setdefault(tuple(raycast.view_bundles(cams)), cap)
    best = {cap: (float("inf"), 0.0) for cap in layouts.values()}
    for _ in range(repeats):
        for cap in best:
            monkeypatch.setattr(raycast, "BUNDLE_RAYS", cap)
            reset_peak_rss()
            t0 = perf_counter()
            renderer.render_many(cams)
            seconds = perf_counter() - t0
            best[cap] = (min(best[cap][0], seconds),
                         max(best[cap][1], peak_rss_mb()))
    out = {}
    for cap in caps:
        monkeypatch.setattr(raycast, "BUNDLE_RAYS", cap)
        layout = tuple(raycast.view_bundles(cams))
        out[cap] = (*best[layouts[layout]],
                    max(hi - lo for lo, hi in layout))
    return out


def test_bundle_rays(monkeypatch, report):
    committed = raycast.BUNDLE_RAYS
    assert committed in CAPS  # the committed cap is a measured row
    rows = []
    for resolution, (size, l, repeats) in SCENES.items():
        renderer, cams = viewset_cameras(resolution, size, l)
        renderer.render_many(cams[:1])  # build macrocells outside the timing
        timed = measure(monkeypatch, renderer, cams, CAPS, repeats)
        for cap, (seconds, peak, views) in timed.items():
            rows.append([f"{resolution}²", len(cams), cap, views,
                         round(seconds, 3), round(peak, 1)])
        fastest = min(seconds for seconds, _, _ in timed.values())
        mine, _, views = timed[committed]
        assert mine <= 1.2 * fastest, (
            f"{resolution}²: BUNDLE_RAYS={committed} takes {mine:.3f} s, "
            f"the fastest cap {fastest:.3f} s")
        if views > 1:
            assert mine < timed[CAPS[0]][0], (
                f"{resolution}²: bundling is no faster than per-view")
    report("bundle_rays", md_table(
        ["resolution", "views", "bundle rays", "views / bundle",
         "s / view set", "peak RSS MB"], rows))
