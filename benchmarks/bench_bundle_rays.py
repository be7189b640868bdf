"""Bundle-size curve for the ray caster: time, memory and passes by cap.

``RaycastRenderer.render_many`` marches consecutive sample views as one ray
bundle of at most ``BUNDLE_RAYS`` rays, and ``_march`` runs a bundle in
passes of ``max(1, BUNDLE_RAYS // live)`` steps, sampling each pass's
points in one call.  So the cap bounds both the rays of a bundle and the
points of a pass.  This renders one view set of the neg-hip generator
scene at 64² (32³ volume; l=2, the ``generate_db`` bench size, and l=6),
200² (64³, l=3, the ``generate_db`` reference size) and 400² (64³, l=3)
with the cap patched to each size in ``CAPS``, and records per cap: the
best wall seconds per view set, the peak RSS of the render (``VmHWM``,
reset through ``/proc/self/clear_refs`` before each run after
``malloc_trim``; Linux and glibc only), the sampling calls, and the
points sampled and composited.  A pass samples a ray's remaining steps
even after its transmittance drops below the cutoff, so sampled minus
composited is the pass's waste.

Asserted: at every scene the committed ``BUNDLE_RAYS`` is within 20 % of
the fastest cap, and faster than one view per bundle wherever it bundles
more than one view.  Two tables go to
``benchmarks/results/bundle_rays.txt`` and DESIGN.md section 7: the
curve, and at the committed cap the share of points sampled in passes of
more than one step (what the pass saves on) with the waste.  Nothing here
writes a ``BENCH_*.json``.
"""

import ctypes
from time import perf_counter

from repro.experiments import md_table
from repro.lightfield.build import LightFieldBuilder
from repro.lightfield.lattice import CameraLattice
from repro.render import raycast
from repro.volume import VolumeGrid, neg_hip, preset

# (resolution, volume size, l, repeats)
SCENES = ((64, 32, 2, 9), (64, 32, 6, 3), (200, 64, 3, 3), (400, 64, 3, 2))
CAPS = (1 << 12, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 20)


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


def count_work(monkeypatch, renderer, cams):
    """Sampling calls, sampled and composited points, and the points
    sampled in passes of more than one step, for one ``render_many``."""
    passes = []
    sample, composite = VolumeGrid.sample, raycast.RaycastRenderer._composite

    def spy_sample(self, points):
        passes[-1][1] += len(points)
        return sample(self, points)

    def spy_composite(self, d, cell, pos, steps, *args):
        passes.append([steps, 0])
        return composite(self, d, cell, pos, steps, *args)

    with monkeypatch.context() as patch:
        patch.setattr(VolumeGrid, "sample", spy_sample)
        patch.setattr(raycast.RaycastRenderer, "_composite", spy_composite)
        renderer.render_many(cams)
    return (len(passes), sum(p for _, p in passes),
            renderer.last_render_stats.steps,
            sum(p for steps, p in passes if steps > 1))


def measure(monkeypatch, renderer, cams, caps, repeats):
    """Best seconds, peak RSS MB and work per distinct bundle layout, keyed
    by cap.  Caps that march alike share one measurement, and the layouts
    are timed round-robin so host drift hits them all alike."""
    layouts, work = {}, {}
    for cap in caps:
        monkeypatch.setattr(raycast, "BUNDLE_RAYS", cap)
        work[cap] = count_work(monkeypatch, renderer, cams)
        layouts.setdefault((tuple(raycast.view_bundles(cams)), work[cap]),
                           cap)
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
        out[cap] = (*best[layouts[layout, work[cap]]],
                    max(hi - lo for lo, hi in layout), len(layout),
                    *work[cap])
    return out


def test_bundle_rays(monkeypatch, report):
    committed = raycast.BUNDLE_RAYS
    assert committed in CAPS  # the committed cap is a measured row
    rows, shares, misses = [], [], []
    for resolution, size, l, repeats in SCENES:
        renderer, cams = viewset_cameras(resolution, size, l)
        renderer.render_many(cams[:1])  # build macrocells outside the timing
        timed = measure(monkeypatch, renderer, cams, CAPS, repeats)
        scene = f"{len(cams)} × {resolution}² ({size}³)"
        for cap, (seconds, peak, views, bundles, calls, sampled,
                  composited, _) in timed.items():
            rows.append([scene, cap, views, round(seconds, 3),
                         round(peak, 1), calls, sampled, composited])
        _, _, _, bundles, calls, sampled, composited, multi = timed[committed]
        shares.append([scene, bundles, calls, round(multi / sampled, 3),
                       round(1 - composited / sampled, 4)])
        fastest = min(t[0] for t in timed.values())
        mine, views = timed[committed][0], timed[committed][2]
        misses += [f"{scene}: BUNDLE_RAYS={committed} takes {mine:.3f} s, "
                   f"the fastest cap {fastest:.3f} s"] * (mine > 1.2 * fastest)
        misses += [f"{scene}: bundling is no faster than per-view"] * (
            views > 1 and mine >= timed[CAPS[0]][0])
    report("bundle_rays", md_table(
        ["view set", "bundle rays", "views / bundle", "s / view set",
         "peak RSS MB", "sample calls", "sampled", "composited"], rows)
        + "\n\n" + md_table(
        ["view set", "bundles", "passes", "sampled in multi-step passes",
         "sampled, not composited"], shares))
    assert not misses, misses
