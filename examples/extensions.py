#!/usr/bin/env python3
"""The paper's extensions: interior navigation and time-varying datasets.

Section 3.2 notes that navigating *inside* a volume needs "multiple light
field databases ... but the same framework for remote visualization can be
reused"; Section 5 lists "flow fields and time-varying simulations" as
future work.  Both are implemented here:

1. a grid of light field cells covers the dataset interior; a camera flying
   through it hands off between cells, and each handoff is a streamable
   unit like a view-set crossing;
2. a time-varying dataset animates while the user browses; temporal
   prefetching (fetch the next timestep's current view set ahead of the
   flip) turns animation into agent-cache hits.

Run:  python examples/extensions.py
"""

import numpy as np

from repro.experiments import md_table
from repro.lightfield import CameraLattice, MultiFieldAtlas, SyntheticSource
from repro.streaming import SessionConfig, build_rig
from repro.streaming.metrics import AccessSource, SessionMetrics
from repro.streaming.timevarying import TemporalClient, TimeVaryingSource
from repro.streaming.trace import CursorSample, CursorTrace


def interior_navigation() -> None:
    print("== 1. interior navigation: a flight through the cell atlas ==")
    atlas = MultiFieldAtlas.grid(extent=2.0, cells_per_axis=3)
    print(f"   atlas: {len(atlas)} light field cells tile [-2, 2]^3")

    # a corkscrew flight path through the dataset interior
    t = np.linspace(0, 4 * np.pi, 160)
    path = np.stack([
        1.4 * np.cos(t),
        1.4 * np.sin(t),
        np.linspace(-1.6, 1.6, len(t)),
    ], axis=1)
    handoffs = atlas.handoff_sequence(path)
    supported = sum(1 for p in path if atlas.supporting_cells(p))
    print(f"   {supported}/{len(path)} path points have a supporting cell")
    print(f"   {len(handoffs)} cell handoffs along the flight:")
    for idx, name in handoffs[:8]:
        print(f"     step {idx:3d} -> {name}")
    if len(handoffs) > 8:
        print(f"     ... {len(handoffs) - 8} more")
    print("   each handoff is one streamable unit: the cell's view sets\n"
          "   flow through the same DVS/depot/prefetch machinery.\n")


def time_varying() -> None:
    print("== 2. time-varying browsing with temporal prefetch ==")
    lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
    tv = TimeVaryingSource([
        SyntheticSource(lattice, resolution=64, seed=300 + t)
        for t in range(4)
    ])
    rows = []
    for temporal_prefetch in (True, False):
        base = tv.sources[0]
        rig = build_rig(base, SessionConfig(case=2))
        for vid in rig.dvs.known_viewsets():
            rig.dvs.unregister(vid)
        tv.distribute(rig.lors, rig.wan_depots, rig.dvs)
        metrics = SessionMetrics(case_name="tv", resolution=64)
        client = TemporalClient(
            node="client", queue=rig.queue, network=rig.network,
            agent=rig.client_agent, source=tv, metrics=metrics,
            playback_period=4.0,
            prefetch_temporal=temporal_prefetch,
        )
        theta, phi = lattice.viewset_center((1, 2))
        client.schedule_trace(CursorTrace(samples=[
            CursorSample(0.0, theta, phi),
        ]))
        client.start_playback()
        rig.queue.run_until(120.0)
        flips = [a for a in metrics.accesses
                 if not a.viewset_id.startswith("t0:")]
        hidden = sum(
            1 for a in flips
            if a.source in (AccessSource.AGENT_CACHE,
                            AccessSource.CLIENT_RESIDENT)
        )
        mean_flip = (sum(a.total_latency for a in flips) / len(flips)
                     if flips else 0.0)
        rows.append([
            "on" if temporal_prefetch else "off",
            len(flips), hidden, f"{mean_flip:.3f}",
        ])
    print(md_table(
        headers=["temporal prefetch", "timestep flips", "hidden flips",
                 "mean flip latency s"],
        rows=rows,
    ))
    print("\n   prefetching t+1's current view set turns animation-frame\n"
          "   flips into cache hits — the paper's prefetch idea, extended\n"
          "   along the time axis.")


def main() -> None:
    interior_navigation()
    time_varying()
    print("\ndone.")


if __name__ == "__main__":
    main()
