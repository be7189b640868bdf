#!/usr/bin/env python3
"""Remote visualization across the simulated WAN: the paper's Cases 1-3.

Reproduces the Section 4.2/4.3 experiment end to end: a light field database
is pre-distributed to depots, a scripted user browses it for 58 view-set
accesses, and the per-access latency is reported for

  Case 1 — database on depots in the client's LAN (the ideal),
  Case 2 — database on three striped depots across the WAN,
  Case 3 — Case 2 plus aggressive two-stage prestaging to a LAN depot.

Run:  python examples/remote_session.py [--resolution 200] [--accesses 58]
      [--scheduling off|weighted|strict] [--trace out.json]

With ``--trace`` the session runs with end-to-end tracing on and saves a
Chrome trace (load it in Perfetto / chrome://tracing, or render it with
``python -m repro trace-report out-case3.json``).
"""

import argparse
from pathlib import Path

from repro.experiments import format_series, md_table
from repro.lightfield import CameraLattice, SyntheticSource
from repro.lon import SCHEDULING_POLICIES
from repro.obs import write_chrome_trace
from repro.streaming import SessionConfig, run_session


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolution", type=int, default=200,
                        help="sample-view resolution (paper: 200/300/500)")
    parser.add_argument("--accesses", type=int, default=58,
                        help="view-set accesses in the trace (paper: 58)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--lattice", type=str, default="36x72x6",
        help="n_theta x n_phi x l (paper: 72x144x6)",
    )
    parser.add_argument(
        "--scheduling", choices=SCHEDULING_POLICIES, default="weighted",
        help="transfer-scheduling policy: off = priority-blind equal "
             "sharing, weighted = per-class max-min weights, strict = "
             "demand preemption (pause background flows)",
    )
    parser.add_argument(
        "--trace", type=Path, default=None,
        help="save a Chrome/Perfetto trace per case "
             "(out.json -> out-case1.json, out-case2.json, ...)",
    )
    args = parser.parse_args()
    nt, np_, l = (int(x) for x in args.lattice.split("x"))
    lattice = CameraLattice(n_theta=nt, n_phi=np_, l=l)

    print(f"database: {lattice.n_viewsets} view sets, "
          f"{args.resolution}x{args.resolution} sample views")
    source = SyntheticSource(lattice, resolution=args.resolution)
    payload_mb = len(source.payload((nt // l // 2, 0))) / 1e6
    print(f"per-view-set payload ~{payload_mb:.2f} MB "
          f"(zlib, paper band 1.2-7.8 MB)\n")

    rows = []
    for case in (1, 2, 3):
        metrics = run_session(
            source,
            SessionConfig(case=case, n_accesses=args.accesses,
                          trace_seed=args.seed,
                          scheduling_policy=args.scheduling,
                          tracing=args.trace is not None),
        )
        if args.trace is not None and metrics.tracer is not None:
            out = args.trace.with_name(
                f"{args.trace.stem}-case{case}"
                f"{args.trace.suffix or '.json'}"
            )
            n = write_chrome_trace(metrics.tracer, out)
            print(f"case {case}: {n} trace events -> {out}\n")
        s = metrics.summary()
        rows.append([
            f"case {case}", s["accesses"], s["hit_rate"], s["wan_rate"],
            s["initial_phase"], s["mean_latency_s"], s["steady_latency_s"],
            s["deduped"], s["promoted"],
        ])
        print(format_series(
            f"case {case} client latency (s)", metrics.latency_series()
        ))
        print()

    print(f"Cases 1-3 summary, scheduling={args.scheduling} "
          "(paper: case 3 converges to case 1)\n")
    print(md_table(
        headers=["case", "accesses", "hit rate", "wan rate",
                 "initial phase", "mean s", "steady s", "deduped",
                 "promoted"],
        rows=rows,
    ))


if __name__ == "__main__":
    main()
