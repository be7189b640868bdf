#!/usr/bin/env python3
"""Low-end clients and the Quality Guaranteed Rate (QGR).

The paper argues light fields suit clients "from PDAs to personal
workstations": resource use scales with the console's pixel resolution, and
below 400² the decompression is fast enough that a PDA can re-request view
sets without any local cache.  It also defines the QGR — the fastest user
movement at which prefetching still hides all network latency.

This example:

1. models a PDA (tiny display, one resident view set, slow CPU via a
   larger cpu_seconds_per_byte) and a workstation, and compares their session
   latencies;
2. sweeps the cursor speed to locate the QGR for Cases 2 and 3 — showing
   the paper's claim that the QGR with a LAN depot is far faster than
   direct WAN streaming.

Run:  python examples/pda_client.py [--resolution 200] [--trace out.json]

With ``--trace`` the device-class sessions run traced and each saves a
Chrome/Perfetto trace (render with ``python -m repro trace-report``).
"""

import argparse
from pathlib import Path

from repro.experiments import md_table
from repro.lightfield import CameraLattice, SyntheticSource
from repro.obs import write_chrome_trace
from repro.streaming import SessionConfig, run_session, standard_trace
from repro.streaming import client as console


def qgr_sweep(source, case, speeds, base_traces, threshold=0.25):
    """Steady-state fraction of accesses whose latency stays hidden.

    A fixed warm-up (the first five accesses, identical across cases) is
    excluded — the QGR is about sustained browsing, "provided that the user
    movement is sufficiently slow" — and each point averages several trace
    seeds to smooth out path-specific luck.
    """
    warmup = 5
    rows = []
    for speed in speeds:
        hidden_sum = mean_sum = 0.0
        for base in base_traces:
            trace = base.scaled(speed)
            m = run_session(
                source, SessionConfig(case=case, trace=trace)
            )
            steady = [a for a in m.accesses if a.index > warmup]
            hidden_sum += sum(
                1 for a in steady if a.total_latency < threshold
            ) / max(len(steady), 1)
            mean_sum += m.mean_latency()
        n = len(base_traces)
        rows.append((speed, hidden_sum / n, mean_sum / n))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolution", type=int, default=200)
    parser.add_argument("--accesses", type=int, default=30)
    parser.add_argument(
        "--trace", type=Path, default=None,
        help="save a Chrome/Perfetto trace per device class "
             "(out.json -> out-pda.json, out-laptop.json, ...)",
    )
    args = parser.parse_args()

    lattice = CameraLattice(n_theta=36, n_phi=72, l=6)
    source = SyntheticSource(lattice, resolution=args.resolution)

    print("== device classes ==")
    rows = []
    workstation = SessionConfig().cpu_seconds_per_byte
    resident_capacity = console.RESIDENT_CAPACITY
    for name, capacity, cpu_seconds_per_byte in (
        # no cache beyond the current view set, a CPU 20x slower
        ("PDA", 1, 20 * workstation),
        ("laptop", 2, 4 * workstation),
        ("workstation", 6, workstation),
    ):
        # residency is a constant of the client model, not a session
        # option: set it for this in-process run and put it back after
        console.RESIDENT_CAPACITY = capacity
        try:
            m = run_session(
                source,
                SessionConfig(case=3, n_accesses=args.accesses,
                              cpu_seconds_per_byte=cpu_seconds_per_byte,
                              tracing=args.trace is not None),
            )
        finally:
            console.RESIDENT_CAPACITY = resident_capacity
        if args.trace is not None and m.tracer is not None:
            out = args.trace.with_name(
                f"{args.trace.stem}-{name.lower()}"
                f"{args.trace.suffix or '.json'}"
            )
            n = write_chrome_trace(m.tracer, out)
            print(f"{name}: {n} trace events -> {out}")
        rows.append([
            name, capacity, cpu_seconds_per_byte * 1e9, m.hit_rate(),
            m.mean_latency(),
        ])
    print(md_table(
        headers=["device", "resident view sets", "cpu ns/byte",
                 "hit rate", "mean latency s"],
        rows=rows,
    ))

    print("\n== QGR sweep (fraction of accesses with hidden latency) ==")
    bases = [standard_trace(lattice, n_accesses=args.accesses, seed=s)
             for s in (7, 11, 13)]
    speeds = (0.5, 1.0, 2.0, 4.0)
    table_rows = []
    for case in (2, 3):
        for speed, hidden, mean in qgr_sweep(source, case, speeds, bases):
            table_rows.append([f"case {case}", speed, hidden, mean])
    print(md_table(
        headers=["case", "cursor speed x", "hidden fraction",
                 "mean latency s"],
        rows=table_rows,
    ))
    print("\nThe speed at which the hidden fraction collapses is the QGR; "
          "with the LAN depot (case 3) it sits well above case 2's.")


if __name__ == "__main__":
    main()
