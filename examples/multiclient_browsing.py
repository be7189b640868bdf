#!/usr/bin/env python3
"""Many browsing clients on one shared depot fleet.

The paper's depots are *shared* infrastructure: storage provisioned inside
the network that any nearby consumer can lease (Section 2).  This example
runs a fleet of concurrent browsing clients — each with its own console,
client agent, cache, cursor trace, and (case 3) staging pump — against one
simulated network, one LAN + WAN depot set, and one transfer scheduler, and
shows three things:

1. per-client experience holds up as the fleet grows: staged LAN copies and
   agent caches keep steady-state latency interactive even though every
   client crosses the same WAN bottleneck;
2. cross-client coalescing: clients walking the same path (seed_stride=0)
   share in-flight WAN downloads through the scheduler's registry instead
   of fetching the same view set N times;
3. simulation throughput: the incremental rebalancer keeps events cheap as
   the flow count scales.

Run:  python examples/multiclient_browsing.py [--clients 16] [--same-path]
"""

import argparse

from repro.lightfield import CameraLattice, SyntheticSource
from repro.streaming import (
    MultiClientConfig,
    SessionConfig,
    run_multiclient_session,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clients", type=int, default=16)
    ap.add_argument("--case", type=int, default=3, choices=[1, 2, 3])
    ap.add_argument("--accesses", type=int, default=15,
                    help="view-set accesses per client")
    ap.add_argument("--resolution", type=int, default=64)
    ap.add_argument("--same-path", action="store_true",
                    help="all clients walk the same cursor trace "
                         "(maximum cross-client sharing)")
    args = ap.parse_args()

    lattice = CameraLattice(n_theta=9, n_phi=18, l=3)
    source = SyntheticSource(lattice, resolution=args.resolution)
    config = MultiClientConfig(
        base=SessionConfig(
            case=args.case,
            n_accesses=args.accesses,
        ),
        n_clients=args.clients,
        seed_stride=0 if args.same_path else 101,
        start_stagger=0.75,
    )

    print(f"== {args.clients} clients, case {args.case}, "
          f"{args.accesses} accesses each ==")
    result = run_multiclient_session(source, config)

    print(f"\n{'client':<10}{'accesses':>9}{'hit rate':>10}"
          f"{'wan rate':>10}{'mean s':>10}")
    for i, m in enumerate(result.per_client):
        print(f"client-{i:<3}{len(m.accesses):>9}{m.hit_rate():>10.3f}"
              f"{m.wan_rate():>10.3f}{m.mean_latency():>10.4f}")

    agg = result.aggregate()
    print(f"\nfleet: {agg['accesses']} accesses, "
          f"mean latency {agg['mean_latency']} s, "
          f"hit rate {agg['hit_rate']}, wan rate {agg['wan_rate']}")
    print(f"cross-client sharing: {agg['deduped_transfers']} transfers "
          f"deduplicated against in-flight fetches, "
          f"{agg['promoted_transfers']} promoted to demand priority")
    print(f"simulated {agg['sim_seconds']} s of browsing in "
          f"{agg['wall_seconds']} s wall "
          f"({agg['events_fired']} events, "
          f"{agg['events_per_second']:.0f} events/s)")
    print(f"rebalancer: {agg['rebalance_recomputes']} flush passes "
          f"({agg['rebalance_coalesced']} triggers coalesced, "
          f"{agg['rebalance_vectorized']} vectorized), "
          f"{agg['rebalance_fast_rated']} quiet-link triggers absorbed, "
          f"{agg['queue_compactions']} heap compactions")


if __name__ == "__main__":
    main()
