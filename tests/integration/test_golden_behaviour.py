"""Cross-commit golden: the simulator's answers, pinned as recorded digests.

Every other equivalence check in the suite compares two things *inside one
commit* (workers vs lockstep, production vs the reference oracle).  This
module is the check across commits: two small rigs whose ``events_fired``
and sha256 over the float-hex access latencies were recorded at the commit
*before* the rebalancer collapsed to one path (64e692a,
``network_rebalance="incremental"``, thresholds 24/6).  A PR that
claims "same behaviour" — deleting a mode, a fast path, a knob — must leave
them untouched; a PR that changes behaviour on purpose re-records them and
says why.

The contended rig flushes components below 24 live flows and from 24 up
(``RebalanceStats.vectorized`` counts the large ones; one pure-Python
fill rates every size, so no result depends on the BLAS build) and admits
its LoRS stream fans as same-instant batches; the crossing rig runs the
lockstep driver with ``set_remote_load`` re-rating every window.
Decompression cost is modeled, so nothing here depends on the host's speed
(re-record with ``python tests/integration/test_golden_behaviour.py``).

``CONTENDED_STREAM`` is the stronger witness for the contended rig: every
fired event's ``(time, label)`` in firing order, recorded at ffc09b5 — the
commit before completion events moved onto calendars — through the public
``EventQueue.on_fire``.  ``seq`` is left out on purpose: arming one event per
calendar renumbers it and nothing else.
"""

import hashlib
from unittest import mock

import pytest

from repro.lightfield import CameraLattice, SyntheticSource
from repro.lon import gbps, mbps
from repro.lon.shard import run_sharded_session
from repro.streaming import (
    MultiClientConfig,
    SessionConfig,
    run_multiclient_session,
    run_session,
    session,
)

GOLDEN = {
    "contended": (
        3030,
        "6dc46395d3425509d2b76237974e6bdd3234bae83d1b4b74358b24ebca3d4f11",
    ),
    "crossing": (
        4844,
        "244ec55a8f9acd9e1520d832652d9ac7cbe27fdae2bc3ecfc539d961323e0b7e",
    ),
    # single-console sessions, recorded at 8774343 (the commit before
    # run_session became the N = 1 case of the fleet engine)
    "case1": (
        323,
        "91e89e248ce71db944916688b79227a80c0c717b287df1f3039f1f89754d3599",
    ),
    "case2": (
        296,
        "9f5a63893b7224cf04a9db914cce17b7b6137db2a1e3b794c3d3596f10099cf1",
    ),
    # same latencies as Case 2: at 64 x 64 the agent's prefetcher already
    # hides the WAN, so staging only adds events
    "case3": (
        429,
        "9f5a63893b7224cf04a9db914cce17b7b6137db2a1e3b794c3d3596f10099cf1",
    ),
}


#: sha256 over ``f"{ev.time.hex()} {ev.label}\n"`` of the contended rig's
#: fired events, in order
CONTENDED_STREAM = (
    "f7d8faefef41ba3d423bc1a4501211a3efe30f976e0323fff4065f8bfffafbc1"
)


def _source():
    return SyntheticSource(CameraLattice(n_theta=12, n_phi=24, l=3),
                           resolution=64)


def _digest(result):
    latencies = "\n".join(a.total_latency.hex()
                          for m in result.per_client for a in m.accesses)
    return (result.events_fired,
            hashlib.sha256(latencies.encode()).hexdigest())


def run_single(case):
    """The paper's Case 1, 2 or 3 for one console, 20 accesses."""
    config = SessionConfig(case=case, n_accesses=20)
    rigs = []
    metrics = run_session(_source(), config, rig_hook=rigs.append)
    latencies = "\n".join(a.total_latency.hex() for a in metrics.accesses)
    return (rigs[0].queue.fired_total,
            hashlib.sha256(latencies.encode()).hexdigest())


def run_contended(rig_hook=None):
    """2 clients on a thin WAN with wide stream fans (flushes do work)."""
    config = MultiClientConfig(
        base=SessionConfig(
            case=3, n_accesses=6, trace_seed=7,
            wan_bandwidth=mbps(40.0), wan_latency=0.08,
            depot_access_bandwidth=mbps(50.0), tcp_window=256 * 1024,
            block_size=2048,
            max_streams=8, staging_concurrency=24, staging_streams=12,
            prefetch_policy="all-neighbors",
        ),
        n_clients=2, seed_stride=101, start_stagger=0.25,
    )
    return run_multiclient_session(_source(), config, rig_hook=rig_hook)


def contended_stream():
    """(events fired, sha256 of the ordered ``(time, label)`` stream)."""
    sha = hashlib.sha256()

    def observe(rig):
        rig.queue.on_fire = lambda ev: sha.update(
            f"{ev.time.hex()} {ev.label}\n".encode())

    return run_contended(rig_hook=observe).events_fired, sha.hexdigest()


def run_crossing():
    """2 shards in lockstep, 10 % of clients (one per shard) on a thin
    shared backbone that both saturate: every 0.5 s window exchanges a
    nonzero remote load and re-rates the local crossing flows."""
    config = MultiClientConfig(
        base=SessionConfig(
            case=3, n_accesses=6, trace_seed=7,
            wan_bandwidth=gbps(2.0), wan_latency=0.08,
            depot_access_bandwidth=mbps(400.0), tcp_window=64 * 1024,
            block_size=16 * 1024,
            staging_concurrency=16, staging_streams=4,
            prefetch_policy="all-neighbors",
        ),
        n_clients=12, seed_stride=101, start_stagger=0.25,
        cross_shard_fraction=0.1,
    )
    with mock.patch.object(session, "BACKBONE_BANDWIDTH", mbps(1.0)):
        return run_sharded_session(_source(), config, n_shards=2,
                                   workers=1, window=0.5)


def test_contended_rig_matches_recorded_digest():
    result = run_contended()
    # the rig is only a witness if it flushed both small and large
    # components (one fill rates both)
    stats = result.rebalance
    assert 0 < stats["vectorized"] < stats["recomputes"]
    assert _digest(result) == GOLDEN["contended"]


def test_contended_rig_fires_the_recorded_event_stream():
    assert contended_stream() == (GOLDEN["contended"][0], CONTENDED_STREAM)


def test_crossing_lockstep_rig_matches_recorded_digest():
    result = run_crossing()
    # a witness only if remote load was exchanged and flows re-rated
    assert result.aggregate()["boundary_max_oversubscription"] > 0.0
    assert result.rebalance["recomputes"] > 0
    assert _digest(result) == GOLDEN["crossing"]


@pytest.mark.parametrize("case", [1, 2, 3])
def test_single_session_matches_recorded_digest(case):
    assert run_single(case) == GOLDEN[f"case{case}"]


if __name__ == "__main__":
    for name, run in (("contended", run_contended),
                      ("crossing", run_crossing)):
        print(f'    "{name}": {_digest(run())!r},')
    for case in (1, 2, 3):
        print(f'    "case{case}": {run_single(case)!r},')
    print(f'CONTENDED_STREAM = "{contended_stream()[1]}"')
