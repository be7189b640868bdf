"""Tracing observes without perturbing, at fleet scale.

A traced run adds the samplers' ``sample-*`` ticks to the event queue and
nothing else: on the benchmark's steady (8 clients) and contended (2
clients) rigs and on a 4-shard fleet with 10 % of its clients crossing the
shared backbone, every access latency is equal to the untraced run's by
``.hex()``, and so is the fired ``(time.hex(), label)`` stream once the
sampler ticks are dropped.  The link sampler's inline ``Network.flush()``
and its read of the rebalancer's member rows are what this guards.
"""

from dataclasses import replace

import pytest

from repro.lightfield import CameraLattice, SyntheticSource
from repro.lon import gbps, mbps
from repro.lon.shard import run_sharded_session
from repro.streaming import (
    MultiClientConfig,
    SessionConfig,
    run_multiclient_session,
)

SAMPLER_LABEL = "sample-"


@pytest.fixture(scope="module")
def source():
    return SyntheticSource(CameraLattice(n_theta=18, n_phi=36, l=3), 64)


def _steady(tracing, n_clients=8, n_accesses=8):
    return MultiClientConfig(
        base=SessionConfig(
            case=3, n_accesses=n_accesses, trace_seed=7,
            wan_bandwidth=gbps(2.0), wan_latency=0.08,
            depot_access_bandwidth=mbps(400.0), tcp_window=8 * 1024,
            block_size=256 * 1024, cpu_seconds_per_byte=2e-9,
            staging_concurrency=16, staging_streams=4,
            prefetch_policy="all-neighbors", tracing=tracing,
        ),
        n_clients=n_clients, seed_stride=101, start_stagger=0.25,
    )


def _contended(tracing):
    return MultiClientConfig(
        base=SessionConfig(
            case=3, n_accesses=6, trace_seed=7,
            wan_bandwidth=mbps(40.0), wan_latency=0.08,
            depot_access_bandwidth=mbps(50.0), tcp_window=256 * 1024,
            block_size=2048, cpu_seconds_per_byte=2e-9,
            max_streams=8, staging_concurrency=24, staging_streams=12,
            prefetch_policy="all-neighbors", tracing=tracing,
        ),
        n_clients=2, seed_stride=101, start_stagger=0.25,
    )


def _multiclient(source, config):
    """(access latencies as hex, fired (time, label) stream, sampler ticks)."""
    fired = []

    def observe(rig):
        rig.queue.on_fire = lambda ev: fired.append(
            (ev.time.hex(), ev.label))

    result = run_multiclient_session(source, config, rig_hook=observe)
    return _split(result.per_client, fired)


def _crossing(source, tracing):
    config = replace(_steady(tracing, n_clients=12),
                     cross_shard_fraction=0.1)
    result = run_sharded_session(source, config, n_shards=4, workers=1,
                                 collect_streams=True)
    fired = [(t, label) for s in result.shards
             for t, _seq, label in s.events]
    return _split(result.per_client, fired)


def _split(per_client, fired):
    latencies = [a.total_latency.hex() for m in per_client
                 for a in m.accesses]
    stream = [ev for ev in fired if not ev[1].startswith(SAMPLER_LABEL)]
    return latencies, stream, len(fired) - len(stream)


def _assert_unperturbed(untraced, traced):
    lat0, stream0, ticks0 = untraced
    lat1, stream1, ticks1 = traced
    assert ticks0 == 0 and ticks1 > 0, "the traced run must tick samplers"
    assert lat1 == lat0
    assert stream1 == stream0


def test_steady_rig(source):
    _assert_unperturbed(_multiclient(source, _steady(False)),
                        _multiclient(source, _steady(True)))


def test_contended_rig(source):
    _assert_unperturbed(_multiclient(source, _contended(False)),
                        _multiclient(source, _contended(True)))


def test_crossing_fleet(source):
    _assert_unperturbed(_crossing(source, False), _crossing(source, True))
