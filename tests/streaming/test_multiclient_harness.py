"""Multi-client session harness: N consoles on one shared depot fleet.

Covers the wiring (per-client components, shared fabric, staggered
traces), the end-to-end run (every client's accesses delivered, fleet
aggregate consistent), and equivalence with the reference-oracle network
at harness level.
"""

import pytest

from repro.lightfield.lattice import CameraLattice
from repro.lightfield.source import SyntheticSource
from repro.obs import fold_metrics
from repro.streaming.multiclient import (
    MultiClientConfig,
    build_multiclient_rig,
    run_multiclient_session,
)
from repro.streaming.session import SessionConfig

from ..lon.reference_network import ReferenceNetwork


def small_source():
    lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
    return SyntheticSource(lattice, resolution=32)


def small_config(n_clients=3, **overrides):
    base = SessionConfig(case=3, n_accesses=4, **overrides)
    return MultiClientConfig(
        base=base, n_clients=n_clients, seed_stride=7, start_stagger=0.5,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        MultiClientConfig(n_clients=0)
    with pytest.raises(ValueError):
        MultiClientConfig(start_stagger=-1.0)


def test_build_rig_wires_every_client():
    source = small_source()
    config = small_config(n_clients=3)
    rig = build_multiclient_rig(source, config)

    assert len(rig.clients) == 3
    assert len(rig.client_agents) == 3
    assert len(rig.metrics) == 3
    assert len(rig.traces) == 3
    assert len(rig.stagings) == 3  # case 3: one pump per client
    assert [c.node for c in rig.clients] == [
        "client-0", "client-1", "client-2",
    ]
    assert [a.node for a in rig.client_agents] == [
        "agent-0", "agent-1", "agent-2",
    ]
    # every console shares one fabric
    for client in rig.clients:
        assert client.network is rig.network
    for agent in rig.client_agents:
        assert agent.lors is rig.lors
    # traces are staggered copies of the standard walk
    starts = [t.samples[0].time for t in rig.traces]
    assert starts == [0.0, 0.5, 1.0]
    # no samplers without tracing
    assert rig.tracer is None and rig.samplers == []


def test_case2_skips_staging_pumps():
    source = small_source()
    config = small_config(n_clients=2)
    config.base.case = 2
    rig = build_multiclient_rig(source, config)
    assert rig.stagings == []


def test_run_session_delivers_every_access():
    source = small_source()
    config = small_config(n_clients=3)
    result = run_multiclient_session(source, config)

    assert [len(m.accesses) for m in result.per_client] == [4, 4, 4]
    agg = result.aggregate()
    assert agg["accesses"] == 12
    assert agg["n_clients"] == 3
    assert agg["mean_latency"] > 0
    assert result.wall_seconds > 0
    assert result.events_fired > 0
    assert result.events_per_second > 0
    assert result.sim_seconds > 0
    # production never does a whole-network recompute
    assert agg["rebalance_full_recomputes"] == 0
    assert (agg["rebalance_recomputes"] + agg["rebalance_fast_rated"]) > 0


def test_zero_stride_clients_walk_the_same_path():
    source = small_source()
    base = SessionConfig(case=2, n_accesses=5)
    config = MultiClientConfig(
        base=base, n_clients=3, seed_stride=0, start_stagger=0.0,
    )
    result = run_multiclient_session(source, config)
    paths = [
        [a.viewset_id for a in m.accesses] for m in result.per_client
    ]
    assert paths[0] == paths[1] == paths[2]
    # synchronized identical walks hit the shared scheduler's in-flight
    # registry: concurrent same-key fetches coalesce across clients
    assert result.deduped_transfers > 0


def test_incremental_and_full_arms_are_equivalent(monkeypatch):
    source = small_source()
    config = small_config(n_clients=3)
    inc = run_multiclient_session(source, config)
    monkeypatch.setattr(
        "repro.streaming.session.Network", ReferenceNetwork)
    full = run_multiclient_session(source, config)
    assert [len(m.accesses) for m in inc.per_client] == \
           [len(m.accesses) for m in full.per_client]
    for m_inc, m_full in zip(inc.per_client, full.per_client):
        for a_inc, a_full in zip(m_inc.accesses, m_full.accesses):
            assert a_inc.viewset_id == a_full.viewset_id
            assert a_inc.source == a_full.source
            # comm latency is pure simulation and must agree to within the
            # epsilon-gated rescheduling tolerance (total_latency also
            # folds in wall-clock decompress time, which is noisy)
            assert abs(a_inc.comm_latency - a_full.comm_latency) < 1e-6
    assert inc.rebalance["full_recomputes"] == 0
    assert full.rebalance["recomputes"] == 0


def test_traced_run_namespaces_per_agent_series():
    source = small_source()
    config = small_config(n_clients=2, tracing=True)
    rig = build_multiclient_rig(source, config)
    assert rig.tracer is not None
    assert rig.samplers  # standard sampler set wired

    for staging in rig.stagings:
        staging.start()
    for sampler in rig.samplers:
        sampler.start()
    for client, trace in zip(rig.clients, rig.traces):
        client.schedule_trace(trace)
    rig.queue.run_until(max(t.duration for t in rig.traces) + 30.0)

    gauges = fold_metrics([], rig.tracer.counters)["gauges"]
    # two agents: the cache sampler namespaces each by node and totals
    assert "agent.agent-0.cache.bytes" in gauges
    assert "agent.agent-1.cache.bytes" in gauges
    assert "agents.cache.bytes" in gauges
    assert gauges["agents.cache.bytes"]["value"] >= max(
        gauges["agent.agent-0.cache.bytes"]["value"],
        gauges["agent.agent-1.cache.bytes"]["value"],
    )
