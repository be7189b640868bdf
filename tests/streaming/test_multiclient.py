"""Multi-client service: one client agent serving several consoles.

Section 3.5: "A client agent can serve multiple clients, especially in a
mobile environment."  Two clients share the agent's cache — the second
client's requests for view sets the first already pulled are hits.
"""

import pytest

from repro.lightfield.lattice import CameraLattice
from repro.lightfield.source import SyntheticSource
from repro.streaming.client import Client
from repro.streaming.metrics import AccessSource, SessionMetrics
from repro.streaming.prefetch import NoPrefetchPolicy
from repro.streaming.session import (
    LAN_BANDWIDTH,
    LAN_LATENCY,
    SessionConfig,
    build_rig,
)
from repro.streaming.trace import CursorSample, CursorTrace


@pytest.fixture()
def shared_rig():
    lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
    source = SyntheticSource(lattice, resolution=32)
    rig = build_rig(source, SessionConfig(case=2))
    # a second console on the same LAN, brokered by the same agent
    rig.network.add_link("client2", "lan-switch", LAN_BANDWIDTH, LAN_LATENCY)
    metrics2 = SessionMetrics(case_name="client2", resolution=32)
    client2 = Client(
        node="client2",
        queue=rig.queue,
        network=rig.network,
        agent=rig.client_agent,
        lattice=lattice,
        metrics=metrics2,
    )
    return rig, client2, metrics2


def trace_over(lattice, keys, start=0.0, period=2.0):
    samples = []
    for i, key in enumerate(keys):
        theta, phi = lattice.viewset_center(key)
        samples.append(CursorSample(start + i * period, theta, phi))
    return CursorTrace(samples=samples)


class TestMultiClient:
    def test_second_client_hits_shared_cache(self, shared_rig):
        rig, client2, metrics2 = shared_rig
        lattice = rig.client.lattice
        keys = [(0, 0), (0, 1), (1, 1)]
        rig.client.schedule_trace(trace_over(lattice, keys, start=0.0))
        # client 2 follows the same path, 30 s later
        client2.schedule_trace(trace_over(lattice, keys, start=30.0))
        rig.queue.run_until(120.0)

        assert len(rig.metrics.accesses) == 3
        assert len(metrics2.accesses) == 3
        # the leader fetched from the WAN; the follower hits the agent cache
        assert any(a.source is AccessSource.WAN_DEPOT
                   for a in rig.metrics.accesses)
        assert all(a.source is AccessSource.AGENT_CACHE
                   for a in metrics2.accesses)
        # and the follower's latency is LAN-class
        assert metrics2.mean_latency() < 0.2

    def test_concurrent_identical_requests_coalesce(self):
        lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
        source = SyntheticSource(lattice, resolution=32)
        # prefetch off so the only traffic is the shared demand fetch
        rig = build_rig(
            source, SessionConfig(case=2, prefetch_policy="none")
        )
        rig.network.add_link("client2", "lan-switch",
                             LAN_BANDWIDTH, LAN_LATENCY)
        metrics2 = SessionMetrics(case_name="client2", resolution=32)
        client2 = Client(
            node="client2", queue=rig.queue, network=rig.network,
            agent=rig.client_agent, lattice=lattice, metrics=metrics2,
            policy=NoPrefetchPolicy(),
        )
        keys = [(1, 2)]
        # both clients cross into the same view set at the same instant
        rig.client.schedule_trace(trace_over(lattice, keys, start=0.0))
        client2.schedule_trace(trace_over(lattice, keys, start=0.0))
        rig.queue.run_until(120.0)
        assert rig.client_agent.stats.coalesced >= 1
        # exactly one WAN download happened for the shared view set
        assert rig.client_agent.stats.wan_fetches == 1
        assert len(rig.metrics.accesses) == 1
        assert len(metrics2.accesses) == 1
