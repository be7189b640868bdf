"""Tests for fault injection and system resilience under faults."""

import pytest

from repro.lon.faults import DepotOutage, LeaseStorm
from repro.lon.ibp import Depot, IBPRefusedError
from repro.lon.lbone import LBone
from repro.lon.lors import LoRS
from repro.lon.network import Network, mbps
from repro.lon.simtime import EventQueue


@pytest.fixture()
def rig():
    q = EventQueue()
    net = Network(q)
    net.add_link("client", "router", mbps(1000), 0.001)
    for name in ("d1", "d2"):
        net.add_link(name, "router", mbps(100), 0.01)
    lbone = LBone(net)
    depots = {n: Depot(n, q, capacity=1 << 26) for n in ("d1", "d2")}
    for d in depots.values():
        lbone.register(d)
    return q, net, lbone, depots, LoRS(q, net, lbone)


class TestDepotOutage:
    def test_outage_window_takes_link_down_and_up(self, rig):
        q, net, _, _, _ = rig
        DepotOutage(net, "d1", "router").schedule(q, start=1.0, duration=2.0)
        q.run_until(1.5)
        assert not net.link_between("d1", "router").up
        q.run_until(3.5)
        assert net.link_between("d1", "router").up

    def test_zero_duration_rejected(self, rig):
        q, net, _, _, _ = rig
        with pytest.raises(ValueError):
            DepotOutage(net, "d1", "router").schedule(q, 1.0, 0.0)

    def test_download_fails_over_during_outage(self, rig):
        q, net, _, depots, lors = rig
        data = b"f" * 200_000
        ex = lors.place("f", data, [depots["d1"], depots["d2"]],
                        replicas=2)
        DepotOutage(net, "d1", "router").schedule(q, start=0.001,
                                                  duration=30.0)
        deferred = lors.download(ex, "client")
        q.run()
        assert deferred.result() == data

    def test_unreplicated_download_fails_during_outage(self, rig):
        q, net, _, depots, lors = rig
        ex = lors.place("f", b"g" * 200_000, [depots["d1"]])
        DepotOutage(net, "d1", "router").schedule(q, start=0.001,
                                                  duration=30.0)
        deferred = lors.download(ex, "client")
        q.run_until(10.0)
        assert deferred.failed


class TestLeaseStorm:
    def test_apply_returns_previous(self, rig):
        _, _, _, depots, _ = rig
        storm = LeaseStorm(depots["d1"])
        prev = storm.apply(2.0)
        assert depots["d1"].max_duration == 2.0
        assert prev > 2.0

    def test_long_leases_refused_under_storm(self, rig):
        _, _, _, depots, _ = rig
        LeaseStorm(depots["d1"]).apply(2.0)
        with pytest.raises(IBPRefusedError):
            depots["d1"].allocate(10, duration=10.0)

    def test_invalid_duration(self, rig):
        _, _, _, depots, _ = rig
        with pytest.raises(ValueError):
            LeaseStorm(depots["d1"]).apply(0.0)
