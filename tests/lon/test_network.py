"""Tests for the simulated network: routing, latency, max-min fairness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lon.network import (
    Link,
    Network,
    NoRouteError,
    gbps,
    mbps,
)
from repro.lon.simtime import EventQueue

from .reference_topology import build_dumbbell


def simple_net():
    q = EventQueue()
    net = Network(q)
    net.add_link("a", "b", bandwidth=mbps(100), latency=0.01)
    net.add_link("b", "c", bandwidth=mbps(100), latency=0.02)
    return q, net


class TestUnits:
    def test_mbps(self):
        assert mbps(8) == 1e6

    def test_gbps(self):
        assert gbps(8) == 1e9


class TestLink:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            Link("a", "b", bandwidth=0, latency=0.01)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            Link("a", "b", bandwidth=1.0, latency=-1)

    def test_key_is_unordered(self):
        assert Link("a", "b", 1.0, 0).key == Link("b", "a", 1.0, 0).key


class TestRouting:
    def test_path_latency_sums_links(self):
        _, net = simple_net()
        assert net.path_latency("a", "c") == pytest.approx(0.03)

    def test_route_to_self(self):
        _, net = simple_net()
        assert net.route("a", "a") == ("a",)

    def test_no_route_raises(self):
        _, net = simple_net()
        net.add_node("island")
        with pytest.raises(NoRouteError):
            net.route("a", "island")

    def test_shortest_by_latency_not_hops(self):
        q = EventQueue()
        net = Network(q)
        net.add_link("a", "b", mbps(100), 1.0)  # direct but slow
        net.add_link("a", "m", mbps(100), 0.1)
        net.add_link("m", "b", mbps(100), 0.1)
        assert net.route("a", "b") == ("a", "m", "b")

    def test_rpc_delay_is_round_trip(self):
        _, net = simple_net()
        assert net.rpc_delay("a", "c") == pytest.approx(
            2 * 0.03 + Network.RPC_OVERHEAD
        )

    def test_rpc_delay_local(self):
        _, net = simple_net()
        assert net.rpc_delay("a", "a") == Network.RPC_OVERHEAD

    def test_link_down_reroutes_or_partitions(self):
        q = EventQueue()
        net = Network(q)
        net.add_link("a", "b", mbps(100), 0.01)
        net.add_link("a", "m", mbps(100), 0.5)
        net.add_link("m", "b", mbps(100), 0.5)
        assert net.route("a", "b") == ("a", "b")
        net.set_link_up("a", "b", False)
        assert net.route("a", "b") == ("a", "m", "b")
        net.set_link_up("a", "b", True)
        assert net.route("a", "b") == ("a", "b")


class TestSingleFlow:
    def test_transfer_time_is_latency_plus_serialization(self):
        q, net = simple_net()
        done = []
        size = int(mbps(100))  # exactly 1 second at line rate
        net.transfer("a", "c", size, lambda f: done.append(q.now))
        q.run()
        assert done == [pytest.approx(1.0 + 0.03, rel=1e-6)]

    def test_zero_byte_transfer_pays_latency_only(self):
        q, net = simple_net()
        done = []
        net.transfer("a", "c", 0, lambda f: done.append(q.now))
        q.run()
        assert done == [pytest.approx(0.03, abs=1e-9)]

    def test_same_node_transfer_is_fast(self):
        q, net = simple_net()
        done = []
        net.transfer("a", "a", 10_000, lambda f: done.append(q.now))
        q.run()
        assert len(done) == 1
        assert done[0] < 0.001

    def test_flow_records_elapsed(self):
        q, net = simple_net()
        flows = []
        net.transfer("a", "b", int(mbps(100)), flows.append)
        q.run()
        assert flows[0].done
        assert flows[0].finish_time - flows[0].start_time == pytest.approx(
            1.0 + 0.01, rel=1e-6)

    def test_transfer_to_partitioned_node_raises(self):
        _, net = simple_net()
        net.add_node("island")
        with pytest.raises(NoRouteError):
            net.transfer("a", "island", 100, lambda f: None)


class TestFairSharing:
    def test_two_flows_halve_throughput(self):
        q, net = simple_net()
        times = {}
        size = int(mbps(100))
        net.transfer("a", "c", size, lambda f: times.setdefault("f1", q.now))
        net.transfer("a", "c", size, lambda f: times.setdefault("f2", q.now))
        q.run()
        # both flows share the 100 Mb/s a-b and b-c links: each gets 50 Mb/s
        assert times["f1"] == pytest.approx(2.0 + 0.03, rel=1e-3)
        assert times["f2"] == pytest.approx(2.0 + 0.03, rel=1e-3)

    def test_flow_speeds_up_when_competitor_finishes(self):
        q, net = simple_net()
        times = {}
        size = int(mbps(100))
        net.transfer("a", "c", size // 2, lambda f: times.setdefault("small", q.now))
        net.transfer("a", "c", size, lambda f: times.setdefault("big", q.now))
        q.run()
        # small: drains 50Mb at 50Mb/s = 1s. big: 0.5 of it drains during
        # that 1s, the rest at full rate: 1s + 0.5s = 1.5s total + latency.
        assert times["small"] == pytest.approx(1.0 + 0.03, rel=1e-3)
        assert times["big"] == pytest.approx(1.5 + 0.03, rel=1e-3)

    def test_disjoint_paths_do_not_interfere(self):
        q = EventQueue()
        net = Network(q)
        net.add_link("a", "b", mbps(100), 0.0)
        net.add_link("c", "d", mbps(100), 0.0)
        times = {}
        size = int(mbps(100))
        net.transfer("a", "b", size, lambda f: times.setdefault("ab", q.now))
        net.transfer("c", "d", size, lambda f: times.setdefault("cd", q.now))
        q.run()
        assert times["ab"] == pytest.approx(1.0, rel=1e-6)
        assert times["cd"] == pytest.approx(1.0, rel=1e-6)

    def test_bottleneck_shared_max_min(self):
        # two flows share a 100 Mb/s bottleneck; a third uses only a side
        # link and should get full rate on it.
        q = EventQueue()
        net = Network(q)
        net.add_link("x", "m", mbps(1000), 0.0)
        net.add_link("y", "m", mbps(1000), 0.0)
        net.add_link("m", "z", mbps(100), 0.0)
        times = {}
        size = int(mbps(100))
        net.transfer("x", "z", size, lambda f: times.setdefault("f1", q.now))
        net.transfer("y", "z", size, lambda f: times.setdefault("f2", q.now))
        net.transfer("x", "m", size, lambda f: times.setdefault("side", q.now))
        q.run()
        assert times["f1"] == pytest.approx(2.0, rel=1e-2)
        assert times["f2"] == pytest.approx(2.0, rel=1e-2)
        # side flow's x-m link has 1000 Mb/s; f1 takes 50, leaving 950
        assert times["side"] < 0.2

    def test_cancel_flow_releases_bandwidth(self):
        q, net = simple_net()
        times = {}
        size = int(mbps(100))
        victim = net.transfer("a", "c", size, lambda f: times.setdefault("v", q.now))
        net.transfer("a", "c", size, lambda f: times.setdefault("w", q.now))
        net.cancel_flow(victim)
        q.run()
        assert "v" not in times
        assert times["w"] == pytest.approx(1.0 + 0.03, rel=1e-3)

    def test_link_down_fails_flows(self):
        q, net = simple_net()
        outcomes = []
        net.transfer(
            "a", "c", int(mbps(100)) * 10,
            on_complete=lambda f: outcomes.append("done"),
            on_fail=lambda f, e: outcomes.append("fail"),
        )
        q.schedule(0.5, lambda: net.set_link_up("b", "c", False))
        q.run()
        assert outcomes == ["fail"]

    @given(n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_n_flows_n_times_slower(self, n):
        q = EventQueue()
        net = Network(q)
        net.add_link("a", "b", mbps(100), 0.0)
        finish = []
        size = int(mbps(100))
        for _ in range(n):
            net.transfer("a", "b", size, lambda f: finish.append(q.now))
        q.run()
        assert len(finish) == n
        for t in finish:
            assert t == pytest.approx(float(n), rel=1e-2)


class TestDumbbell:
    def test_paper_topology_classes(self):
        q = EventQueue()
        net = build_dumbbell(
            q,
            lan_hosts=["client", "agent", "lan-depot"],
            wan_hosts=["ca-depot-1", "ca-depot-2"],
        )
        lan_lat = net.path_latency("client", "agent")
        wan_lat = net.path_latency("agent", "ca-depot-1")
        # LAN is sub-millisecond; WAN is tens of milliseconds
        assert lan_lat < 0.001
        assert 0.01 < wan_lat < 0.1
        assert wan_lat / lan_lat > 50


class TestCancellation:
    """Mid-transfer cancellation must re-rate and reschedule survivors."""

    def test_mid_transfer_cancel_rerates_survivors(self):
        q, net = simple_net()
        times = {}
        size = int(mbps(100))
        victim = net.transfer("a", "c", size,
                              lambda f: times.setdefault("v", q.now))
        net.transfer("a", "c", size, lambda f: times.setdefault("w", q.now))
        q.schedule(1.0, lambda: net.cancel_flow(victim))
        q.run()
        # survivor: 1 s at half rate + 0.5 s at full rate + 30 ms propagation
        assert "v" not in times
        assert times["w"] == pytest.approx(1.5 + 0.03, rel=1e-3)
        assert victim not in net.active_flows

    def test_cancel_completed_flow_is_noop(self):
        q, net = simple_net()
        done = []
        flow = net.transfer("a", "c", 1000, lambda f: done.append(q.now))
        q.run()
        assert len(done) == 1
        net.cancel_flow(flow)  # must not raise or un-complete
        assert flow.done
        assert len(done) == 1

    def test_cancel_during_propagation_tail_suppresses_delivery(self):
        q, net = simple_net()
        done = []
        size = int(mbps(100))
        flow = net.transfer("a", "c", size, lambda f: done.append(q.now))
        # drained at t=1.0, delivered at t=1.03: cancel in between
        q.schedule(1.01, lambda: net.cancel_flow(flow))
        q.run()
        assert done == []
        assert not flow.done


class TestWeightsAndPreemption:
    def test_weighted_flows_split_by_weight(self):
        q, net = simple_net()
        times = {}
        size = int(mbps(100))
        net.transfer("a", "c", size, lambda f: times.setdefault("h", q.now),
                     weight=3.0)
        net.transfer("a", "c", size, lambda f: times.setdefault("l", q.now),
                     weight=1.0)
        q.run()
        # heavy gets 3/4 of the link -> drains at 4/3 s; light drained 1/3
        # of its bytes by then and finishes the rest at full rate
        assert times["h"] == pytest.approx(4 / 3 + 0.03, rel=1e-3)
        assert times["l"] == pytest.approx(4 / 3 + 2 / 3 + 0.03, rel=1e-3)

    def test_set_flow_weight_rerates_mid_transfer(self):
        q, net = simple_net()
        times = {}
        size = int(mbps(100))
        f1 = net.transfer("a", "c", size,
                          lambda f: times.setdefault("f1", q.now))
        net.transfer("a", "c", size, lambda f: times.setdefault("f2", q.now))
        # equal halves until t=1 (each 50% done), then f1 gets 3/4
        q.schedule(1.0, lambda: net.set_flow_weight(f1, 3.0))
        q.run()
        assert times["f1"] == pytest.approx(1.0 + 2 / 3 + 0.03, rel=1e-3)

    def test_pause_and_resume_keeps_progress(self):
        q, net = simple_net()
        times = {}
        size = int(mbps(100))
        bg = net.transfer("a", "c", size,
                          lambda f: times.setdefault("bg", q.now))
        q.schedule(0.5, lambda: net.pause_flow(bg))
        q.schedule(1.5, lambda: net.resume_flow(bg))
        q.run()
        # 0.5 s progress kept across a 1 s pause: drains at 2.0 s
        assert times["bg"] == pytest.approx(2.0 + 0.03, rel=1e-3)

    def test_paused_flow_releases_bandwidth_to_survivors(self):
        q, net = simple_net()
        times = {}
        size = int(mbps(100))
        bg = net.transfer("a", "c", size,
                          lambda f: times.setdefault("bg", q.now))
        net.transfer("a", "c", size, lambda f: times.setdefault("fg", q.now))
        net.pause_flow(bg)
        q.run()
        # foreground runs alone at full rate; background never resumes
        assert times["fg"] == pytest.approx(1.0 + 0.03, rel=1e-3)
        assert "bg" not in times
