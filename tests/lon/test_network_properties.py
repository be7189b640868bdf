"""Property-based tests for the flow scheduler's fairness invariants.

The incremental rebalancer (PR 4) defers re-rating to a same-timestamp
flush event; tests that inspect ``Flow.rate`` synchronously call
``net.flush()`` first, per the documented contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lon.network import Network, mbps
from repro.lon.rates import VECTORIZE_MIN_FLOWS, fill_numpy
from repro.lon.simtime import EventQueue

from .reference_network import (
    ReferenceNetwork,
    accounting_matches_membership,
    reference_maxmin_rates,
)


def star_network(queue, n_leaves, bandwidth, tcp_window=None, **kw):
    net = Network(queue, tcp_window=tcp_window, **kw)
    for i in range(n_leaves):
        net.add_link(f"leaf{i}", "hub", bandwidth, 0.001)
    return net


class TestRateInvariants:
    @given(
        sizes=st.lists(
            st.integers(min_value=10_000, max_value=5_000_000),
            min_size=2, max_size=6,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_link_capacity_never_exceeded(self, sizes):
        """At every rebalance, per-link allocated rate <= capacity."""
        q = EventQueue()
        bw = mbps(50)
        net = star_network(q, 3, bw)
        done = []
        for i, size in enumerate(sizes):
            net.transfer(
                f"leaf{i % 3}", f"leaf{(i + 1) % 3}", size,
                lambda f: done.append(f),
            )
        # inspect rates after initial balance
        net.flush()
        for link_key in net._links:
            total = sum(
                f.rate for f in net.active_flows
                if link_key in f.path_links and f.rate != float("inf")
            )
            assert total <= bw * 1.0001
        q.run()
        assert len(done) == len(sizes)

    @given(
        n=st.integers(min_value=1, max_value=5),
        window_kb=st.integers(min_value=16, max_value=512),
    )
    @settings(max_examples=30, deadline=None)
    def test_tcp_window_cap_respected(self, n, window_kb):
        q = EventQueue()
        window = window_kb * 1024
        net = star_network(q, 2, mbps(1000), tcp_window=window)
        flows = [
            net.transfer("leaf0", "leaf1", 10_000_000, lambda f: None)
            for _ in range(n)
        ]
        net.flush()
        for f in flows:
            cap = window / max(2 * f.prop_latency, 1e-6)
            assert f.rate <= cap * 1.0001
        for f in flows:
            net.cancel_flow(f)

    @given(sizes=st.lists(
        st.integers(min_value=1000, max_value=2_000_000),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=30, deadline=None)
    def test_all_flows_eventually_complete(self, sizes):
        q = EventQueue()
        net = star_network(q, 4, mbps(10))
        done = []
        rng = np.random.default_rng(0)
        for size in sizes:
            a, b = rng.choice(4, size=2, replace=False)
            net.transfer(f"leaf{a}", f"leaf{b}", size,
                         lambda f: done.append(f.size))
        q.run()
        assert sorted(done) == sorted(sizes)
        assert not net.active_flows

    def test_equal_flows_get_equal_rates(self):
        q = EventQueue()
        net = star_network(q, 2, mbps(100))
        flows = [
            net.transfer("leaf0", "leaf1", 10_000_000, lambda f: None)
            for _ in range(4)
        ]
        net.flush()
        rates = {round(f.rate) for f in flows}
        assert len(rates) == 1
        for f in flows:
            net.cancel_flow(f)

    def test_capped_flow_leaves_bandwidth_for_others(self):
        """A window-capped flow must not starve an uncapped-capacity peer."""
        q = EventQueue()
        window = 64 * 1024
        net = Network(q, tcp_window=window)
        net.add_link("a", "hub", mbps(100), 0.050)   # long RTT: tight cap
        net.add_link("b", "hub", mbps(100), 0.0001)  # short RTT: loose cap
        net.add_link("hub", "sink", mbps(100), 0.0001)
        f_long = net.transfer("a", "sink", 10_000_000, lambda f: None)
        f_short = net.transfer("b", "sink", 10_000_000, lambda f: None)
        net.flush()
        # the long-RTT flow is window-limited far below its fair share;
        # the short-RTT flow picks up the slack on the shared hub-sink link
        assert f_long.rate < mbps(100) / 2
        assert f_short.rate > mbps(100) / 2
        total = f_long.rate + f_short.rate
        assert total <= mbps(100) * 1.0001
        net.cancel_flow(f_long)
        net.cancel_flow(f_short)


# ---------------------------------------------------------------------------
# randomized topology / operation-sequence machinery for the PR-4 invariants
# ---------------------------------------------------------------------------
def random_topology(net, rng, n_hosts, n_hubs):
    """Connected random topology: hubs in a chain, hosts hung off hubs."""
    hubs = [f"hub{i}" for i in range(n_hubs)]
    for a, b in zip(hubs, hubs[1:]):
        net.add_link(a, b, mbps(float(rng.integers(20, 200))), 0.005)
    hosts = [f"host{i}" for i in range(n_hosts)]
    for h in hosts:
        hub = hubs[int(rng.integers(0, n_hubs))]
        net.add_link(h, hub, mbps(float(rng.integers(50, 1000))), 0.0005)
    return hosts


def apply_op_sequence(net, q, rng, hosts, n_ops):
    """Drive a reproducible mixed sequence of flow operations (the mix
    cancels paused flows too), holding the quiet-link row accounting to the
    membership sets after every one."""
    flows = []
    for _ in range(n_ops):
        op = rng.integers(0, 10)
        live = [f for f in flows if not (f.done or f.failed)]
        if op < 5 or not live:
            a, b = rng.choice(len(hosts), size=2, replace=False)
            weight = float(rng.choice([0.25, 1.0, 1.0, 4.0]))
            flows.append(net.transfer(
                hosts[a], hosts[b], int(rng.integers(50_000, 5_000_000)),
                lambda f: None, weight=weight,
            ))
        elif op < 6:
            net.cancel_flow(live[int(rng.integers(0, len(live)))])
        elif op < 7:
            net.pause_flow(live[int(rng.integers(0, len(live)))])
        elif op < 8:
            paused = [f for f in live if f.paused]
            if paused:
                net.resume_flow(paused[int(rng.integers(0, len(paused)))])
        else:
            net.set_flow_weight(
                live[int(rng.integers(0, len(live)))],
                float(rng.choice([0.5, 2.0, 8.0])),
            )
        assert accounting_matches_membership(net)
        # advance sim time a random hop so settles/drains interleave
        q.run_until(q.now + float(rng.uniform(0.0, 0.05)))
    net.flush()
    return flows


def saturated_links(net, tol=1e-6):
    """Link keys whose allocated load is within tol of capacity."""
    loads = {}
    for f in net.active_flows:
        if f.paused or f.drained_at is not None:
            continue
        if not (0 < f.rate < float("inf")):
            continue
        for lk in f.path_links:
            loads[lk] = loads.get(lk, 0.0) + f.rate
    out = set()
    for lk, load in loads.items():
        cap = net._links[lk].bandwidth
        if load >= cap * (1 - tol):
            out.add(lk)
    return out


class TestFairnessProperties:
    """PR-4 fairness invariants on randomized topologies and op sequences."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_no_link_over_capacity(self, seed):
        rng = np.random.default_rng(seed)
        q = EventQueue()
        net = Network(q)
        hosts = random_topology(net, rng, n_hosts=8, n_hubs=3)
        apply_op_sequence(net, q, rng, hosts, n_ops=20)
        loads = {}
        for f in net.active_flows:
            if f.paused or f.drained_at is not None:
                continue
            if not (0 < f.rate < float("inf")):
                continue
            for lk in f.path_links:
                loads[lk] = loads.get(lk, 0.0) + f.rate
        for lk, load in loads.items():
            assert load <= net._links[lk].bandwidth * (1 + 1e-9)

    @pytest.mark.parametrize("tcp_window", [None, 64 * 1024])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_row_accounting_survives_the_op_mix(self, tcp_window, seed):
        """Capload / uncapped count / over flag equal what the membership
        sets say after every transfer, cancel, pause, resume and reweight
        (asserted inside ``apply_op_sequence``) and at quiescence."""
        rng = np.random.default_rng(seed)
        q = EventQueue()
        net = Network(q, tcp_window=tcp_window)
        hosts = random_topology(net, rng, n_hosts=8, n_hubs=3)
        flows = apply_op_sequence(net, q, rng, hosts, n_ops=30)
        for f in flows:
            net.resume_flow(f)
        q.run()
        assert accounting_matches_membership(net)
        assert not net._members

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_every_flow_bottlenecked_on_saturated_constraint(self, seed):
        """Max-min condition: each contending flow is either capped by its
        TCP window or crosses a saturated link where no co-resident flow
        has a strictly higher rate/weight ratio."""
        rng = np.random.default_rng(seed)
        q = EventQueue()
        net = Network(q)
        hosts = random_topology(net, rng, n_hosts=8, n_hubs=3)
        apply_op_sequence(net, q, rng, hosts, n_ops=20)
        sat = saturated_links(net)
        contending = [
            f for f in net.active_flows
            if not f.paused and f.drained_at is None
            and 0 < f.rate < float("inf")
        ]
        for f in contending:
            if f.rate >= f.rate_cap * (1 - 1e-6):
                continue  # window-capped: the virtual link is its bottleneck
            ok = False
            for lk in f.path_links:
                if lk not in sat:
                    continue
                level = f.rate / f.weight
                peers = [
                    g for g in contending if lk in g.path_links
                ]
                if all(g.rate / g.weight <= level * (1 + 1e-6)
                       for g in peers):
                    ok = True
                    break
            assert ok, f"flow {f.label or id(f)} has no bottleneck link"

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_weighted_shares_proportional_on_shared_bottleneck(self, seed):
        """Uncapped flows sharing one bottleneck split it by weight."""
        rng = np.random.default_rng(seed)
        q = EventQueue()
        net = Network(q)
        net.add_link("src", "hub", mbps(1000), 0.0005)
        net.add_link("hub", "dst", mbps(100), 0.005)  # shared bottleneck
        weights = [float(w) for w in rng.uniform(0.5, 8.0, size=5)]
        flows = [
            net.transfer("src", "dst", 50_000_000, lambda f: None, weight=w)
            for w in weights
        ]
        net.flush()
        levels = [f.rate / f.weight for f in flows]
        assert max(levels) - min(levels) <= max(levels) * 1e-9
        assert abs(sum(f.rate for f in flows) - mbps(100)) <= mbps(100) * 1e-9

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_incremental_matches_full_water_filling(self, seed):
        """Production and the reference oracle allocate identical rates
        (1e-9) under the same randomized op sequence and deliver the same
        completions at the same times."""
        results = {}
        for net_cls in (Network, ReferenceNetwork):
            rng = np.random.default_rng(seed)
            q = EventQueue()
            net = net_cls(q)
            hosts = random_topology(net, rng, n_hosts=8, n_hubs=3)
            flows = apply_op_sequence(net, q, rng, hosts, n_ops=20)
            snapshot = [
                (f.label, f.paused, round(f.rate, 6))
                for f in net.active_flows
            ]
            q.run()
            results[net_cls] = {
                "snapshot": snapshot,
                "finish": [
                    (f.size, f.weight, None if f.finish_time is None
                     else round(f.finish_time, 6))
                    for f in flows
                ],
            }
        inc, full = results[Network], results[ReferenceNetwork]
        # rate allocations identical within 1e-9 relative, deliveries at
        # the same (rounded) simulated instants
        assert len(inc["snapshot"]) == len(full["snapshot"])
        for (l1, p1, r1), (l2, p2, r2) in zip(
            sorted(inc["snapshot"]), sorted(full["snapshot"])
        ):
            assert (l1, p1) == (l2, p2)
            assert abs(r1 - r2) <= 1e-9 * max(abs(r1), abs(r2), 1.0)
        assert inc["finish"] == full["finish"]

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=VECTORIZE_MIN_FLOWS - 4,
                      max_value=VECTORIZE_MIN_FLOWS + 16),
    )
    @settings(max_examples=15, deadline=None)
    def test_vectorized_water_fill_matches_scalar(self, seed, n):
        """On both sides of the pinned crossover the numpy fill, and
        whichever fill the flush picked by size, must agree with the
        oracle's scalar fill on the same flows (1e-9 relative)."""
        rng = np.random.default_rng(seed)
        q = EventQueue()
        net = Network(q)
        hosts = random_topology(net, rng, n_hosts=10, n_hubs=4)
        flows = []
        for _ in range(n):
            a, b = rng.choice(len(hosts), size=2, replace=False)
            flows.append(net.transfer(
                hosts[a], hosts[b], 1_000_000, lambda f: None,
                weight=float(rng.choice([0.5, 1.0, 2.0])),
            ))
        net.flush()
        problem = (net._row_bw, [f.link_row_ids for f in flows],
                   [f.weight for f in flows], [f.rate_cap for f in flows])
        scalar = reference_maxmin_rates(*problem)
        vec = fill_numpy(*problem)
        for f, r, v in zip(flows, scalar, vec):
            assert abs(v - r) <= 1e-9 * max(abs(r), 1.0)
            assert abs(f.rate - r) <= 1e-9 * max(abs(r), 1.0)
