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
from repro.lon.rates import maxmin_rates
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


def calendar_covers_every_flow(net):
    """The completion calendar, as an invariant instead of a convention.

    Every admitted, unpaused, undrained flow with a positive rate either
    holds its own drain-check event or sits on a calendar whose armed
    event is due no later than the flow's deadline; a calendar with
    members has something armed once no flush is pending; all events armed
    for one calendar share one timestamp (one per calendar, plus exact
    ties), so the heap holds no more live ``flow:`` events than that.  An
    event counts as held while it fires (``on_fire`` runs before the
    callback lets go of it).  Asserts, then returns True.
    """
    def holds(f):
        ev = f._completion_event
        return ev is not None and not ev.cancelled

    settled = net._flush_event is None
    seated = {}
    single = 0
    for f in net._flows.values():
        cal = f._calendar
        if cal is not None:
            assert any(m is f for m in cal.members), f"{f.fid}: seat, no entry"
            seated.setdefault(id(cal), (cal, []))[1].append(f)
            if holds(f):
                assert f._completion_event.time == f.deadline
        elif holds(f):
            single += 1
        if f.drained_at is None:
            if f.paused or f.rate <= 0:
                assert cal is None and f._completion_event is None, (
                    f"{f.fid}: out of contention but still due")
            else:
                assert cal is not None or holds(f), (
                    f"{f.fid}: rate {f.rate} and nothing due")
    armed_total = 0
    for cal, members in seated.values():
        armed = [m for m in members if holds(m)]
        assert cal.armed == len(armed)
        if settled:
            assert armed, "calendar with members and nothing armed"
        times = {m._completion_event.time for m in armed}
        assert len(times) <= 1, "more than one armed deadline on a calendar"
        for t in times:
            assert all(t <= m.deadline for m in members)
        armed_total += len(armed)
    if settled:
        assert not net._unarmed
    # read only: what is really still in the heap.  Every live entry came
    # through ``EventQueue.schedule``, so the queue's live count matches it
    heap = net.queue._heap
    assert len(net.queue) == sum(1 for _, _, ev in heap if not ev.cancelled)
    live = sum(1 for _, _, ev in heap
               if not ev.cancelled and ev.label.startswith("flow:"))
    assert live <= armed_total + single
    return True


def apply_op_sequence(net, q, rng, hosts, n_ops):
    """Drive a reproducible mixed sequence of flow operations (the mix
    cancels paused flows too), holding the quiet-link row accounting to the
    membership sets and the completion calendar to its invariant after
    every one — and, through ``on_fire``, at every event fired from here
    until the caller has drained the queue."""
    q.on_fire = lambda ev: calendar_covers_every_flow(net)
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
        assert calendar_covers_every_flow(net)
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
        n=st.integers(min_value=20, max_value=40),
    )
    @settings(max_examples=15, deadline=None)
    def test_vectorized_water_fill_matches_scalar(self, seed, n):
        """Around the size a flush counts as ``vectorized``, the kernel is
        the oracle's scalar fill bit for bit on the flushed flows, and the
        flows carry those rates (1e-9 relative)."""
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
        assert ([r.hex() for r in maxmin_rates(*problem)]
                == [r.hex() for r in scalar])
        for f, r in zip(flows, scalar):
            assert abs(f.rate - r) <= 1e-9 * max(abs(r), 1.0)


# ---------------------------------------------------------------------------
# the completion calendar: the ways it loses its armed member, ties, stalls
# ---------------------------------------------------------------------------
def armed_member(net):
    """The one flow holding the armed event of a calendar with company."""
    armed = [f for f in net.active_flows
             if f._calendar is not None and f._completion_event is not None]
    assert len(armed) == 1 and len(armed[0]._calendar.members) > 1
    return armed[0]


def finish_times(net_cls, script, tcp_window=None):
    """Run ``script(net, q) -> flows`` on a fresh a - b - c line and drain
    it; production is held to the calendar invariant at every event."""
    q = EventQueue()
    net = net_cls(q, tcp_window=tcp_window)
    net.add_link("a", "b", mbps(80), 0.01)
    net.add_link("b", "c", mbps(80), 0.01)
    q.on_fire = lambda ev: calendar_covers_every_flow(net)
    flows = script(net, q)
    q.run()
    assert calendar_covers_every_flow(net)
    return [f.finish_time for f in flows]


def matches_oracle(script, tcp_window=None):
    got = finish_times(Network, script, tcp_window)
    want = finish_times(ReferenceNetwork, script, tcp_window)
    assert got == pytest.approx(want, abs=1e-9)
    return got


class TestCompletionCalendar:
    """A flush arms one drain check per calendar; these are the ways a
    calendar is left with members and nothing armed, each against the
    oracle, which keeps one event per flow.  The second departure of each
    capped run leaves rows with headroom (no flush): the immediate re-arm."""

    WINDOWS = [None, 64 * 1024]  # capped: 3 276 800 B/s over a - b

    @staticmethod
    def _shared_row(net, sizes=(1, 2, 3, 4)):
        return [net.transfer("a", "b", mb * 1_000_000, lambda f: None)
                for mb in sizes]

    def test_split_component_rearms_the_half_not_regrouped(self):
        """f1 on row 1, f2 on row 2, a bridge on both.  The bridge finishes
        and one flush regroups f1 and f2 together; f1 finishes and its
        flush reaches only row 1 — f2 must still be armed."""
        def script(net, q):
            f1 = net.transfer("a", "b", 2_000_000, lambda f: None)
            f2 = net.transfer("b", "c", 3_000_000, lambda f: None)
            bridge = net.transfer("a", "c", 1_000_000, lambda f: None)
            if type(net) is Network:
                q.run_until(0.25)  # the bridge has drained, f1 has not
                assert bridge.drained_at is not None
                assert f1._calendar is f2._calendar
                assert armed_member(net) is f1
            return [f1, f2, bridge]

        f1, f2, bridge = matches_oracle(script)
        assert bridge < f1 < f2

    @pytest.mark.parametrize("tcp_window", WINDOWS)
    def test_cancel_of_the_armed_member(self, tcp_window):
        def script(net, q):
            flows = self._shared_row(net)
            for victim, at in zip(flows, (0.05, 0.1)):
                q.run_until(at)
                if type(net) is Network:
                    assert armed_member(net) is victim
                net.cancel_flow(victim)
                assert calendar_covers_every_flow(net)
            return flows[2:]

        matches_oracle(script, tcp_window)

    @pytest.mark.parametrize("tcp_window", WINDOWS)
    def test_pause_then_resume_of_the_armed_member(self, tcp_window):
        """What the scheduler's strict policy does to a background flow."""
        def script(net, q):
            flows = self._shared_row(net)
            for victim, at in zip(flows, (0.05, 0.1)):
                q.run_until(at)
                if type(net) is Network:
                    assert armed_member(net) is victim
                net.pause_flow(victim)
                assert calendar_covers_every_flow(net)
            q.run_until(0.5)
            for victim in flows[:2]:
                net.resume_flow(victim)
            return flows

        matches_oracle(script, tcp_window)

    @pytest.mark.parametrize("tcp_window", WINDOWS)
    def test_link_down_fails_the_armed_member(self, tcp_window):
        def script(net, q):
            failed = []
            flows = self._shared_row(net)
            doomed = net.transfer("a", "c", 500_000, lambda f: None,
                                  on_fail=lambda f, exc: failed.append(f))
            q.run_until(0.05)
            if type(net) is Network:
                assert armed_member(net) is doomed
            net.set_link_up("b", "c", False)
            assert failed == [doomed]
            assert calendar_covers_every_flow(net)
            return flows

        matches_oracle(script, tcp_window)

    def test_drift_rearm_of_the_armed_member(self):
        """A bandwidth change under ``RATE_EPSILON`` keeps the armed
        member's deadline, so its drain check comes a few bytes early and
        re-arms that flow on its own.  ``g`` shares its calendar but, since
        the bridge left, not its component: the calendar must arm ``g``."""
        def script(net, q):
            f1 = net.transfer("a", "b", 4_000_000_000, lambda f: None)
            g = net.transfer("b", "c", 8_000_000_000, lambda f: None)
            net.transfer("a", "c", 1_000_000, lambda f: None)  # the bridge
            q.run_until(1.0)
            net.add_link("a", "b", mbps(80) * (1 - 5e-10), 0.01)
            net.flush()
            if type(net) is Network:
                assert armed_member(net) is f1 and g._calendar is f1._calendar
                q.run_until(f1.deadline)
                assert f1.remaining > 1e-6 and f1._calendar is None
                assert g._completion_event is not None
            return [f1, g]

        matches_oracle(script)

    def test_exact_ties_each_fire_their_own_event(self):
        """k equal flows admitted in one batch on a saturated row are due
        at one float: k ``flow:`` events and one ``net-rebalance`` fire at
        that timestamp.  (Draining all ties from one event would move
        ``GOLDEN``'s event counts.)"""
        k = 5
        q = EventQueue()
        net = Network(q)
        net.add_link("a", "b", mbps(80), 0.01)
        fired = []
        q.on_fire = lambda ev: (calendar_covers_every_flow(net),
                                fired.append((ev.time, ev.label)))
        flows = self._shared_row(net, sizes=(1,) * k)
        q.run()
        drained = flows[0].drained_at
        assert all(f.drained_at == drained for f in flows)
        at_drain = [label for t, label in fired if t == drained]
        assert at_drain == ["flow:"] * k + ["net-rebalance"]
        assert net.stats.events_rescheduled == k

    def test_ties_fire_in_the_order_their_deadlines_were_set(self):
        """Not in member order: k0, k1 keep the deadline of the first flush
        through two more at the same instant that move r0, r1 away and back
        onto the same float; ``e`` holds the armed slot meanwhile, and the
        flush at its retirement regroups all four, r's first, each keeping
        its deadline.  With one event per flow the k's held the older
        ``seq`` and fired first (perf's contended rig at seed 12 has 16
        such ties)."""
        q = EventQueue()
        net = Network(q)
        net.add_link("hub", "sink", mbps(8000), 0.001)  # never saturated
        for host, bw in (("r", 48), ("k", 32), ("e", 8)):
            net.add_link(host, "hub", mbps(bw), 0.001)
        fired = []
        q.on_fire = lambda ev: (calendar_covers_every_flow(net),
                                fired.append((ev.time, ev.label)))

        def start(host, size, label):
            return net.transfer(host, "sink", size, lambda f: None,
                                label=label)

        r0 = start("r", 3_000_000, "r0")
        start("r", 3_000_000, "r1")
        start("k", 2_000_000, "k0")
        start("k", 2_000_000, "k1")
        start("e", 500_000, "e")  # due at 0.5 s, everyone else at 1.0 s
        for weight in (None, 2.0, 1.0):
            if weight is not None:
                net.set_flow_weight(r0, weight)
            net.flush()
        q.run()
        assert [label for t, label in fired if t == 1.0] == [
            "flow:k0", "flow:k1", "flow:r0", "flow:r1", "net-rebalance"]

    def test_stalled_member_is_armed_by_the_flush_that_frees_bandwidth(
            self, monkeypatch):
        """A member the kernel rates at 0 is on no calendar and holds no
        event; the next flush that gives it a rate puts it on one."""
        import repro.lon.network as network

        q = EventQueue()
        net = Network(q)
        net.add_link("a", "b", mbps(80), 0.01)
        done = []
        starved, other = [net.transfer("a", "b", 1_000_000, done.append)
                          for _ in range(2)]
        with monkeypatch.context() as m:
            m.setattr(network, "maxmin_rates",
                      lambda bw, paths, weights, caps: [0.0, bw[0]])
            net.flush()
        assert starved.rate == 0.0
        assert starved._calendar is None and starved._completion_event is None
        assert calendar_covers_every_flow(net)
        q.run_until(0.05)
        net.set_flow_weight(other, 2.0)  # any trigger on the row
        net.flush()
        assert starved.rate > 0 and starved._calendar is other._calendar
        assert calendar_covers_every_flow(net)
        q.run()
        assert done == [other, starved]
