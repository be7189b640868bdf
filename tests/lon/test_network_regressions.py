"""Regression tests for subtle flow-scheduler bugs found during bring-up."""

import math

import pytest

from repro.lon.network import Network, mbps
from repro.lon.simtime import EventQueue

from .reference_network import (
    ReferenceNetwork,
    accounting_matches_membership,
    step,
)


class TestDrainTailRebalance:
    def test_rebalance_during_drain_does_not_strand_flows(self):
        """A rebalance landing exactly while a flow drains used to leave a
        float residue (remaining ~1e-8, rate 0) that stranded the flow
        forever.  Any interleaving of starts must complete every flow."""
        q = EventQueue()
        net = Network(q)
        net.add_link("a", "b", mbps(100), 0.01)
        done = []
        sizes = [int(mbps(100) * 0.1)] * 3  # each drains in ~0.1 s alone

        def start_next(i):
            if i < len(sizes):
                net.transfer("a", "b", sizes[i],
                             lambda f: done.append(i))
                # next start lands mid-drain of the previous flow
                q.schedule_in(0.07, lambda: start_next(i + 1))

        start_next(0)
        q.run()
        assert sorted(done) == [0, 1, 2]
        assert not net.active_flows

    def test_many_overlapping_starts_all_complete(self):
        q = EventQueue()
        net = Network(q)
        net.add_link("a", "b", mbps(50), 0.005)
        done = []
        n = 25
        for i in range(n):
            q.schedule(
                i * 0.013,
                lambda i=i: net.transfer(
                    "a", "b", 40_000 + i * 1000, lambda f, i=i: done.append(i)
                ),
            )
        q.run()
        assert len(done) == n
        assert not net.active_flows

    def test_settle_one_ulp_before_the_drain_keeps_the_drain_time(self):
        """A re-rate landing within float rounding of a flow's drain time
        retires the flow at its drain time, not at the re-rate's: the
        settle compares times with a tolerance, never with ``==``."""
        q = EventQueue()
        net = Network(q)
        net.add_link("a", "b", mbps(10), 0.001)
        f = net.transfer("a", "b", 1_000_000, lambda fl: None)
        net.flush()
        t_drain = f.last_update + f.remaining / f.rate
        q.run_until(math.nextafter(t_drain, 0.0))
        net.transfer("a", "b", 1_000, lambda fl: None)  # re-rates the link
        net.flush()
        assert f.drained_at == t_drain

    def test_cancel_after_fire_does_not_corrupt_queue_len(self):
        """Cancelling an already-fired event must not decrement the live
        count (used to drive len(queue) negative)."""
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        q.run()
        q.cancel(ev)  # fired already: must be a no-op
        assert len(q) == 0
        q.schedule(2.0, lambda: None)
        assert len(q) == 1


class TestSameTimestampOrdering:
    def test_flow_created_at_drain_instant(self):
        """A flow starting at the exact sim time another drains must not
        observe a stale rate table."""
        q = EventQueue()
        net = Network(q)
        net.add_link("a", "b", mbps(100), 0.0)
        finish = {}
        size = int(mbps(100) * 0.5)  # drains at t=0.5 alone
        net.transfer("a", "b", size, lambda f: finish.setdefault("one", q.now))
        q.schedule(0.5, lambda: net.transfer(
            "a", "b", size, lambda f: finish.setdefault("two", q.now)
        ))
        q.run()
        assert finish["one"] == pytest.approx(0.5, abs=1e-6)
        # the second flow gets the full link: another 0.5 s
        assert finish["two"] == pytest.approx(1.0, abs=1e-3)


class TestPausedFlowAccounting:
    """``pause_flow`` expels the flow from its rows; cancelling or failing
    it afterwards used to expel it a second time, taking its ceiling (or
    its uncapped count) off the quiet-link accounting twice — so a row with
    a live member could read as idle and answer later triggers as quiet."""

    def _sharing_row_ab(self, tcp_window):
        """a - b - c: f1 rides a-b, f2 rides a-b-c."""
        q = EventQueue()
        net = Network(q, tcp_window=tcp_window)
        net.add_link("a", "b", mbps(800), 0.02)
        net.add_link("b", "c", mbps(800), 0.02)
        f1 = net.transfer("a", "b", 10_000_000, lambda f: None)
        f2 = net.transfer("a", "c", 10_000_000, lambda f: None)
        net.flush()
        return net, f1, f2

    def test_cancel_paused_capped_flow_keeps_survivor_ceiling(self):
        net, f1, f2 = self._sharing_row_ab(64 * 1024)
        assert (f1.rate_cap, f2.rate_cap) == (1_638_400.0, 819_200.0)
        net.pause_flow(f2)
        net.cancel_flow(f2)
        # was 1 638 400 + 819 200 - 2 x 819 200: f1's ceiling half gone
        assert net._row_capload[f1.link_row_ids[0]] == 1_638_400.0
        assert accounting_matches_membership(net)

    def test_cancel_paused_uncapped_flow_keeps_row_constrained(self):
        net, f1, f2 = self._sharing_row_ab(None)
        net.pause_flow(f2)
        net.cancel_flow(f2)
        row = f1.link_row_ids[0]
        # was 0 / False with f1 still an uncapped member of the row
        assert net._row_unc[row] == 1
        assert net._row_over[row]
        assert accounting_matches_membership(net)

    @pytest.mark.parametrize("tcp_window", [None, 64 * 1024])
    def test_link_down_fails_paused_flow_once(self, tcp_window):
        net, f1, f2 = self._sharing_row_ab(tcp_window)
        failed = []
        f2.on_fail = lambda f, exc: failed.append(f)
        net.pause_flow(f2)
        net.set_link_up("b", "c", False)
        assert failed == [f2]
        assert net.active_flows == (f1,)
        assert accounting_matches_membership(net)

    def test_flow_paused_in_its_drain_instant_still_retires(self):
        """Membership, not the ``paused`` flag, decides what an expel
        touches: a flow paused at the instant it drained is still a member
        and must come off the accounting when it retires."""
        q = EventQueue()
        net = Network(q, tcp_window=64 * 1024)
        net.add_link("a", "b", mbps(800), 0.02)
        done, flows = [], []
        # scheduled first, so at t=1 it fires before the drain check
        q.schedule(1.0, lambda: net.pause_flow(flows[0]))
        flows.append(
            net.transfer("a", "b", 1_638_400, done.append))  # drains at t=1
        f = flows[0]
        q.run_until(1.0 - 1e-9)
        assert step(q)  # the pause alone
        assert f.paused and f.drained_at == 1.0
        assert f.fid in net._members[f.link_row_ids[0]]
        q.run()
        assert done == [f]
        assert accounting_matches_membership(net)
        assert not net._members


NON_FINITE = [math.nan, math.inf]


class TestNonFiniteInputs:
    """NaN passed every ``< 0`` / ``<= 0`` check.  A NaN remote load made
    the row's bandwidth NaN, and the next flush never returned: the fill
    found no row sitting at a NaN water level and looped.  A NaN weight
    rated both flows sharing a 1 MB/s link ``inf``, and a NaN latency
    failed ``transfer`` with an ``IndexError`` inside routing.  Each input
    is now refused where it enters, with the network left as it was."""

    @staticmethod
    def _one_flow():
        net = Network(EventQueue())
        net.add_link("a", "b", mbps(8), 0.01)
        return net, net.transfer("a", "b", 1_000_000, lambda f: None)

    @pytest.mark.parametrize("load", NON_FINITE)
    def test_remote_load_is_refused(self, load):
        net, flow = self._one_flow()
        with pytest.raises(ValueError, match="remote load"):
            net.set_remote_load("a", "b", load)
        # no flush here: at a NaN bandwidth it would not return
        assert net._row_bw[flow.link_row_ids[0]] == mbps(8)

    @pytest.mark.parametrize("weight", NON_FINITE)
    def test_weight_change_is_refused(self, weight):
        net, flow = self._one_flow()
        with pytest.raises(ValueError, match="flow weight"):
            net.set_flow_weight(flow, weight)
        assert flow.weight == 1.0

    @pytest.mark.parametrize("weight", NON_FINITE)
    def test_flow_weight_is_refused(self, weight):
        net, _ = self._one_flow()
        with pytest.raises(ValueError, match="flow weight"):
            net.transfer("a", "b", 1_000, lambda f: None, weight=weight)
        assert len(net.active_flows) == 1

    @pytest.mark.parametrize("bandwidth", NON_FINITE)
    def test_link_bandwidth_is_refused(self, bandwidth):
        net = Network(EventQueue())
        with pytest.raises(ValueError, match="link bandwidth"):
            net.add_link("a", "b", bandwidth, 0.01)
        assert not net.has_link("a", "b")

    @pytest.mark.parametrize("latency", NON_FINITE)
    def test_link_latency_is_refused(self, latency):
        net = Network(EventQueue())
        with pytest.raises(ValueError, match="link latency"):
            net.add_link("a", "b", mbps(8), latency)
        assert not net.has_link("a", "b")


class TestLiveLinkReplacement:
    """``add_link`` on an existing pair refreshed the row's bandwidth and
    returned: unlike ``set_remote_load`` it never poked the row, so the
    flows on it kept rates computed for the old link (a 10 MB/s flow on a
    1 MB/s link, which ``link_utilization`` clamped to 1.0 and so hid)."""

    @staticmethod
    def _run(net_cls, replacements):
        """One 10 MB flow on 80 Mb/s; the link is replaced at each
        ``(time, Mb/s)``.  Returns the network and the flow, drained."""
        q = EventQueue()
        net = net_cls(q)
        net.add_link("a", "b", mbps(80), 0.01)
        flow = net.transfer("a", "b", 10_000_000, lambda f: None)
        for at, megabits in replacements:
            q.run_until(at)
            net.add_link("a", "b", mbps(megabits), 0.01)
            net.flush()
            assert flow.rate == mbps(megabits)
            assert net._row_load(flow.link_row_ids[0]) <= mbps(megabits)
        q.run()
        return net, flow

    @pytest.mark.parametrize("replacements, finish", [
        # 1 MB at 10 MB/s, then 9 MB at 1 MB/s (was: delivered at 1.01 s)
        ([(0.1, 8)], 0.1 + 9.0 + 0.01),
        # ... 1 MB of those at 1 MB/s, then the bandwidth comes back
        ([(0.1, 8), (1.1, 80)], 0.1 + 1.0 + 0.8 + 0.01),
    ])
    def test_replaced_bandwidth_re_rates_the_flows_on_it(
            self, replacements, finish):
        net, flow = self._run(Network, replacements)
        _, oracle = self._run(ReferenceNetwork, replacements)
        assert flow.finish_time == pytest.approx(finish, abs=1e-9)
        assert flow.finish_time == pytest.approx(oracle.finish_time, abs=1e-9)
        assert accounting_matches_membership(net)
