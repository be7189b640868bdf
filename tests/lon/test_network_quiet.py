"""The quiet-link fast path: window-capped flows on unsaturated links.

When every link on a flow's path keeps headroom for the sum of its
members' TCP-window ceilings, max-min fairness pins each member at its
own ceiling — so admitting or retiring such a flow re-rates nobody and
the incremental rebalancer skips the flush entirely (``fast_rated``).
These tests pin the trigger accounting and the transition back to real
water-filling once a link saturates.
"""

import pytest

from repro.lon.network import Network, mbps
from repro.lon.simtime import EventQueue

from .reference_network import ReferenceNetwork


def capped_net(window=64 * 1024, bandwidth=mbps(800), cls=Network):
    q = EventQueue()
    net = cls(q, tcp_window=window)
    net.add_link("a", "b", bandwidth=bandwidth, latency=0.05)
    return q, net


class TestQuietFastPath:
    def test_uncontended_capped_transfer_skips_flush(self):
        q, net = capped_net()
        done = []
        flow = net.transfer("a", "b", 1 << 20, lambda f: done.append(f))
        # pinned straight at the window ceiling, no flush scheduled
        assert flow.rate == pytest.approx(flow.rate_cap)
        assert net.stats.fast_rated == 1
        assert net._flush_event is None
        q.run()
        assert done and done[0].done
        # the completion trigger was quiet too
        assert net.stats.fast_rated == 2
        assert net.stats.recomputes == 0

    def test_headroom_fleet_never_flushes(self):
        q, net = capped_net()
        # rate_cap = 64 KiB / 0.1 s RTT ~ 650 KB/s; 100 MB/s link holds
        # dozens of ceilings without saturating
        done = []
        for _ in range(10):
            net.transfer("a", "b", 256 * 1024, lambda f: done.append(f))
        q.run()
        assert len(done) == 10
        assert net.stats.recomputes == 0
        assert net.stats.fast_rated == 20  # 10 admits + 10 retirements

    def test_saturated_link_still_water_fills(self):
        # shrink the link until two ceilings oversubscribe it
        q, net = capped_net(bandwidth=mbps(8))  # 1 MB/s
        f1 = net.transfer("a", "b", 1 << 20, lambda f: None)
        f2 = net.transfer("a", "b", 1 << 20, lambda f: None)
        q.run_until(0.0)  # flush the coalesced triggers
        assert net.stats.recomputes >= 1
        total = f1.rate + f2.rate
        assert total == pytest.approx(mbps(8), rel=1e-6)

    def test_uncapped_flow_disables_quiet_path(self):
        q = EventQueue()
        net = Network(q, tcp_window=None)
        net.add_link("a", "b", bandwidth=mbps(100), latency=0.01)
        net.transfer("a", "b", 1 << 20, lambda f: None)
        # an uncapped flow can always be constrained: must flush
        assert net._flush_event is not None
        q.run()
        assert net.stats.fast_rated == 0
        assert net.stats.recomputes >= 1

    def test_full_mode_never_takes_the_fast_path(self):
        q, net = capped_net(cls=ReferenceNetwork)
        net.transfer("a", "b", 1 << 20, lambda f: None)
        q.run()
        assert net.stats.fast_rated == 0
        assert net.stats.full_recomputes >= 2

    def test_quiet_cancel_releases_accounting(self):
        q, net = capped_net()
        flow = net.transfer("a", "b", 1 << 30, lambda f: None)
        net.cancel_flow(flow)
        assert net.stats.fast_rated == 2  # admit + cancel, both quiet
        # accounting drained: a fresh transfer still sees full headroom
        f2 = net.transfer("a", "b", 1 << 20, lambda f: None)
        assert f2.rate == pytest.approx(f2.rate_cap)

    def test_saturation_transition_rerates_survivors(self):
        # one flow fits quietly; the second oversubscribes the link, so
        # both get water-filled; when it ends the survivor is re-pinned
        q, net = capped_net(bandwidth=mbps(8))
        big = net.transfer("a", "b", 4 << 20, lambda f: None)
        assert big.rate == pytest.approx(big.rate_cap)  # alone: quiet
        net.transfer("a", "b", 64 * 1024, lambda f: None)
        q.run_until(0.0)
        assert big.rate < big.rate_cap  # sharing the saturated link
        q.run()
        assert big.done
        assert net.stats.recomputes >= 1

    def test_weight_change_on_quiet_links_is_absorbed(self):
        q, net = capped_net()
        flow = net.transfer("a", "b", 1 << 20, lambda f: None)
        before = net.stats.fast_rated
        net.set_flow_weight(flow, 4.0)
        assert net.stats.fast_rated == before + 1
        assert flow.rate == pytest.approx(flow.rate_cap)  # cap-bound anyway
        assert net._flush_event is None
