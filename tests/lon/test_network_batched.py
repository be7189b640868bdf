"""Unit tests for trigger coalescing and the coalesced flush.

The scaling benchmark drives these paths at fleet size; this module pins
the accounting down at the smallest scale that can exercise it, so a
regression shows up as a named assertion instead of a dead counter in
``BENCH_scale.json``.
"""

from repro.lon.network import Network, mbps
from repro.lon.simtime import EventQueue

from .reference_network import ReferenceNetwork


def star(queue, n_leaves=4, bandwidth=mbps(10), cls=Network):
    net = cls(queue)
    for i in range(n_leaves):
        net.add_link(f"leaf{i}", "hub", bandwidth, 0.001)
    return net


class TestCoalescing:
    def test_same_instant_triggers_coalesce_into_one_flush(self):
        """Two transfers started at one timestamp arm a single flush event;
        the second trigger is absorbed and counted, and the flush itself
        recomputes the component exactly once."""
        q = EventQueue()
        net = star(q)
        assert net.stats.coalesced == 0
        net.transfer("leaf0", "leaf1", 500_000, lambda f: None)
        net.transfer("leaf2", "leaf1", 500_000, lambda f: None)
        # second _poke at the same instant was absorbed into the pending
        # flush instead of arming another event
        assert net.stats.coalesced == 1
        before = net.stats.recomputes
        net.flush()
        assert net.stats.recomputes == before + 1
        # the armed event is now a no-op; draining the queue must not
        # recompute again for this instant
        q.run_until(q.now)
        assert net.stats.recomputes == before + 1

    def test_triggers_at_distinct_instants_do_not_coalesce(self):
        q = EventQueue()
        net = star(q)
        net.transfer("leaf0", "leaf1", 500_000, lambda f: None)
        q.run_until(q.now + 0.01)  # flush fires, time advances
        net.transfer("leaf2", "leaf1", 500_000, lambda f: None)
        assert net.stats.coalesced == 0
        q.run()

    def test_full_mode_never_coalesces(self):
        q = EventQueue()
        net = star(q, cls=ReferenceNetwork)
        net.transfer("leaf0", "leaf1", 500_000, lambda f: None)
        net.transfer("leaf2", "leaf1", 500_000, lambda f: None)
        assert net.stats.coalesced == 0
        assert net.stats.full_recomputes == 2
        q.run()


class TestContendedFlush:
    def test_saturated_hub_takes_the_vectorized_fill(self):
        """Saturated hub: every flush really re-rates the 12-flow
        component, and the flows all finish."""
        q = EventQueue()
        net = star(q, n_leaves=6, bandwidth=mbps(5))
        done = []
        for i in range(12):
            net.transfer(f"leaf{i % 3}", f"leaf{3 + i % 3}",
                         200_000 + 40_000 * i,
                         lambda f: done.append(f.finish_time))
        q.run()
        assert len(done) == 12
        assert net.stats.recomputes > 0
        assert net.stats.full_recomputes == 0
