"""``TransferScheduler.submit_batch``: a loop of the scalar admit.

Every flow is admitted by ``Network.transfer``; a batch is that many
admissions in spec order.  What is left to pin is the batch's own edge:
an empty batch admits nothing, and an unroutable spec raises at its
position with the specs before it admitted.
"""

import pytest

from repro.lon.network import Network, NoRouteError, mbps
from repro.lon.scheduler import TransferScheduler, TransferSpec
from repro.lon.simtime import EventQueue

N_LEAVES = 6


def star(queue):
    net = Network(queue, tcp_window=128 * 1024)
    for i in range(N_LEAVES):
        net.add_link(f"leaf{i}", "hub", mbps(20), 0.002)
    return net


class TestBatchAccounting:
    def test_empty_batch_is_a_noop(self):
        q = EventQueue()
        sched = TransferScheduler(star(q))
        assert sched.submit_batch([]) == []
        assert sched.stats.submitted == 0

    def test_no_route_at_spec_k_leaves_earlier_specs_admitted(self):
        q = EventQueue()
        net = star(q)
        net.add_node("island")
        sched = TransferScheduler(net)
        done = []
        specs = [
            TransferSpec(f"leaf{i}", f"leaf{i + 1}", 100_000,
                         lambda f, i=i: done.append(i), label=f"s{i}")
            for i in range(3)
        ]
        specs.insert(2, TransferSpec("leaf0", "island", 100_000,
                                     lambda f: done.append("x")))
        with pytest.raises(NoRouteError):
            sched.submit_batch(specs)
        assert [h.label for h in sched.active_handles] == ["s0", "s1"]
        q.run()
        assert sorted(done) == [0, 1]
        assert sched.stats.completed == 2
