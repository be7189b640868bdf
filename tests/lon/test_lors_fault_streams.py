"""Fault-path stream pins for the LoRS job engine.

``GOLDEN`` (tests/integration/test_golden_behaviour.py) never fails a block
over, cancels a job or promotes one, so the paths that do are pinned here:
one seeded scenario per path, each asserting a sha256 over every fired
``(time.hex(), label)`` plus every scheduler lifecycle record.  All five
shas were recorded at the commit before ``DownloadJob`` / ``CopyJob`` became
one engine and are unchanged by it — the copy paths too: giving a failed
block copy's target allocation back (``TestCopyReleasesWhatItDoesNotLand``,
which fails at that commit) fires nothing.
"""

import hashlib
import random

from repro.lon.ibp import Depot
from repro.lon.lbone import LBone
from repro.lon.lors import LoRS
from repro.lon.scheduler import Priority, TransferScheduler
from repro.lon.simtime import EventQueue

from .reference_topology import build_dumbbell

BLOCK = 512 * 1024

STREAMS = {
    "download_failover_mid_stripe":
        "bf7456f3af14eb4a9bb160bbd26488649298e117759503dc41882d166069f679",
    "partitioned_between_rpc_and_flow":
        "802b58d085b39fe9baf7b5c8b3a92c6221a5c795c5a9894d5cb4be15730468c1",
    "promote_mid_download":
        "f38b86c6e37ff90d51a233dc7781a2de401e53f6d3b1334b136fa0062d3b8a40",
    "copy_failover_to_alternate":
        "9f798a5e2bbac7938cac7ccabf0bf6faceacccfc0c9f1d3c8dfb52ce43dd9c95",
    "cancel_mid_copy":
        "7ff9086200c3cda1ea747f536d85f895968f665c0fca32047e787597f4df58b6",
}


class Rig:
    """The paper-shaped dumbbell with a weighted scheduler, all observed."""

    def __init__(self, seed):
        self.q = q = EventQueue()
        self.net = build_dumbbell(
            q,
            lan_hosts=["client", "agent", "lan-depot"],
            wan_hosts=["ca1", "ca2", "ca3"],
        )
        self.net.tcp_window = 64 * 1024
        self.sha = hashlib.sha256()
        q.on_fire = lambda ev: self.sha.update(
            f"{ev.time.hex()} {ev.label}\n".encode())
        self.scheduler = TransferScheduler(
            self.net, policy="weighted", on_event=self._lifecycle)
        lbone = LBone(self.net)
        self.depots = {}
        for name in ("lan-depot", "ca1", "ca2", "ca3"):
            self.depots[name] = Depot(name, q, capacity=1 << 30)
            lbone.register(self.depots[name])
        self.lors = LoRS(q, self.net, lbone, scheduler=self.scheduler)
        self.data = random.Random(seed).randbytes(4 * BLOCK)

    def _lifecycle(self, ev):
        self.sha.update(
            f"{ev.time.hex()} {ev.label} {ev.priority} {ev.event} "
            f"{ev.detail}\n".encode())

    def place(self, *names, **layout):
        return self.lors.place(
            "f", self.data, [self.depots[n] for n in names], **layout)

    def cut(self, name):
        self.net.set_link_up(name, "wan-router", False)

    def digest(self):
        return self.sha.hexdigest()


def download_failover_mid_stripe():
    """ca1 drops while its block flows are in flight (RPC lands at 74.5 ms)."""
    rig = Rig(seed=11)
    ex = rig.place("ca1", "ca2", stripe_width=2, replicas=2)
    job = rig.lors.download(ex, "agent", max_streams=4)
    rig.q.schedule_in(0.09, lambda: rig.cut("ca1"), "cut")
    rig.q.run()
    assert job.result() == rig.data
    assert job.per_depot_bytes == {"ca2": len(rig.data)}
    return rig


def partitioned_between_rpc_and_flow():
    """ca1 drops after the reads were issued, before their flows begin."""
    rig = Rig(seed=12)
    ex = rig.place("ca1", "ca2", stripe_width=2, replicas=2)
    job = rig.lors.download(ex, "agent", max_streams=4)
    rig.q.schedule_in(0.03, lambda: rig.cut("ca1"), "cut")
    rig.q.run()
    assert job.result() == rig.data
    assert job.per_depot_bytes == {"ca2": len(rig.data)}
    return rig


def promote_mid_download():
    """A PREFETCH download sharing the WAN with staging turns DEMAND."""
    rig = Rig(seed=13)
    ex = rig.place("ca1", "ca2", "ca3", stripe_width=3)
    rig.lors.augment(ex, rig.depots["lan-depot"], max_streams=2)
    job = rig.lors.download(ex, "agent", max_streams=2,
                            priority=Priority.PREFETCH)
    rig.q.schedule_in(0.2, lambda: job.promote(Priority.DEMAND), "promote")
    rig.q.run()
    assert job.result() == rig.data
    assert rig.scheduler.stats.promoted == 2  # the two blocks then in flight
    return rig


def copy_failover_to_alternate():
    """ca1 drops mid-copy: its blocks re-copy from their replica on ca2."""
    rig = Rig(seed=14)
    ex = rig.place("ca1", "ca2", stripe_width=2, replicas=2)
    job = rig.lors.augment(ex, rig.depots["lan-depot"], max_streams=4)
    rig.q.schedule_in(0.05, lambda: rig.cut("ca1"), "cut")
    rig.q.run()
    assert sorted(m.extent.offset for m in job.result()) == [
        0, BLOCK, 2 * BLOCK, 3 * BLOCK]
    return rig


def copy_unroutable_source():
    """Half the blocks sit only on a depot partitioned before the copy
    (nothing is ever admitted, so there is no stream to pin)."""
    rig = Rig(seed=15)
    ex = rig.place("ca1", "ca2", stripe_width=2)
    rig.cut("ca1")
    job = rig.lors.augment(ex, rig.depots["lan-depot"], max_streams=4)
    rig.q.run()
    assert job.failed
    return rig


def cancel_mid_copy():
    """A cursor move kills a 4-block staging copy 50 ms in."""
    rig = Rig(seed=16)
    ex = rig.place("ca1", "ca2", stripe_width=2)
    job = rig.lors.augment(ex, rig.depots["lan-depot"], max_streams=4)
    rig.q.schedule_in(0.05, job.cancel, "cancel")
    rig.q.run()
    assert job.failed
    assert rig.scheduler.stats.cancelled == 4
    return rig


SCENARIOS = [
    download_failover_mid_stripe,
    partitioned_between_rpc_and_flow,
    promote_mid_download,
    copy_failover_to_alternate,
    cancel_mid_copy,
]


class TestFaultPathStreams:
    def test_every_path_fires_its_recorded_stream(self):
        got = {run.__name__: run().digest() for run in SCENARIOS}
        assert got == STREAMS


class TestCopyReleasesWhatItDoesNotLand:
    """A block copy that ends without a stored mapping frees its lease."""

    def test_cancelled_copy_leaves_the_target_empty(self):
        rig = cancel_mid_copy()
        assert rig.depots["lan-depot"].used == 0

    def test_unroutable_source_leaves_the_target_empty(self):
        rig = copy_unroutable_source()
        assert rig.depots["lan-depot"].used == 0

    def test_failed_over_copy_keeps_only_what_landed(self):
        rig = copy_failover_to_alternate()
        assert rig.depots["lan-depot"].used == len(rig.data)


if __name__ == "__main__":  # re-record: python -m tests.lon.test_lors_fault_streams
    for run in SCENARIOS:
        print(f'    "{run.__name__}":\n        "{run().digest()}",')
