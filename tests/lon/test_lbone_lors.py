"""Tests for the L-Bone directory and LoRS upload/download/augment."""

import gc
import weakref

import pytest

from repro.lon.exnode import ExNode, Extent, Mapping
from repro.lon.ibp import Depot
from repro.lon.lbone import LBone, LBoneError
from repro.lon.lors import (
    DEFAULT_BLOCK_SIZE, Deferred, DownloadJob, LoRS, LoRSError,
)
from repro.lon.network import Flow, gbps
from repro.lon.simtime import EventQueue

from .reference_network import step
from .reference_topology import build_dumbbell


@pytest.fixture()
def rig():
    """A paper-shaped rig: client LAN + remote depots, L-Bone, LoRS."""
    q = EventQueue()
    net = build_dumbbell(
        q,
        lan_hosts=["client", "agent", "lan-depot"],
        wan_hosts=["ca1", "ca2", "ca3"],
    )
    lbone = LBone(net)
    depots = {}
    for name, loc in [
        ("lan-depot", "knoxville"),
        ("ca1", "california"),
        ("ca2", "california"),
        ("ca3", "california"),
    ]:
        d = Depot(name, q, capacity=1 << 30)
        depots[name] = d
        lbone.register(d, location=loc)
    lors = LoRS(q, net, lbone)
    return q, net, lbone, depots, lors


class TestLBone:
    def test_register_and_lookup(self, rig):
        _, _, lbone, depots, _ = rig
        assert lbone.lookup("ca1") is depots["ca1"]

    def test_lookup_unknown_raises(self, rig):
        _, _, lbone, _, _ = rig
        with pytest.raises(LBoneError):
            lbone.lookup("nope")


class TestPlace:
    def test_place_produces_covered_exnode(self, rig):
        _, _, _, depots, lors = rig
        data = bytes(range(256)) * 40  # 10240 bytes
        ex = lors.place(
            "f", data, [depots["ca1"], depots["ca2"], depots["ca3"]],
            stripe_width=3, block_size=4096,
        )
        assert ex.length == len(data)
        assert ex.is_fully_covered()
        assert set(ex.depots()) == {"ca1", "ca2", "ca3"}

    def test_place_with_replicas(self, rig):
        _, _, _, depots, lors = rig
        data = b"z" * 8192
        ex = lors.place(
            "f", data, [depots["ca1"], depots["ca2"]],
            stripe_width=2, replicas=2, block_size=4096,
        )
        # each block has two replicas, on distinct depots
        for off in (0, 4096):
            maps = [m for m in ex.mappings if m.extent.offset == off]
            assert len({m.depot for m in maps}) == 2

    def test_place_more_replicas_than_depots_rejected(self, rig):
        _, _, _, depots, lors = rig
        with pytest.raises(LoRSError):
            lors.place("f", b"x", [depots["ca1"]], replicas=2)

    def test_place_requires_depots(self, rig):
        _, _, _, _, lors = rig
        with pytest.raises(LoRSError):
            lors.place("f", b"x", [])

    def test_place_bad_params(self, rig):
        _, _, _, depots, lors = rig
        d = [depots["ca1"]]
        with pytest.raises(LoRSError):
            lors.place("f", b"x", d, stripe_width=0)
        with pytest.raises(LoRSError):
            lors.place("f", b"x", d, replicas=0)
        with pytest.raises(LoRSError):
            lors.place("f", b"x", d, block_size=0)

    def test_place_empty_data(self, rig):
        _, _, _, depots, lors = rig
        ex = lors.place("f", b"", [depots["ca1"]])
        assert ex.length == 0
        assert ex.mappings == []


class TestDownload:
    def test_download_roundtrip(self, rig):
        q, _, _, depots, lors = rig
        data = bytes((i * 7) % 256 for i in range(50_000))
        ex = lors.place(
            "f", data, [depots["ca1"], depots["ca2"], depots["ca3"]],
            stripe_width=3, block_size=16384,
        )
        deferred = lors.download(ex, "agent")
        q.run()
        assert deferred.result() == data

    def test_download_empty_exnode(self, rig):
        q, _, _, depots, lors = rig
        ex = lors.place("f", b"", [depots["ca1"]])
        deferred = lors.download(ex, "agent")
        q.run()
        assert deferred.result() == b""

    def test_download_prefers_closest_replica(self, rig):
        q, _, _, depots, lors = rig
        data = b"q" * 10_000
        ex = lors.place("f", data, [depots["ca1"]], stripe_width=1)
        # replicate onto the LAN depot via augment, then re-download
        aug = lors.augment(ex, depots["lan-depot"])
        q.run()
        for m in aug.result():
            ex.add_mapping(m)
        job = lors.download(ex, "agent")
        q.run()
        assert job.result() == data
        assert set(job.per_depot_bytes) == {"lan-depot"}

    def test_download_hole_rejected(self, rig):
        q, _, _, depots, lors = rig
        data = b"x" * 8192
        ex = lors.place("f", data, [depots["ca1"]], block_size=4096)
        ex.mappings = ex.mappings[1:]  # knock out the first block
        deferred = lors.download(ex, "agent")
        q.run()
        assert deferred.failed
        with pytest.raises(LoRSError):
            deferred.result()

    def test_download_fails_over_to_replica(self, rig):
        q, _, _, depots, lors = rig
        data = b"r" * 20_000
        ex = lors.place(
            "f", data, [depots["ca1"], depots["ca2"]],
            stripe_width=1, replicas=2, block_size=8192,
        )
        # ca1 stays reachable and ranks first (ties go by name), but has
        # lost its copies: each read there fails -> failover to ca2
        for m in ex.mappings:
            if m.depot == "ca1":
                depots["ca1"].manage_decrement(m.manage_cap)
        job = lors.download(ex, "agent")
        q.run()
        assert job.result() == data
        assert job.per_depot_bytes == {"ca2": len(data)}

    def test_parallel_streams_use_multiple_depots(self, rig):
        q, _, _, depots, lors = rig
        data = b"s" * 30_000
        ex = lors.place(
            "f", data, [depots["ca1"], depots["ca2"], depots["ca3"]],
            stripe_width=3, block_size=10_000,
        )
        job = lors.download(ex, "agent", max_streams=3)
        q.run()
        assert job.result() == data
        assert len(job.per_depot_bytes) == 3

    def test_max_streams_one_still_completes(self, rig):
        q, _, _, depots, lors = rig
        data = b"t" * 30_000
        ex = lors.place(
            "f", data, [depots["ca1"], depots["ca2"], depots["ca3"]],
            stripe_width=3, block_size=10_000,
        )
        deferred = lors.download(ex, "agent", max_streams=1)
        q.run()
        assert deferred.result() == data

    def test_striping_speeds_up_wan_download(self, rig):
        """Core LoRS claim: parallel striped download beats single-depot.

        The dumbbell WAN bottleneck is shared, but each depot's access link
        serializes; striping over three depots should not be slower, and
        with per-depot access links it is strictly faster for the tail.
        """
        q, net, lbone, depots, lors = rig
        data = b"u" * 600_000
        ex1 = lors.place("one", data, [depots["ca1"]], stripe_width=1,
                         block_size=200_000)
        t0 = q.now
        d1 = lors.download(ex1, "agent")
        q.run()
        single_time = q.now - t0
        ex3 = lors.place(
            "three", data, [depots["ca1"], depots["ca2"], depots["ca3"]],
            stripe_width=3, block_size=200_000,
        )
        t1 = q.now
        d3 = lors.download(ex3, "agent")
        q.run()
        striped_time = q.now - t1
        assert d1.result() == data
        assert d3.result() == data
        assert striped_time <= single_time * 1.05


def _pattern(n):
    return bytes((i * 31 + i // 251) % 256 for i in range(n))


def _store(depot, data, offset):
    """One hand-made mapping: ``data`` at file offset ``offset`` on ``depot``."""
    rcap, wcap, mcap = depot.allocate(len(data), 3600.0)
    depot.store(wcap, data)
    return Mapping(extent=Extent(offset, len(data)), read_cap=rcap,
                   write_cap=wcap, manage_cap=mcap)


class TestDownloadAssembly:
    """Payload bytes are moved by reference; the file is assembled once."""

    def test_lone_full_length_block_is_the_stored_object(self, rig):
        q, _, _, depots, lors = rig
        data = _pattern(40_000)
        ex = lors.place("f", data, [depots["ca1"]])
        (m,) = ex.mappings
        deferred = lors.download(ex, "agent")
        q.run()
        assert deferred.result() == data
        assert deferred.result() is depots["ca1"].load(m.read_cap)

    @pytest.mark.parametrize("max_streams", [1, 4])
    def test_striped_blocks_equal_the_upload(self, rig, max_streams):
        q, _, _, depots, lors = rig
        data = _pattern(100_001)  # seven blocks, the last one short
        up = lors.upload(
            "f", data, "agent",
            [depots["ca1"], depots["ca2"], depots["ca3"]],
            stripe_width=3, block_size=16384,
        )
        q.run()
        down = lors.download(up.result(), "client", max_streams=max_streams)
        q.run()
        assert down.result() == data
        assert type(down.result()) is bytes
        assert down.bytes_fetched == len(data)

    def test_overlapping_extents(self, rig):
        """Replicas cut at different offsets: the cover's blocks overlap."""
        q, _, _, depots, lors = rig
        data = _pattern(10_000)
        ex = ExNode("f", len(data), [
            _store(depots["ca1"], data[:6000], 0),
            _store(depots["ca3"], data[2000:5000], 2000),  # shadowed
            _store(depots["ca2"], data[4000:], 4000),
            _store(depots["ca3"], data[9000:], 9000),      # shadowed
        ])
        deferred = lors.download(ex, "agent", max_streams=1)
        q.run()
        assert deferred.result() == data
        assert deferred.bytes_fetched == 12_000  # two blocks, 2000 twice
        assert set(deferred.per_depot_bytes) == {"ca1", "ca2"}

    def test_failover_mid_download_still_assembles(self, rig):
        q, net, _, depots, lors = rig
        data = _pattern(600_000)
        ex = lors.place(
            "f", data, [depots["ca1"], depots["ca2"]],
            stripe_width=2, replicas=2, block_size=100_000,
        )
        deferred = lors.download(ex, "agent", max_streams=4)
        cut = []

        def cut_ca1():
            cut.extend(f for f in net.active_flows if f.src == "ca1")
            net.set_link_up("ca1", "wan-router", False)

        q.schedule_in(0.09, cut_ca1)  # block flows start after a 74 ms RPC
        q.run()
        assert cut, "the cut must land on block flows in flight"
        assert deferred.result() == data
        assert deferred.per_depot_bytes == {"ca2": len(data)}

    def test_augment_builds_no_download_job(self, rig, monkeypatch):
        """A staged copy plans its cover without a probe download."""
        q, _, _, depots, lors = rig
        data = _pattern(25_000)
        ex = lors.place(
            "f", data, [depots["ca1"], depots["ca2"]],
            stripe_width=2, block_size=10_000,
        )

        def refuse(self, *args, **kwargs):
            raise AssertionError("augment constructed a DownloadJob")

        monkeypatch.setattr(DownloadJob, "__init__", refuse)
        aug = lors.augment(ex, depots["lan-depot"])
        q.run()
        assert sorted(m.extent.offset for m in aug.result()) == [
            0, 10_000, 20_000]
        monkeypatch.undo()
        lan_only = ExNode("f", ex.length, aug.result())
        down = lors.download(lan_only, "agent")
        q.run()
        assert down.result() == data


class TestAugmentTrim:
    def test_augment_copies_all_blocks(self, rig):
        q, _, _, depots, lors = rig
        data = b"v" * 25_000
        ex = lors.place(
            "f", data, [depots["ca1"], depots["ca2"]],
            stripe_width=2, block_size=10_000,
        )
        aug = lors.augment(ex, depots["lan-depot"])
        q.run()
        new_maps = aug.result()
        assert len(new_maps) == 3  # ceil(25000/10000)
        for m in new_maps:
            ex.add_mapping(m)
        # data is now fully readable from the LAN depot alone
        lan_only = ExNode("f", ex.length,
                          [m for m in ex.mappings if m.depot == "lan-depot"])
        assert lan_only.is_fully_covered()

    def test_augment_is_third_party(self, rig):
        """No flow touches the agent during an augment."""
        q, net, _, depots, lors = rig
        data = b"w" * 10_000
        ex = lors.place("f", data, [depots["ca1"]])
        lors.augment(ex, depots["lan-depot"])
        saw_agent = []

        def check():
            for f in net.active_flows:
                if "agent" in (f.src, f.dst) or "client" in (f.src, f.dst):
                    saw_agent.append(f)
            return 0.01 if len(net.active_flows) else None

        from repro.lon.simtime import Process

        Process(q, check).start()
        q.run()
        assert saw_agent == []

    def test_augment_uses_soft_allocations_by_default(self, rig):
        q, _, _, depots, lors = rig
        ex = lors.place("f", b"x" * 100, [depots["ca1"]])
        aug = lors.augment(ex, depots["lan-depot"])
        q.run()
        assert aug.result()
        # a soft copy gives way to a hard allocation that needs its space
        lan = depots["lan-depot"]
        lan.allocate(lan.capacity, 60.0)
        assert lan.stats.revoked_soft == 1

    def test_augment_refusal_rejects(self, rig):
        q, _, _, depots, lors = rig
        tiny = Depot("tiny", q, capacity=10)
        rigged_lbone = rig[2]
        rigged_lbone.register(tiny)
        rig[1].add_link("tiny", "lan-switch", gbps(1), 0.0002)
        ex = lors.place("f", b"y" * 1000, [depots["ca1"]])
        aug = lors.augment(ex, tiny)
        q.run()
        assert aug.failed

    @pytest.mark.parametrize("how", ["cancel", "lose-the-only-replica"])
    def test_an_aborted_copy_gives_back_the_blocks_that_landed(self, rig,
                                                               how):
        q, net, _, depots, lors = rig
        lan = depots["lan-depot"]
        ex = lors.place("f", b"c" * 4096, [depots["ca1"]], block_size=1024)
        job = lors.augment(ex, lan, max_streams=1)
        while len(job.new_mappings) < 2:
            assert step(q)
        if how == "cancel":
            job.cancel()
        else:
            net.set_link_up("ca1", "wan-router", False)
        q.run()
        assert job.failed
        assert lan.used == 0


class TestTransferLifetime:
    """A transfer that ended frees itself by reference count: nothing of it
    waits for the cyclic collector (which is off for the test)."""

    @pytest.fixture(autouse=True)
    def no_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @pytest.mark.parametrize("outcome", ["delivered", "failed", "cancelled"])
    @pytest.mark.parametrize("kind", ["download", "copy"])
    def test_an_ended_transfer_is_freed_once_dropped(self, rig, kind,
                                                     outcome):
        q, net, _, depots, lors = rig
        ex = lors.place("f", _pattern(600_000), [depots["ca1"]],
                        block_size=100_000)
        if kind == "download":
            job = lors.download(ex, "agent", max_streams=4)
        else:
            job = lors.augment(ex, depots["lan-depot"], max_streams=4)
        ended = []
        # the caller's callback closes over the job it was added to
        job.add_callback(lambda d: ended.append(job.done))
        probed = {}

        def probe():
            handles = lors.scheduler.active_handles
            probed["handles"] = [weakref.ref(h) for h in handles]
            probed["flows"] = {id(h.flow) for h in handles}
            if outcome == "failed":
                net.set_link_up("ca1", "wan-router", False)
            elif outcome == "cancelled":
                job.cancel()

        # a download's flows follow a 74 ms request; a copy's start at once
        q.schedule_in(0.09 if kind == "download" else 0.01, probe)
        q.run()
        assert ended == [True]
        assert job.failed == (outcome != "delivered")
        assert probed["handles"]
        job_ref = weakref.ref(job)
        del job
        assert job_ref() is None
        assert all(ref() is None for ref in probed["handles"])
        # a slotted Flow takes no weak reference: look for it by identity
        assert not [o for o in gc.get_objects()
                    if type(o) is Flow and id(o) in probed["flows"]]


class TestUploadOnline:
    def test_upload_pays_network_time(self, rig):
        q, _, _, depots, lors = rig
        data = b"a" * 1_000_000
        t0 = q.now
        deferred = lors.upload(
            "f", data, "agent", [depots["ca1"]], stripe_width=1,
            block_size=DEFAULT_BLOCK_SIZE,
        )
        q.run()
        ex = deferred.result()
        assert ex.is_fully_covered()
        # ~1 MB over a 100 Mb/s WAN needs at least 0.08 s of sim time
        assert q.now - t0 > 0.05

    def test_uploaded_data_downloads_back(self, rig):
        q, _, _, depots, lors = rig
        data = bytes((i * 13) % 256 for i in range(100_000))
        up = lors.upload(
            "f", data, "agent",
            [depots["ca1"], depots["ca2"]], stripe_width=2,
            block_size=32768,
        )
        q.run()
        down = lors.download(up.result(), "client")
        q.run()
        assert down.result() == data


class TestDeferred:
    def test_result_before_done_raises(self):
        with pytest.raises(LoRSError):
            Deferred().result()

    def test_double_resolve_raises(self):
        d = Deferred()
        d.resolve(1)
        with pytest.raises(LoRSError):
            d.resolve(2)

    def test_callback_after_done_fires_immediately(self):
        d = Deferred()
        d.resolve(42)
        seen = []
        d.add_callback(lambda dd: seen.append(dd.result()))
        assert seen == [42]

    def test_reject_propagates(self):
        d = Deferred()
        d.reject(ValueError("boom"))
        assert d.failed
        with pytest.raises(ValueError):
            d.result()
