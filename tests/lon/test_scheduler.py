"""Tests for the priority-aware transfer scheduler and in-flight registry."""

import pytest

from repro.lon.network import Network, mbps
from repro.lon.scheduler import (
    DEFAULT_CLASS_WEIGHTS,
    InFlightRegistry,
    Priority,
    TransferScheduler,
    TransferSpec,
)
from repro.lon.simtime import EventQueue

from .reference_topology import build_dumbbell


def one_link():
    q = EventQueue()
    net = Network(q)
    net.add_link("a", "b", bandwidth=mbps(100), latency=0.0)
    return q, net


SIZE = int(mbps(100))  # exactly one second at line rate


def submit(sched, src, dst, size, on_complete, on_fail=None, label="",
           priority=Priority.DEMAND):
    """One transfer in any class: a batch of one is admitted exactly as
    ``TransferScheduler.submit`` admits its DEMAND transfer."""
    return sched.submit_batch([TransferSpec(
        src, dst, size, on_complete, on_fail, label, priority)])[0]


class TestPolicies:
    def test_unknown_policy_rejected(self):
        _, net = one_link()
        with pytest.raises(ValueError):
            TransferScheduler(net, policy="fifo")

    def test_off_policy_is_priority_blind(self):
        q, net = one_link()
        sched = TransferScheduler(net, policy="off")
        times = {}
        submit(sched, "a", "b", SIZE, lambda f: times.setdefault("d", q.now),
                     priority=Priority.DEMAND)
        submit(sched, "a", "b", SIZE, lambda f: times.setdefault("s", q.now),
                     priority=Priority.STAGING)
        q.run()
        # equal halves, exactly the seed's fair sharing
        assert times["d"] == pytest.approx(2.0, rel=1e-3)
        assert times["s"] == pytest.approx(2.0, rel=1e-3)

    def test_weighted_split_follows_class_weights(self):
        q, net = one_link()
        sched = TransferScheduler(net, policy="weighted")
        times = {}
        submit(sched, "a", "b", SIZE, lambda f: times.setdefault("d", q.now),
                     priority=Priority.DEMAND)
        submit(sched, "a", "b", SIZE, lambda f: times.setdefault("s", q.now),
                     priority=Priority.STAGING)
        q.run()
        # DEMAND:STAGING = 8:1 while both live -> demand drains 8/9 of the
        # link; it finishes at 9/8 s, then staging gets the whole link
        w_d = DEFAULT_CLASS_WEIGHTS[Priority.DEMAND]
        w_s = DEFAULT_CLASS_WEIGHTS[Priority.STAGING]
        t_demand = (w_d + w_s) / w_d
        assert times["d"] == pytest.approx(t_demand, rel=1e-3)
        assert times["d"] < 1.5  # close to uncontended
        # staging: drained t_demand * 1/9 of its bytes by then, rest at
        # full rate
        t_staging = t_demand + (1 - t_demand * w_s / (w_d + w_s))
        assert times["s"] == pytest.approx(t_staging, rel=1e-3)

    def test_strict_pauses_background_until_demand_drains(self):
        q, net = one_link()
        sched = TransferScheduler(net, policy="strict")
        times = {}
        submit(sched, "a", "b", SIZE, lambda f: times.setdefault("s", q.now),
                     priority=Priority.STAGING)
        submit(sched, "a", "b", SIZE, lambda f: times.setdefault("d", q.now),
                     priority=Priority.DEMAND)
        assert sched.stats.preempted == 1
        q.run()
        # demand runs alone at line rate; staging resumes afterwards with
        # its progress kept (it ran alone before the demand was admitted)
        assert times["d"] == pytest.approx(1.0, rel=1e-3)
        assert times["s"] == pytest.approx(2.0, rel=1e-3)
        assert sched.stats.resumed == 1

    def test_strict_same_class_flows_share(self):
        q, net = one_link()
        sched = TransferScheduler(net, policy="strict")
        times = {}
        submit(sched, "a", "b", SIZE, lambda f: times.setdefault("s1", q.now),
                     priority=Priority.STAGING)
        submit(sched, "a", "b", SIZE, lambda f: times.setdefault("s2", q.now),
                     priority=Priority.STAGING)
        q.run()
        assert sched.stats.preempted == 0
        assert times["s1"] == pytest.approx(2.0, rel=1e-3)
        assert times["s2"] == pytest.approx(2.0, rel=1e-3)

    def test_strict_disjoint_paths_not_paused(self):
        q = EventQueue()
        net = Network(q)
        net.add_link("a", "b", mbps(100), 0.0)
        net.add_link("c", "d", mbps(100), 0.0)
        sched = TransferScheduler(net, policy="strict")
        times = {}
        submit(sched, "c", "d", SIZE, lambda f: times.setdefault("s", q.now),
                     priority=Priority.STAGING)
        submit(sched, "a", "b", SIZE, lambda f: times.setdefault("d", q.now),
                     priority=Priority.DEMAND)
        q.run()
        assert sched.stats.preempted == 0
        assert times["s"] == pytest.approx(1.0, rel=1e-3)
        assert times["d"] == pytest.approx(1.0, rel=1e-3)

    def test_strict_keeps_admission_order_after_out_of_order_retirement(self):
        q = EventQueue()
        net = Network(q)
        net.add_link("a", "b", mbps(100), 0.0)
        net.add_link("c", "d", mbps(100), 0.0)
        sched = TransferScheduler(net, policy="strict")

        def admit(label, src, dst, size, priority=Priority.STAGING):
            return submit(sched, src, dst, size, lambda f: None, label=label,
                          priority=priority)

        admit("s1", "a", "b", SIZE)
        admit("s2", "c", "d", SIZE // 4)  # half of c-d: retires at 0.5 s
        admit("s3", "c", "d", SIZE)
        q.run_until(0.6)
        admit("d1", "a", "b", SIZE // 4, Priority.DEMAND)
        active = sched.active_handles
        assert [h.label for h in active] == ["s1", "s3", "d1"]
        assert [h.label for h in active if h.flow.paused] == ["s1"]
        q.run()
        assert sched.active_handles == []
        assert (sched.stats.preempted, sched.stats.resumed) == (1, 1)


class TestPromotion:
    def test_promote_rerates_mid_flight(self):
        q, net = one_link()
        sched = TransferScheduler(net, policy="weighted")
        times = {}
        bg = submit(sched, "a", "b", SIZE,
                          lambda f: times.setdefault("bg", q.now),
                          priority=Priority.STAGING)
        submit(sched, "a", "b", SIZE, lambda f: times.setdefault("fg", q.now),
                     priority=Priority.DEMAND)
        # promote the background flow at t=0: both are now DEMAND weight
        assert bg.promote(Priority.DEMAND) is True
        assert bg.priority is Priority.DEMAND
        q.run()
        assert times["bg"] == pytest.approx(2.0, rel=1e-3)
        assert times["fg"] == pytest.approx(2.0, rel=1e-3)

    def test_demote_is_refused(self):
        q, net = one_link()
        sched = TransferScheduler(net, policy="weighted")
        h = submit(sched, "a", "b", SIZE, lambda f: None,
                         priority=Priority.DEMAND)
        assert h.promote(Priority.STAGING) is False
        assert h.priority is Priority.DEMAND
        q.run()


class TestCancellation:
    def test_cancel_suppresses_callbacks(self):
        q, net = one_link()
        sched = TransferScheduler(net)
        fired = []
        h = submit(sched, "a", "b", SIZE, lambda f: fired.append("done"),
                         on_fail=lambda f, e: fired.append("fail"))
        h.cancel()
        q.run()
        assert fired == []
        assert h.state == "cancelled"
        assert sched.stats.cancelled == 1

    def test_cancel_after_completion_is_noop(self):
        q, net = one_link()
        sched = TransferScheduler(net)
        fired = []
        h = submit(sched, "a", "b", 1000, lambda f: fired.append("done"))
        q.run()
        assert fired == ["done"]
        h.cancel()  # must not raise or double-count
        assert h.state == "completed"
        assert sched.stats.cancelled == 0

    def test_cancel_rerates_survivor_to_finish_earlier(self):
        q, net = one_link()
        sched = TransferScheduler(net, policy="off")
        times = {}
        victim = submit(sched, "a", "b", SIZE, lambda f: None)
        submit(sched, "a", "b", SIZE, lambda f: times.setdefault("w", q.now))
        q.schedule(0.5, victim.cancel)
        q.run()
        # 0.5 s at half rate (25% drained) + 0.75 s at full rate
        assert times["w"] == pytest.approx(1.25, rel=1e-3)


class TestLifecycleEvents:
    def test_completed_flow_event_sequence(self):
        q, net = one_link()
        events = []
        sched = TransferScheduler(net)
        sched.on_event = events.append
        submit(sched, "a", "b", SIZE, lambda f: None, label="dl:x:0",
                     priority=Priority.DEMAND)
        q.run()
        kinds = [e.event for e in events]
        assert kinds[0] == "queued"
        assert kinds[1] == "admitted"
        assert kinds[-1] == "completed"
        assert all(e.label == "dl:x:0" for e in events)
        assert all(e.priority == "DEMAND" for e in events)

    def test_rerated_events_on_contention(self):
        q, net = one_link()
        events = []
        sched = TransferScheduler(net)
        sched.on_event = events.append
        submit(sched, "a", "b", SIZE, lambda f: None, label="f1")
        submit(sched, "a", "b", SIZE, lambda f: None, label="f2")
        q.run()
        rerated = [e for e in events if e.event == "rerated"]
        # f1 is re-rated down when f2 is admitted, then up when f2's
        # admission-time share changes at f1's drain
        assert any(e.label == "f1" for e in rerated)

    def test_promoted_and_cancelled_events(self):
        q, net = one_link()
        events = []
        sched = TransferScheduler(net)
        sched.on_event = events.append
        h = submit(sched, "a", "b", SIZE, lambda f: None, label="bg",
                         priority=Priority.STAGING)
        h.promote(Priority.DEMAND)
        h.cancel()
        q.run()
        kinds = [e.event for e in events]
        assert "promoted" in kinds
        assert "cancelled" in kinds


class TestRegistry:
    def test_register_and_duplicate_rejected(self):
        reg = InFlightRegistry()
        reg.register("vs-0-0", "staging", Priority.STAGING)
        assert "vs-0-0" in reg
        with pytest.raises(ValueError):
            reg.register("vs-0-0", "demand", Priority.DEMAND)

    def test_dedup_counter(self):
        reg = InFlightRegistry()
        reg.register("vs-0-0", "staging", Priority.STAGING)
        reg.note_deduped("vs-0-0")
        reg.note_deduped("vs-0-0")
        assert reg.stats.deduped == 2

    def test_promote_fires_hook_once_effective(self):
        reg = InFlightRegistry()
        seen = []
        reg.register("v", "staging", Priority.STAGING,
                     promote_cb=seen.append)
        assert reg.promote("v", Priority.DEMAND) is True
        assert reg.promote("v", Priority.DEMAND) is False  # already there
        assert reg.promote("missing", Priority.DEMAND) is False
        assert seen == [Priority.DEMAND]
        assert reg.stats.promoted == 1

    def test_subscribe_and_complete(self):
        reg = InFlightRegistry()
        reg.register("v", "demand", Priority.DEMAND)
        results = []
        assert reg.subscribe("v", results.append) is True
        reg.complete("v", success=True)
        assert results == [True]
        assert "v" not in reg
        reg.complete("v")  # completing an absent key is a no-op
        assert reg.subscribe("v", results.append) is False

    def test_cancel_calls_hook_and_notifies(self):
        reg = InFlightRegistry()
        torn_down = []
        reg.register("v", "staging", Priority.STAGING,
                     cancel_cb=lambda: torn_down.append(True))
        results = []
        reg.subscribe("v", results.append)
        assert reg.cancel("v") is True
        assert torn_down == [True]
        assert results == [False]
        assert "v" not in reg
        assert reg.cancel("v") is False


class TestLoRSPathsUseScheduler:
    """Every LoRS byte-moving path reports through the scheduler."""

    @pytest.fixture()
    def rig(self):
        q = EventQueue()
        net = build_dumbbell(
            q,
            lan_hosts=["client", "agent", "lan-depot"],
            wan_hosts=["ca1", "ca2"],
        )
        from repro.lon.ibp import Depot
        from repro.lon.lbone import LBone
        from repro.lon.lors import LoRS

        lbone = LBone(net)
        depots = {}
        for name, loc in [("lan-depot", "knoxville"),
                          ("ca1", "california"), ("ca2", "california")]:
            d = Depot(name, q, capacity=1 << 30)
            depots[name] = d
            lbone.register(d, location=loc)
        events = []
        sched = TransferScheduler(net, policy="weighted")
        sched.on_event = events.append
        lors = LoRS(q, net, lbone, scheduler=sched)
        return q, depots, lors, events

    def test_upload_download_augment_emit_events(self, rig):
        q, depots, lors, events = rig
        data = bytes(range(256)) * 64

        up = lors.upload("f", data, "agent", [depots["ca1"], depots["ca2"]],
                         stripe_width=2, block_size=4096)
        q.run()
        assert up.result().is_fully_covered()
        assert any(e.label.startswith("ul:") and e.event == "completed"
                   for e in events)
        assert all(e.priority == "MAINTENANCE" for e in events
                   if e.label.startswith("ul:"))

        exnode = up.result()
        dl = lors.download(exnode, "agent")
        q.run()
        assert dl.result() == data
        assert any(e.label.startswith("dl:") and e.event == "completed"
                   for e in events)
        assert all(e.priority == "DEMAND" for e in events
                   if e.label.startswith("dl:"))

        aug = lors.augment(exnode, depots["lan-depot"])
        q.run()
        assert aug.result()
        assert any(e.label.startswith("copy:") and e.event == "completed"
                   for e in events)
        assert all(e.priority == "STAGING" for e in events
                   if e.label.startswith("copy:"))

    def test_download_job_promotion_rerates_blocks(self, rig):
        q, depots, lors, events = rig
        data = bytes(range(256)) * 256  # 64 KiB
        up = lors.upload("f", data, "agent", [depots["ca1"]],
                         block_size=16384)
        q.run()
        exnode = up.result()
        job = lors.download(exnode, "agent", priority=Priority.PREFETCH)
        q.schedule_in(0.1, lambda: job.promote(Priority.DEMAND))
        q.run()
        assert job.result() == data
        assert job.priority is Priority.DEMAND
        assert any(e.event == "promoted" for e in events)

    def test_download_cancel_via_job(self, rig):
        q, depots, lors, events = rig
        data = bytes(range(256)) * 256
        up = lors.upload("f", data, "agent", [depots["ca1"]],
                         block_size=16384)
        q.run()
        exnode = up.result()
        dl = lors.download(exnode, "agent")
        q.schedule_in(0.1, dl.cancel)
        q.run()
        assert dl.failed
        # no dl: flow may complete after the cancel
        cancel_t = [e.time for e in events if e.event == "cancelled"]
        assert cancel_t  # some block flows were torn down
        assert not any(
            e.event == "completed" and e.label.startswith("dl:")
            and e.time > min(cancel_t)
            for e in events
        )
