"""Cross-layer transfer-scheduling tests: dedup, promotion, cancellation.

These exercise the shared in-flight registry that the client agent, the
prefetcher and the staging pump all register with, plus the per-path
lifecycle events the session metrics record.
"""

from collections import Counter

import pytest

from repro.lightfield.lattice import CameraLattice, parse_viewset_id
from repro.lightfield.source import SyntheticSource
from repro.lon.scheduler import Priority
from repro.streaming import agent as agent_module
from repro.streaming.metrics import AccessSource
from repro.streaming.session import SessionConfig, build_rig, run_session


def tiny_source(resolution=24):
    lattice = CameraLattice(n_theta=6, n_phi=12, l=3)  # 2x4 view sets
    return SyntheticSource(lattice, resolution=resolution)


def advance_until(queue, pred, step=0.05, limit=60.0):
    """Run the sim in small slices until ``pred()`` holds (or give up)."""
    deadline = queue.now + limit
    while queue.now < deadline:
        if pred():
            return True
        queue.run_until(queue.now + step)
    return pred()


class TestCrossLayerDedup:
    def test_prefetch_skips_viewset_already_staging(self):
        """Agent prefetch of a vid the pump is copying is suppressed."""
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=3))
        reg = rig.lors.scheduler.registry
        rig.staging.start()
        assert advance_until(
            rig.queue, lambda: rig.staging._in_flight
        )
        vid = min(rig.staging._in_flight)
        key = parse_viewset_id(vid)
        assert reg._entries[vid].kind == "staging"
        rig.client_agent.prefetch([key])
        assert rig.client_agent.stats.deduped == 1
        assert reg.stats.deduped >= 1
        # the agent holds no flight of its own for the vid
        assert vid not in rig.client_agent._flights

    def test_staging_skips_viewset_already_prefetching(self):
        """The pump requeues (not re-copies) a vid the agent is fetching."""
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=3))
        reg = rig.lors.scheduler.registry
        agent = rig.client_agent
        agent.prefetch([(0, 0)])
        vid = src.lattice.viewset_id((0, 0))
        assert advance_until(rig.queue, lambda: vid in reg, limit=10.0)
        assert reg._entries[vid].kind == "prefetch"
        # make (0, 0) the pump's next pick, then let it collide
        rig.staging.update_cursor((0, 0))
        rig.staging.start()
        assert advance_until(
            rig.queue, lambda: rig.staging.stats.deduped > 0, limit=10.0
        )
        # exactly one party moved the bytes across the WAN
        assert agent.stats.wan_fetches <= 1
        rig.queue.run_until(rig.queue.now + 120.0)
        assert vid in agent._payloads

    def test_overlap_produces_single_wan_fetch(self):
        """Regression: demand + staging overlap must not double-fetch."""
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=3))
        rig.staging.start()
        assert advance_until(
            rig.queue, lambda: rig.staging._in_flight
        )
        vid = min(rig.staging._in_flight)
        key = parse_viewset_id(vid)
        got = []
        rig.client_agent.request(
            vid, lambda p, s, c: got.append((p, s, c))
        )
        assert rig.client_agent.stats.deduped == 1
        rig.queue.run_until(rig.queue.now + 120.0)
        assert got, "demand request never completed"
        payload, source, _comm = got[0]
        assert payload == src.payload(key)
        # served via the staged LAN replica: the agent itself never
        # touched the WAN for this vid
        assert source is AccessSource.LAN_DEPOT
        assert rig.client_agent.stats.wan_fetches == 0


class TestPromotion:
    def test_demand_promotes_inflight_staging_without_refetch(self):
        """Acceptance: a demand for a vid in flight as STAGING is promoted
        to DEMAND and completes without restarting the download."""
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=3))
        reg = rig.lors.scheduler.registry
        rig.staging.start()
        assert advance_until(
            rig.queue, lambda: rig.staging._in_flight
        )
        vid = min(rig.staging._in_flight)
        key = parse_viewset_id(vid)
        got = []
        rig.client_agent.request(vid, lambda p, s, c: got.append(p))
        # promoted in place — same registry entry, now DEMAND-hot
        assert reg.stats.promoted == 1
        assert rig.client_agent.stats.promoted == 1
        assert reg._entries[vid].priority is Priority.DEMAND
        assert rig.staging.stats.promoted == 1
        rig.queue.run_until(rig.queue.now + 120.0)
        assert got and got[0] == src.payload(key)
        # the staged copy landed (it was not cancelled/restarted) and the
        # agent never opened its own WAN download for the vid
        assert rig.staging.stats.cancelled == 0
        assert rig.client_agent.stats.wan_fetches == 0

    def test_demand_promotes_inflight_prefetch(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=2))
        agent = rig.client_agent
        reg = rig.lors.scheduler.registry
        vid = src.lattice.viewset_id((0, 0))
        agent.request(vid, lambda *a: None, prefetch=True)
        got = []
        agent.request(vid, lambda p, s, c: got.append(p))
        assert agent.stats.coalesced == 1
        assert agent.stats.promoted == 1
        assert reg._entries[vid].priority is Priority.DEMAND
        assert agent._flights[vid].priority is Priority.DEMAND
        rig.queue.run()
        assert got and got[0] == src.payload((0, 0))
        assert agent.stats.wan_fetches == 1  # one download served both


class TestRetargetCancellation:
    def test_cursor_move_cancels_stale_prefetch(self, monkeypatch):
        monkeypatch.setattr(agent_module, "PREFETCH_CANCEL_BEYOND", 0)
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=2))
        agent = rig.client_agent
        reg = rig.lors.scheduler.registry
        agent.prefetch([(1, 2)])
        vid = src.lattice.viewset_id((1, 2))
        assert advance_until(rig.queue, lambda: vid in reg, limit=10.0)
        agent.retarget((0, 0))
        assert vid not in reg
        assert agent.stats.cancelled == 1
        rig.queue.run_until(rig.queue.now + 60.0)
        assert vid not in agent._payloads


class TestPerPathRouting:
    """Every view-set byte-moving path reports through the scheduler."""

    def test_session_transfer_events_cover_all_paths(self):
        src = tiny_source()
        cfg = SessionConfig(case=3, n_accesses=10)
        metrics = run_session(src, cfg)
        labels = [e.label for e in metrics.transfer_events]
        for path in ("dl:",            # agent downloads
                     "copy:",          # staging copies
                     "to-client:"):    # agent->console
            assert any(label.startswith(path) for label in labels)
        counts = Counter(e.event for e in metrics.transfer_events)
        assert counts["queued"] == counts["admitted"] + counts.get(
            "cancelled", 0
        )
        assert counts.get("completed", 0) > 0
        assert metrics.scheduling_policy == "weighted"

    def test_streaming_never_calls_network_transfer_directly(self):
        """Static check: flows for view-set data are scheduler-made."""
        import inspect

        from repro.streaming import agent, client, prefetch, session, staging

        for mod in (agent, client, prefetch, session, staging):
            source = inspect.getsource(mod)
            assert ".transfer(" not in source, (
                f"{mod.__name__} bypasses the TransferScheduler"
            )

    def test_policy_knob_validated_and_ablatable(self):
        src = tiny_source()
        with pytest.raises(ValueError):
            SessionConfig(case=2, scheduling_policy="fifo")
        m_off = run_session(
            src, SessionConfig(case=2, n_accesses=6,
                               scheduling_policy="off")
        )
        assert m_off.scheduling_policy == "off"
        assert len(m_off.accesses) > 0

    def test_dedup_and_promotion_reach_session_summary(self):
        src = tiny_source()
        metrics = run_session(src, SessionConfig(case=3, n_accesses=12))
        summary = metrics.summary()
        assert summary["scheduling"] == "weighted"
        for k in ("deduped", "promoted", "cancelled"):
            assert isinstance(summary[k], int)
