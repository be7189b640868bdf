"""Unit tests for DVS, pre-distribution, client agent, staging and policies."""

import pytest

from repro.lightfield.lattice import CameraLattice
from repro.lightfield.source import SyntheticSource
from repro.lon.exnode import ExNode, Extent, Mapping
from repro.lon.ibp import Capability, CapType
from repro.streaming.agent import HIT_LATENCY
from repro.streaming import dvs as dvs_module
from repro.streaming.dvs import DVSServer
from repro.streaming.metrics import AccessSource
from repro.streaming.prefetch import (
    AllNeighborsPolicy,
    NoPrefetchPolicy,
    QuadrantPolicy,
    policy_by_name,
)
from repro.streaming.session import SessionConfig, build_rig, pre_distribute

from .reference_rig import forget


def tiny_source(resolution=24):
    lattice = CameraLattice(n_theta=6, n_phi=12, l=3)  # 2x4 view sets
    return SyntheticSource(lattice, resolution=resolution)


def make_exnode(vid="vs-0-0", depot="d1", length=100):
    return ExNode(
        name=vid,
        length=length,
        mappings=[
            Mapping(
                extent=Extent(0, length),
                read_cap=Capability(depot, "k1", CapType.READ),
            )
        ],
    )


class TestDVS:
    def test_query_returns_registered_exnode(self):
        dvs = DVSServer()
        ex = make_exnode()
        dvs.register_exnode("vs-0-0", ex)
        result = dvs.query("vs-0-0")
        assert result.exnodes == [ex]

    def test_replicas_accumulate(self):
        dvs = DVSServer()
        dvs.register_exnode("vs-0-0", make_exnode(depot="d1"))
        dvs.register_exnode("vs-0-0", make_exnode(depot="d2"))
        assert len(dvs.query("vs-0-0").exnodes) == 2

    def test_hierarchical_lookup_delay_scales_with_levels(self, monkeypatch):
        ex = make_exnode()
        delays = []
        for levels in (1, 4):
            monkeypatch.setattr(dvs_module, "LEVELS", levels)
            dvs = DVSServer()
            dvs.register_exnode("vs-0-0", ex)
            delays.append(dvs.query("vs-0-0").lookup_delay)
        assert delays[1] > delays[0]


class TestPolicies:
    def test_policy_by_name(self):
        assert isinstance(policy_by_name("quadrant"), QuadrantPolicy)
        assert isinstance(policy_by_name("all-neighbors"), AllNeighborsPolicy)
        assert isinstance(policy_by_name("none"), NoPrefetchPolicy)
        with pytest.raises(ValueError):
            policy_by_name("bogus")

    def test_quadrant_returns_at_most_three(self):
        lat = CameraLattice(12, 24, 3)
        p = QuadrantPolicy()
        assert 1 <= len(p.targets(lat, *lat.locate(1.0, 1.0))) <= 3

    def test_all_neighbors_superset_of_quadrant(self):
        lat = CameraLattice(12, 24, 3)
        key, quadrant = lat.locate(1.2, 2.3)
        q = set(QuadrantPolicy().targets(lat, key, quadrant))
        a = set(AllNeighborsPolicy().targets(lat, key, quadrant))
        assert q == set(lat.quadrant_side(*lat.locate(1.2, 2.3)))
        assert q <= a

    def test_none_is_empty(self):
        lat = CameraLattice(12, 24, 3)
        assert NoPrefetchPolicy().targets(lat, *lat.locate(1.0, 1.0)) == []


class TestServerAgent:
    """Pre-distribution: every view set is placed and registered with the
    DVS before a session starts."""

    def test_pre_distribute_registers_everything(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=2))
        rows, cols = src.lattice.n_viewsets
        placed = pre_distribute(rig.lors, DVSServer(), src, rig.wan_depots,
                                stripe_width=3, block_size=1 << 20)
        assert len(placed) == rows * cols
        assert all(rig.dvs.query(src.lattice.viewset_id(key)).exnodes
                   for key in src.lattice.all_viewsets())

    def test_pre_distribute_stripes_across_wan_depots(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=2, block_size=4096))
        vid = "vs-0-0"
        ex = rig.dvs.query(vid).exnodes[0]
        assert len(ex.depots()) > 1  # striped
        assert all(d.startswith("ca-depot") for d in ex.depots())

    def test_case1_places_on_lan(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=1))
        vid = "vs-0-0"
        ex = rig.dvs.query(vid).exnodes[0]
        assert all(d.startswith("lan-depot") for d in ex.depots())


class TestClientAgent:
    def test_cache_hit_latency(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=2))
        agent = rig.client_agent
        vid = "vs-0-0"
        results = []
        agent.request(vid, lambda p, s, c: results.append((s, c)))
        rig.queue.run()
        # second request: a hit at HIT_LATENCY
        agent.request(vid, lambda p, s, c: results.append((s, c)))
        rig.queue.run()
        assert results[0][0] is AccessSource.WAN_DEPOT
        assert results[1][0] is AccessSource.AGENT_CACHE
        assert results[1][1] == pytest.approx(HIT_LATENCY)

    def test_duplicate_requests_coalesce(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=2))
        agent = rig.client_agent
        results = []
        agent.request("vs-0-0", lambda p, s, c: results.append(1))
        agent.request("vs-0-0", lambda p, s, c: results.append(2))
        rig.queue.run()
        assert sorted(results) == [1, 2]
        assert agent.stats.coalesced == 1
        assert agent.stats.wan_fetches == 1  # one download served both

    def test_lru_eviction_respects_budget(self):
        src = tiny_source()
        payload_len = len(src.payload((0, 0)))
        rig = build_rig(
            src,
            SessionConfig(case=2, agent_cache_bytes=payload_len + 10),
        )
        agent = rig.client_agent
        agent.request("vs-0-0", lambda *a: None)
        rig.queue.run()
        agent.request("vs-0-1", lambda *a: None)
        rig.queue.run()
        assert "vs-0-0" not in agent._payloads  # evicted
        assert "vs-0-1" in agent._payloads
        assert agent.stats.evictions >= 1

    def test_a_view_set_the_dvs_lacks_fails_by_name(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=2))
        agent = rig.client_agent
        vid = "vs-0-1"
        forget(rig.dvs, vid)
        agent.prefetch([(0, 1)])
        rig.queue.run()
        assert vid not in agent._flights
        assert vid not in agent.registry
        agent.request(vid, lambda *a: None)
        with pytest.raises(RuntimeError, match=vid):
            rig.queue.run()
        assert vid not in agent._flights
        assert vid not in agent.registry

    def test_prefetch_marks_and_counts(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=2))
        agent = rig.client_agent
        agent.prefetch([(0, 0)])
        rig.queue.run()
        assert agent.stats.prefetches_issued == 1
        got = []
        agent.request("vs-0-0", lambda p, s, c: got.append(s))
        rig.queue.run()
        assert got[0] is AccessSource.AGENT_CACHE
        assert agent.stats.prefetch_hits == 1


class TestStaging:
    def test_staging_localizes_whole_database(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=3))
        rig.staging.start()
        rig.queue.run_until(400.0)
        assert rig.staging.complete
        rows, cols = src.lattice.n_viewsets
        assert rig.staging.stats.staged == rows * cols
        # LAN depot now holds every staged byte
        assert rig.lan_depots[0].used > 0

    def test_a_view_set_the_dvs_lacks_is_given_up_once(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=3))
        vid = "vs-1-2"
        assert forget(rig.dvs, vid) > 0
        queried = []
        query = rig.dvs.query

        def counting_query(v):
            queried.append(v)
            return query(v)

        rig.dvs.query = counting_query
        rig.staging.start()
        rig.queue.run_until(400.0)
        assert rig.staging.complete
        assert queried.count(vid) == 1
        rows, cols = src.lattice.n_viewsets
        assert rig.staging.stats.staged == rows * cols - 1
        assert rig.staging.stats.failed == 1
        assert len(rig.staging.registry) == 0

    def test_staged_requests_served_from_lan(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=3))
        rig.staging.start()
        rig.queue.run_until(400.0)
        got = []
        rig.client_agent.request("vs-0-0", lambda p, s, c: got.append((s, c)))
        rig.queue.run_until(500.0)
        source, comm = got[0]
        assert source is AccessSource.LAN_DEPOT
        assert comm < 0.1  # Figure 12's LAN-depot band

    def test_proximity_order_stages_near_cursor_first(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=3, staging_concurrency=1))
        rig.staging.update_cursor((1, 3))
        rig.staging.start()
        # run just long enough for the first few copies
        rig.queue.run_until(3.0)
        staged_vids = list(rig.staging._done)
        if staged_vids:
            from repro.lightfield.lattice import parse_viewset_id
            dists = [
                src.lattice.viewset_distance((1, 3), parse_viewset_id(v))
                for v in staged_vids
            ]
            assert min(dists) == 0.0  # the cursor's own view set went first

    def test_staged_allocations_are_soft(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=3))
        rig.staging.start()
        rig.queue.run_until(400.0)
        depot = rig.lan_depots[0]
        live = [a for a in depot._allocs.values() if a.live(rig.queue.now)]
        assert live
        assert all(a.soft for a in live)

    def test_fifo_order_option(self):
        src = tiny_source()
        rig = build_rig(
            src, SessionConfig(case=3, staging_order="fifo")
        )
        rig.staging.start()
        rig.queue.run_until(400.0)
        assert rig.staging.complete

    def test_validation(self):
        src = tiny_source()
        rig = build_rig(src, SessionConfig(case=3))
        from repro.streaming.staging import StagingPump

        with pytest.raises(ValueError):
            StagingPump(
                rig.queue, rig.lors, rig.dvs, rig.client_agent,
                rig.lan_depots[0], src.lattice, order="random",
            )
        with pytest.raises(ValueError):
            StagingPump(
                rig.queue, rig.lors, rig.dvs, rig.client_agent,
                rig.lan_depots[0], src.lattice, max_concurrent=0,
            )
