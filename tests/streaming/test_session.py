"""Integration tests: full Case 1/2/3 sessions reproduce the paper's shape.

These run the complete stack — trace, client, agent, DVS, LoRS, depots,
staging — over a small lattice with real zlib payloads, and assert the
*qualitative* results of Section 4: Case 1 is the ideal, Case 2 keeps paying
WAN latency, Case 3 converges to Case 1 after an initial phase.
"""

import pytest

from repro.lightfield.lattice import CameraLattice
from repro.lightfield.source import SyntheticSource
from repro.streaming.metrics import AccessSource
from repro.streaming.session import SessionConfig, build_rig, run_session


@pytest.fixture(scope="module")
def source():
    lattice = CameraLattice(n_theta=12, n_phi=24, l=3)  # 4x8 view sets
    return SyntheticSource(lattice, resolution=64)


@pytest.fixture(scope="module")
def results(source):
    out = {}
    for case in (1, 2, 3):
        out[case] = run_session(
            source,
            SessionConfig(case=case, n_accesses=30, trace_seed=11),
        )
    return out


class TestSessionShape:
    def test_every_access_recorded(self, results):
        for case, m in results.items():
            assert len(m.accesses) == 30, f"case {case}"

    def test_case1_never_touches_wan(self, results):
        assert results[1].wan_rate() == 0.0

    def test_case2_touches_wan(self, results):
        assert results[2].wan_rate() > 0.0

    def test_case3_has_initial_phase_then_goes_local(self, results):
        m = results[3]
        phase = m.initial_phase_length()
        assert phase < len(m.accesses)
        # after the initial phase, nothing comes from the WAN
        tail = [a for a in m.accesses if a.index > phase]
        assert all(
            a.source not in (AccessSource.WAN_DEPOT,
                             AccessSource.SERVER_RUNTIME)
            for a in tail
        )

    def test_case3_steady_state_matches_case1(self, results):
        """The headline: with a LAN depot, WAN browsing feels local."""
        m1, m3 = results[1], results[3]
        steady3 = m3.mean_latency(skip=m3.initial_phase_length())
        steady1 = m1.mean_latency(skip=1)
        assert steady3 < steady1 * 5  # same order of magnitude
        assert steady3 < 0.5          # and absolutely fast

    def test_case2_mean_worse_than_case1(self, results):
        assert results[2].mean_latency() > results[1].mean_latency()

    def test_case3_stages_the_database(self, results):
        assert results[3].staged_count > 0

    def test_comm_latency_tiers_span_decades(self, results):
        """Figure 12: hits ~1e-4, LAN depot ~1e-2..1e-1, WAN ~1e0."""
        m = results[2]
        hits = [a.comm_latency for a in m.accesses
                if a.source is AccessSource.AGENT_CACHE]
        wans = [a.comm_latency for a in m.accesses
                if a.source is AccessSource.WAN_DEPOT]
        assert hits and wans
        assert max(hits) < 0.001
        assert min(wans) > 0.05
        assert min(wans) / max(hits) > 100  # decades apart

    def test_decompression_recorded_for_fetches(self, results):
        m = results[2]
        fetched = [a for a in m.accesses
                   if a.source is not AccessSource.CLIENT_RESIDENT]
        assert any(a.decompress_seconds > 0 for a in fetched)


class TestSessionKnobs:
    def test_invalid_case_rejected(self):
        with pytest.raises(ValueError):
            SessionConfig(case=4)

    def test_no_prefetch_is_worse(self, source):
        base = run_session(
            source, SessionConfig(case=2, n_accesses=25, trace_seed=5)
        )
        nopf = run_session(
            source,
            SessionConfig(case=2, n_accesses=25, trace_seed=5,
                          prefetch_policy="none"),
        )
        assert nopf.hit_rate() <= base.hit_rate()
        assert nopf.wan_rate() >= base.wan_rate()

    def test_cpu_seconds_per_byte_inflates_latency(self, source):
        slow = run_session(
            source,
            SessionConfig(
                case=1, n_accesses=15, trace_seed=5,
                cpu_seconds_per_byte=50 * SessionConfig().cpu_seconds_per_byte),
        )
        fast = run_session(
            source, SessionConfig(case=1, n_accesses=15, trace_seed=5),
        )
        assert slow.mean_latency() > fast.mean_latency()

    def test_deterministic_sessions(self, source):
        a = run_session(
            source, SessionConfig(case=2, n_accesses=15, trace_seed=9)
        )
        b = run_session(
            source, SessionConfig(case=2, n_accesses=15, trace_seed=9)
        )
        # network/sim components are deterministic; only the real-measured
        # decompression wall time varies between runs
        assert [x.source for x in a.accesses] == [
            x.source for x in b.accesses
        ]
        assert a.comm_latency_series() == b.comm_latency_series()

    def test_rig_exposes_components(self, source):
        rig = build_rig(source, SessionConfig(case=3))
        assert rig.staging is not None
        assert rig.client_agent.node == "agent"
        assert len(rig.wan_depots) == 3
        assert len(rig.lan_depots) == 4
        rig2 = build_rig(source, SessionConfig(case=1))
        assert rig2.staging is None
