"""Tests for the time-varying extension (Section 5 future work)."""

import pytest

from repro.lightfield.lattice import CameraLattice
from repro.lightfield.source import SyntheticSource
from repro.streaming.client import CPU_SECONDS_PER_BYTE
from repro.streaming.metrics import AccessSource, SessionMetrics
from repro.streaming.session import SessionConfig, build_rig
from repro.streaming.timevarying import (
    TemporalClient,
    TimeVaryingSource,
    parse_temporal_vid,
    temporal_vid,
)
from repro.streaming.trace import CursorSample, CursorTrace


@pytest.fixture(scope="module")
def lattice():
    return CameraLattice(n_theta=6, n_phi=12, l=3)


@pytest.fixture(scope="module")
def tv_source(lattice):
    return TimeVaryingSource([
        SyntheticSource(lattice, resolution=32, seed=100 + t)
        for t in range(3)
    ])


def make_rig(tv_source, **cfg):
    """Wire a temporal session on the standard rig's fabric."""
    base = tv_source.sources[0]
    rig = build_rig(base, SessionConfig(case=2, **cfg))
    # wipe the single-timestep distribution; install the temporal one
    for vid in rig.dvs.known_viewsets():
        rig.dvs.unregister(vid)
    tv_source.distribute(rig.lors, rig.wan_depots, rig.dvs)
    metrics = SessionMetrics(case_name="temporal", resolution=32)
    client = TemporalClient(
        node="client", queue=rig.queue, network=rig.network,
        agent=rig.client_agent, source=tv_source, metrics=metrics,
        playback_period=5.0,
    )
    return rig, client, metrics


class TestTemporalIds:
    def test_roundtrip(self, lattice):
        vid = temporal_vid(4, lattice, (1, 2))
        assert vid == "t4:vs-1-2"
        assert parse_temporal_vid(vid) == (4, (1, 2))

    def test_negative_timestep_rejected(self, lattice):
        with pytest.raises(ValueError):
            temporal_vid(-1, lattice, (0, 0))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_temporal_vid("vs-1-2")
        with pytest.raises(ValueError):
            parse_temporal_vid("tX:vs-1-2")


class TestTimeVaryingSource:
    def test_timesteps_have_distinct_content(self, tv_source):
        a = tv_source.payload(0, (0, 0))
        b = tv_source.payload(1, (0, 0))
        assert a != b

    def test_out_of_range_timestep(self, tv_source):
        with pytest.raises(IndexError):
            tv_source.payload(9, (0, 0))

    def test_payload_for_vid(self, tv_source, lattice):
        vid = temporal_vid(2, lattice, (1, 1))
        assert tv_source.payload_for_vid(vid) == tv_source.payload(2, (1, 1))

    def test_mismatched_sources_rejected(self, lattice):
        other = CameraLattice(n_theta=12, n_phi=24, l=3)
        with pytest.raises(ValueError):
            TimeVaryingSource([
                SyntheticSource(lattice, resolution=32),
                SyntheticSource(other, resolution=32),
            ])
        with pytest.raises(ValueError):
            TimeVaryingSource([])


class TestTemporalSession:
    def test_playback_advances_and_accesses(self, tv_source, lattice):
        rig, client, metrics = make_rig(tv_source)
        theta, phi = lattice.viewset_center((1, 2))
        client.schedule_trace(CursorTrace(samples=[
            CursorSample(0.0, theta, phi),
        ]))
        client.start_playback()
        rig.queue.run_until(60.0)
        assert client.timestep == tv_source.n_timesteps - 1
        # one access per (viewset, timestep) pair the display needed
        vids = [a.viewset_id for a in metrics.accesses]
        assert vids[0] == "t0:vs-1-2"
        assert "t1:vs-1-2" in vids
        assert "t2:vs-1-2" in vids
        # arriving bytes are priced as the static client prices them
        assert metrics.accesses[0].decompress_seconds == (
            len(tv_source.payload(0, (1, 2))) * CPU_SECONDS_PER_BYTE)

    def test_temporal_prefetch_hides_animation_latency(self, tv_source,
                                                       lattice):
        """With next-timestep prefetch, timestep flips are agent-cache hits."""
        rig, client, metrics = make_rig(tv_source)
        theta, phi = lattice.viewset_center((1, 2))
        client.schedule_trace(CursorTrace(samples=[
            CursorSample(0.0, theta, phi),
        ]))
        client.start_playback()
        rig.queue.run_until(60.0)
        later = [a for a in metrics.accesses
                 if a.viewset_id.startswith(("t1:", "t2:"))]
        assert later
        assert all(
            a.source in (AccessSource.AGENT_CACHE,
                         AccessSource.CLIENT_RESIDENT)
            for a in later
        )

    def test_without_temporal_prefetch_flips_pay_wan(self, tv_source,
                                                     lattice):
        rig, client, metrics = make_rig(tv_source)
        client.prefetch_temporal = False
        client.prefetch_spatial = False
        theta, phi = lattice.viewset_center((1, 2))
        client.schedule_trace(CursorTrace(samples=[
            CursorSample(0.0, theta, phi),
        ]))
        client.start_playback()
        rig.queue.run_until(60.0)
        later = [a for a in metrics.accesses
                 if a.viewset_id.startswith(("t1:", "t2:"))]
        assert later
        assert any(a.source is AccessSource.WAN_DEPOT for a in later)

    def test_cursor_and_playback_compose(self, tv_source, lattice):
        rig, client, metrics = make_rig(tv_source)
        th1, ph1 = lattice.viewset_center((1, 2))
        th2, ph2 = lattice.viewset_center((1, 3))
        client.schedule_trace(CursorTrace(samples=[
            CursorSample(0.0, th1, ph1),
            CursorSample(7.0, th2, ph2),   # move after one timestep flip
        ]))
        client.start_playback()
        rig.queue.run_until(90.0)
        vids = {a.viewset_id for a in metrics.accesses}
        assert "t0:vs-1-2" in vids
        assert any(v.endswith("vs-1-3") for v in vids)

    def test_validation(self, tv_source):
        rig, client, metrics = make_rig(tv_source)
        with pytest.raises(ValueError):
            TemporalClient(
                node="client", queue=rig.queue, network=rig.network,
                agent=rig.client_agent, source=tv_source, metrics=metrics,
                playback_period=0.0,
            )
