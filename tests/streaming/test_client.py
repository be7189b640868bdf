"""Focused tests for the client console's residency and access logic."""

import numpy as np
import pytest

from repro.lightfield.compression import codec_for_payload
from repro.lightfield.lattice import CameraLattice
from repro.lightfield.source import SyntheticSource
from repro.lightfield.viewset import ViewSet
from repro.streaming import client as client_module
from repro.streaming.metrics import AccessSource
from repro.streaming.session import SessionConfig, build_rig, run_session
from repro.streaming.trace import CursorSample, CursorTrace

from .reference_rig import resident_keys


@pytest.fixture()
def rig():
    lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
    source = SyntheticSource(lattice, resolution=32)
    return build_rig(source, SessionConfig(case=1, n_accesses=5))


def samples_for_keys(lattice, keys, period=1.0):
    """A trace visiting the center of each view set in order."""
    out = []
    for i, key in enumerate(keys):
        theta, phi = lattice.viewset_center(key)
        out.append(CursorSample(time=i * period, theta=theta, phi=phi))
    return CursorTrace(samples=out)


class TestClientResidency:
    def test_revisit_within_capacity_is_resident(self, rig):
        lattice = rig.client.lattice
        trace = samples_for_keys(lattice, [(0, 0), (0, 1), (0, 0)],
                                 period=3.0)
        rig.client.schedule_trace(trace)
        rig.queue.run_until(60.0)
        sources = [a.source for a in rig.metrics.accesses]
        assert sources[2] is AccessSource.CLIENT_RESIDENT

    def test_eviction_beyond_capacity(self, monkeypatch):
        monkeypatch.setattr(client_module, "RESIDENT_CAPACITY", 1)
        lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
        source = SyntheticSource(lattice, resolution=32)
        rig = build_rig(source, SessionConfig(case=1))
        trace = samples_for_keys(
            lattice, [(0, 0), (0, 1), (0, 0)], period=3.0
        )
        rig.client.schedule_trace(trace)
        rig.queue.run_until(60.0)
        # capacity 1: revisiting (0,0) after (0,1) cannot be resident
        sources = [a.source for a in rig.metrics.accesses]
        assert sources[2] is not AccessSource.CLIENT_RESIDENT

    def test_resident_provider_protocol(self, rig):
        lattice = rig.client.lattice
        trace = samples_for_keys(lattice, [(1, 2)])
        rig.client.schedule_trace(trace)
        rig.queue.run_until(60.0)
        vs = rig.client.get_resident((1, 2))
        assert vs is not None
        assert vs.key == (1, 2)
        assert rig.client.get_resident((0, 5)) is None

    def test_validation(self):
        lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
        source = SyntheticSource(lattice, resolution=32)
        with pytest.raises(ValueError):
            build_rig(source,
                      SessionConfig(case=1, cpu_seconds_per_byte=-1e-9))
        # free inflation is a legal model
        build_rig(source, SessionConfig(case=1, cpu_seconds_per_byte=0.0))


class TestDecodeOnDemand:
    """The console holds payloads; pixels exist only once asked for."""

    def test_get_resident_decodes_once_and_keeps_the_object(self, rig):
        lattice = rig.client.lattice
        rig.client.schedule_trace(samples_for_keys(lattice, [(1, 2)]))
        rig.queue.run_until(60.0)
        first = rig.client.get_resident((1, 2))
        assert rig.client.get_resident((1, 2)) is first
        # the rig's source is seeded: an equal one makes the same payload
        payload = SyntheticSource(lattice, resolution=32).payload((1, 2))
        expected, _ = codec_for_payload(payload).decompress(payload)
        assert np.array_equal(first.images, expected.images)

    def test_eviction_drops_payloads_that_were_never_decoded(
            self, monkeypatch):
        inflated = []

        def counting(payload):
            inflated.append(len(payload))
            return codec_for_payload(payload)

        monkeypatch.setattr(client_module, "codec_for_payload", counting)
        lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
        source = SyntheticSource(lattice, resolution=32)
        rig = build_rig(source, SessionConfig(case=1))
        rig.client.schedule_trace(samples_for_keys(
            lattice, [(0, 0), (0, 1), (0, 2)], period=3.0))
        rig.queue.run_until(60.0)
        assert resident_keys(rig.client) == [(0, 1), (0, 2)]
        assert rig.client.get_resident((0, 0)) is None
        assert inflated == []
        assert rig.client.get_resident((0, 2)).key == (0, 2)
        assert len(inflated) == 1

    def test_reading_pixels_does_not_move_simulated_time(self):
        """A run whose every cursor sample reads the current pixels fires
        the same events at the same times as one that never decodes."""
        lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
        source = SyntheticSource(lattice, resolution=32)

        def run(read_pixels: bool):
            decoded, rigs = [], []

            def hook(rig):
                rigs.append(rig)
                if read_pixels:
                    rig.client.on_cursor = lambda key: decoded.append(
                        rig.client.get_resident(key))

            m = run_session(source, SessionConfig(case=1, n_accesses=12),
                            rig_hook=hook)
            return ([a.total_latency.hex() for a in m.accesses],
                    rigs[0].queue.fired_total, decoded)

        plain, reading = run(False), run(True)
        assert reading[:2] == plain[:2]
        assert any(isinstance(vs, ViewSet) for vs in reading[2])


class TestAccessAccounting:
    def test_reentry_during_fetch_records_both_accesses(self):
        """Crossing out and back while the fetch is in flight yields two
        records that complete together."""
        lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
        source = SyntheticSource(lattice, resolution=32)
        # artificially slow the WAN so the first fetch is still in flight
        rig = build_rig(
            source,
            SessionConfig(case=2, tcp_window=8 * 1024),
        )
        trace = samples_for_keys(
            lattice, [(1, 2), (1, 3), (1, 2)], period=0.05
        )
        rig.client.schedule_trace(trace)
        rig.queue.run_until(300.0)
        by_vid = {}
        for a in rig.metrics.accesses:
            by_vid.setdefault(a.viewset_id, []).append(a)
        assert len(by_vid["vs-1-2"]) == 2
        first, second = sorted(by_vid["vs-1-2"], key=lambda a: a.index)
        # the re-entry waited less (the fetch was already under way)
        assert second.total_latency <= first.total_latency + 1e-9

    def test_decompress_time_positive_for_fetches(self, rig):
        lattice = rig.client.lattice
        trace = samples_for_keys(lattice, [(0, 2)])
        rig.client.schedule_trace(trace)
        rig.queue.run_until(60.0)
        rec = rig.metrics.accesses[0]
        assert rec.decompress_seconds > 0
        assert rec.total_latency >= rec.decompress_seconds

    def test_quadrant_prefetch_issued_once_per_quadrant(self):
        lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
        source = SyntheticSource(lattice, resolution=32)
        rig = build_rig(source, SessionConfig(case=1))
        theta, phi = lattice.viewset_center((1, 2))
        # several samples strictly inside one quadrant (the +0.001 offset
        # keeps the cursor off the exact center line)
        trace = CursorTrace(samples=[
            CursorSample(time=0.1 * i, theta=theta + 0.001 * (i + 1),
                         phi=phi)
            for i in range(5)
        ])
        rig.client.schedule_trace(trace)
        rig.queue.run_until(60.0)
        # one quadrant -> at most one prefetch volley (3 targets)
        assert rig.metrics.prefetch_issued <= 3


class TestCursorPath:
    """One lattice lookup per sample; the policy sees (key, quadrant)."""

    @staticmethod
    def _walk(lattice):
        """Eight samples drifting across quadrants of (1, 2) and beyond."""
        theta, phi = lattice.viewset_center((1, 2))
        step = 0.4 * lattice.theta_step
        return CursorTrace(samples=[
            CursorSample(time=0.5 * i, theta=theta + step * (i - 3),
                         phi=phi + step * i)
            for i in range(8)
        ])

    def test_one_index_computation_per_sample(self, rig, monkeypatch):
        calls = []
        scalar_index = CameraLattice.scalar_index

        def counting(self, theta, phi):
            calls.append((theta, phi))
            return scalar_index(self, theta, phi)

        trace = self._walk(rig.client.lattice)
        monkeypatch.setattr(CameraLattice, "scalar_index", counting)
        rig.client.schedule_trace(trace)
        rig.queue.run_until(60.0)
        assert calls == [(s.theta, s.phi) for s in trace]
        assert rig.metrics.prefetch_issued > 0

    def test_policy_receives_the_located_key_and_quadrant(self, rig):
        seen = []

        class Recording:
            name = "recording"

            def targets(self, lattice, key, quadrant):
                seen.append((key, quadrant))
                return []

        lattice = rig.client.lattice
        trace = self._walk(lattice)
        rig.client.policy = Recording()
        rig.client.schedule_trace(trace)
        rig.queue.run_until(60.0)
        located = [lattice.locate(s.theta, s.phi) for s in trace]
        # consulted on every (view set, quadrant) change, and only then
        changes = [loc for prev, loc in zip([None] + located, located)
                   if loc != prev]
        assert seen == changes and len(seen) > 1

    def test_untraced_decision_formats_no_span_attributes(
            self, rig, monkeypatch):
        from repro.obs.tracer import NULL_TRACER

        def boom(*args, **kwargs):
            raise AssertionError("instant() reached on the untraced path")

        monkeypatch.setattr(NULL_TRACER, "instant", boom)
        assert rig.client.tracer is NULL_TRACER
        rig.client.schedule_trace(self._walk(rig.client.lattice))
        rig.queue.run_until(60.0)
        assert rig.metrics.prefetch_issued > 0
