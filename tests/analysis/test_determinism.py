"""A seeded session replays bit for bit, and a replay check has teeth.

Each run records every fired event and every transfer-lifecycle record
through ``attach_stream_collectors``; two runs of one seeded scenario must
record the same streams.  A wall-clock leak injected through ``rig_hook``
must show up as a difference, found at a named index of the event stream.
"""

import time
from dataclasses import replace

from repro.lightfield import CameraLattice, SyntheticSource
from repro.streaming import (
    MultiClientConfig,
    SessionConfig,
    run_multiclient_session,
    run_session,
)
from repro.streaming.session import attach_stream_collectors

# small-but-real settings: enough traffic to exercise the scheduler, fast
# enough for tier-1
FAST = SessionConfig(case=3, n_accesses=6, trace_seed=7, tracing=True)


def _source():
    return SyntheticSource(CameraLattice(n_theta=12, n_phi=24, l=3),
                           resolution=16)


def session_streams(config=FAST, rig_hook=None):
    """``(events, transfers, breakdown)`` of one single-client session."""
    events, transfers = [], []

    def hook(rig):
        attach_stream_collectors(rig.queue, rig.lors.scheduler,
                                 events, transfers)
        if rig_hook is not None:
            rig_hook(rig)

    metrics = run_session(_source(), config, rig_hook=hook)
    return events, transfers, metrics.breakdown()


def first_difference(a, b):
    """Index of the first differing record of two streams, else None."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None if len(a) == len(b) else min(len(a), len(b))


def wall_clock_leak(rig):
    # the delay depends on host time_ns, so the injected event lands at a
    # different sim time each run
    delay = 1.0 + (time.time_ns() % 100_000) * 1e-9
    rig.queue.schedule_in(delay, lambda: None, label="perturb")


class TestSessionDeterminism:
    def test_single_client_is_deterministic(self):
        assert session_streams() == session_streams()

    def test_fingerprint_carries_all_three_streams(self):
        events, transfers, breakdown = session_streams()
        assert events and transfers
        assert breakdown  # tracing is on, so stages exist
        # hex-encoded times: bit-exact, parse back to floats
        t, seq, label = events[0]
        assert float.fromhex(t) >= 0.0
        assert isinstance(seq, int) and isinstance(label, str)

    def test_seed_changes_the_fingerprint(self):
        other = replace(FAST, trace_seed=8)
        assert session_streams(other) != session_streams()

    def test_a_callers_config_is_fingerprinted_as_is(self):
        """The default config replays exactly, and the caller's CPU model
        is the one that runs."""
        config = SessionConfig(case=1, n_accesses=6)
        assert session_streams(config) == session_streams(config)
        free_cpu = replace(config, cpu_seconds_per_byte=0.0)
        assert session_streams(free_cpu) != session_streams(config)


class TestMulticlientDeterminism:
    def test_multiclient_is_deterministic(self):
        def streams():
            events, transfers = [], []

            def hook(rig):
                attach_stream_collectors(rig.queue, rig.scheduler,
                                         events, transfers)

            config = MultiClientConfig(
                base=replace(FAST, n_accesses=4), n_clients=3)
            run_multiclient_session(_source(), config, rig_hook=hook)
            return events, transfers

        first = streams()
        assert first[0]
        assert streams() == first


class TestPerturbationIsCaught:
    """Inject real nondeterminism; the replay check must see it."""

    def test_wall_clock_perturbation_flips_verdict(self):
        assert (session_streams(rig_hook=wall_clock_leak)
                != session_streams(rig_hook=wall_clock_leak))

    def test_divergence_is_localized_to_event_stream(self):
        a = session_streams(rig_hook=wall_clock_leak)[0]
        b = session_streams(rig_hook=wall_clock_leak)[0]
        index = first_difference(a, b)
        assert index is not None
        assert a[:index] == b[:index]
        assert a[index] != b[index]

    def test_extra_event_changes_event_count_or_stream(self):
        clean = session_streams()[0]
        perturbed = session_streams(rig_hook=wall_clock_leak)[0]
        assert len(perturbed) == len(clean) + 1
        assert first_difference(clean, perturbed) is not None
