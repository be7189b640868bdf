"""Tests for the runtime determinism checker.

Beyond "two seeded runs agree", the suite proves the checker has *teeth*:
a deliberately injected wall-clock perturbation must flip the verdict and
the report must localize the first divergent event.
"""

import time

import pytest

from repro.analysis.determinism import (
    Divergence,
    RunFingerprint,
    check_determinism,
    multiclient_fingerprint,
    session_fingerprint,
)
from repro.streaming.session import SessionConfig

# small-but-real settings: enough traffic to exercise the scheduler, fast
# enough for tier-1
FAST = dict(seed=7, resolution=16, n_accesses=6)


def fast_session():
    return session_fingerprint(**FAST)


class TestSessionDeterminism:
    def test_single_client_is_deterministic(self):
        report = check_determinism(fast_session, runs=2)
        assert report.ok, report.render()
        assert report.divergence is None
        assert report.runs[0].combined == report.runs[1].combined

    def test_fingerprint_carries_all_three_streams(self):
        fp = fast_session()
        assert isinstance(fp, RunFingerprint)
        assert fp.n_events == len(fp.events) > 0
        assert len(fp.transfers) > 0
        assert fp.breakdown  # tracing was forced on, so stages exist
        # hex-encoded times: bit-exact, parse back to floats
        t, seq, label = fp.events[0]
        assert float.fromhex(t) >= 0.0
        assert isinstance(seq, int) and isinstance(label, str)

    def test_seed_changes_the_fingerprint(self):
        a = session_fingerprint(seed=7, resolution=16, n_accesses=6)
        b = session_fingerprint(seed=8, resolution=16, n_accesses=6)
        assert a.combined != b.combined

    def test_a_callers_config_is_fingerprinted_as_is(self):
        """No override inside the checker: the default config replays
        exactly, and the caller's CPU model is the one that runs."""
        def fp(**kw):
            return session_fingerprint(
                resolution=16,
                config=SessionConfig(case=1, n_accesses=6, **kw))

        assert fp().combined == fp().combined
        assert fp(cpu_seconds_per_byte=0.0).combined != fp().combined

    def test_needs_at_least_two_runs(self):
        with pytest.raises(ValueError):
            check_determinism(fast_session, runs=1)


class TestMulticlientDeterminism:
    def test_multiclient_is_deterministic(self):
        def fp():
            return multiclient_fingerprint(
                seed=7, n_clients=3, resolution=16, n_accesses=4)

        report = check_determinism(fp, runs=2)
        assert report.ok, report.render()
        assert report.runs[0].n_events > 0


class TestPerturbationIsCaught:
    """Inject real nondeterminism; the checker must flag and localize it."""

    def _perturbed(self):
        def hook(rig):
            # wall-clock leak: the delay depends on host time_ns, so the
            # injected event lands at a different sim time each run
            delay = 1.0 + (time.time_ns() % 100_000) * 1e-9
            rig.queue.schedule_in(delay, lambda: None, label="perturb")

        return session_fingerprint(rig_hook=hook, **FAST)

    def test_wall_clock_perturbation_flips_verdict(self):
        report = check_determinism(self._perturbed, runs=2)
        assert not report.ok

    def test_divergence_is_localized_to_event_stream(self):
        report = check_determinism(self._perturbed, runs=2)
        div = report.divergence
        assert isinstance(div, Divergence)
        assert div.stream == "events"
        assert div.index is not None
        # the record pair at the divergence point really differs
        assert div.left != div.right
        rendered = report.render()
        assert "NONDETERMINISTIC" in rendered
        assert f"events[{div.index}]" in rendered

    def test_extra_event_changes_event_count_or_stream(self):
        clean = fast_session()
        perturbed = self._perturbed()
        assert clean.combined != perturbed.combined


class TestReportRendering:
    def test_ok_report_mentions_digest_and_events(self):
        report = check_determinism(fast_session, runs=2)
        text = report.render()
        assert "DETERMINISTIC" in text
        assert str(report.runs[0].n_events) in text
