"""Tests for cursor traces and session metrics."""

import hashlib

import numpy as np
import pytest

from repro.lightfield.lattice import CameraLattice
from repro.streaming.metrics import AccessRecord, AccessSource, SessionMetrics
from repro.streaming.session import HEADING_NOISE, STEP_PERIOD
from repro.streaming.trace import CursorSample, CursorTrace, standard_trace

#: sha256 over one ``time.hex(),theta.hex(),phi.hex()`` line per sample of
#: ``standard_trace(CameraLattice(24, 48, 6), 58, seed=s)``, recorded at the
#: commit before the lattice's cursor path moved to plain floats (PR 19's
#: tree).  Every committed figure rides on these walks; a change here is a
#: re-baseline of all of them, not a test to re-record.
TRACE_SHA = {
    ("default", 7):
        "c8509ca30440d6f69fd91ff5547ca1a6eff61251e3313c9ecabb8c8ea4d99bf6",
    ("default", 11):
        "9bf4a7d48f9db4e53845159a55ef41d789a03cf9ca1bece8ae78eb9e8c7dff0f",
    ("default", 13):
        "36a80fcd9fb71d21df3ce36f25843bd019e7383125d2fe0f830e12a5c7c0fb75",
    ("session", 7):
        "a24e5aed33934ef420514d81cadac53cc7c1c918a0dfe8bc49661af786022633",
    ("session", 11):
        "7c9d598bdb1d8d942e05353f97b995f40cb56811c6c02ac546637fedfba223c9",
    ("session", 13):
        "43a85afbe49429d33863b1eea3565f21004fb17e677de2812f6b28e97ee84c75",
}
#: the same sha over other lattices and lengths, recorded at the commit
#: before the walk moved from numpy scalars to Python floats: the fleet
#: lattice at 8 accesses with the session pacing and the fleet's per-client
#: seeds ``7 + 101 g``, and the paper lattice at 58 accesses.  Keyed
#: ``(lattice, n_accesses, pacing, seed)``.
TRACE_SHA_MORE = {
    ((18, 36, 3), 8, "session", 7):
        "618bdce1ba266f6b30a4b7f6f618dd237cb1751770a3164727aa2117ad45e930",
    ((18, 36, 3), 8, "session", 108):
        "3ddcbe79736c110d7ce70ed16450bd11fc70da6f34ec239d043e0c400a842617",
    ((18, 36, 3), 8, "session", 209):
        "5bc7428ca68ad375f03b776796aac56ef40fc3f58d9bf2005c8f37fa6961211a",
    ((18, 36, 3), 8, "session", 310):
        "93d7f0053d4cf5480cf1963cade638212c14a42cdbb1ae29ee72ab5911d5cd16",
    ((72, 144, 6), 58, "default", 7):
        "73b5a4b42af9585d091ef8ff6d86b1eec528f8414fb0a006f2ea230da6e6e361",
    ((72, 144, 6), 58, "session", 7):
        "d326abd74740e434dfad9a8d18730df253314de59341a336fdf75272ec98e4f4",
}
#: standard_trace's own defaults (0.35 s / 0.55 rad) and the session's
PACINGS = {
    "default": {},
    "session": {"step_period": STEP_PERIOD, "heading_noise": HEADING_NOISE},
}


def trace_sha(trace):
    """sha256 over one ``time,theta,phi`` line of float hexes per sample."""
    digest = hashlib.sha256()
    for s in trace:
        digest.update(
            f"{s.time.hex()},{s.theta.hex()},{s.phi.hex()}\n".encode())
    return digest.hexdigest()


@pytest.fixture()
def lattice():
    return CameraLattice(n_theta=12, n_phi=24, l=3)


class TestCursorTrace:
    def test_standard_trace_access_count(self, lattice):
        trace = standard_trace(lattice, n_accesses=20, seed=1)
        assert len(trace.viewset_accesses(lattice)) == 20

    def test_paper_count_58(self, lattice):
        trace = standard_trace(lattice, n_accesses=58, seed=7)
        assert len(trace.viewset_accesses(lattice)) == 58

    def test_deterministic(self, lattice):
        a = standard_trace(lattice, n_accesses=10, seed=3)
        b = standard_trace(lattice, n_accesses=10, seed=3)
        assert [(s.time, s.theta, s.phi) for s in a] == [
            (s.time, s.theta, s.phi) for s in b
        ]

    @pytest.mark.parametrize("pacing,seed", sorted(TRACE_SHA))
    def test_standard_trace_is_the_recorded_walk(self, pacing, seed):
        trace = standard_trace(CameraLattice(24, 48, 6), 58, seed=seed,
                               **PACINGS[pacing])
        assert trace_sha(trace) == TRACE_SHA[(pacing, seed)]

    @pytest.mark.parametrize("lattice,n,pacing,seed", sorted(TRACE_SHA_MORE))
    def test_other_lattices_walk_as_recorded(self, lattice, n, pacing, seed):
        trace = standard_trace(CameraLattice(*lattice), n, seed=seed,
                               **PACINGS[pacing])
        assert trace_sha(trace) == TRACE_SHA_MORE[(lattice, n, pacing, seed)]

    def test_shift_by_zero_is_an_equal_trace_in_a_new_list(self, lattice):
        trace = standard_trace(lattice, n_accesses=10, seed=3)
        same = trace.shifted(0.0)
        assert same.samples == trace.samples
        assert same.samples is not trace.samples
        later = trace.shifted(1.5)
        assert [s.time for s in later] == [s.time + 1.5 for s in trace]
        assert trace.samples == same.samples     # the source is untouched

    def test_samples_carry_builtin_floats(self, lattice):
        """Samples carry builtin floats, never np scalars."""
        trace = standard_trace(lattice, n_accesses=10, seed=3)
        for s in trace:
            assert type(s.time) is float
            assert type(s.theta) is float and type(s.phi) is float

    def test_different_seeds_differ(self, lattice):
        a = standard_trace(lattice, n_accesses=10, seed=3)
        b = standard_trace(lattice, n_accesses=10, seed=4)
        assert [(s.theta, s.phi) for s in a] != [(s.theta, s.phi) for s in b]

    def test_angles_stay_on_sphere_band(self, lattice):
        trace = standard_trace(lattice, n_accesses=40, seed=5)
        for s in trace:
            assert 0 < s.theta < np.pi
            assert 0 <= s.phi < 2 * np.pi

    def test_timestamps_monotone(self, lattice):
        trace = standard_trace(lattice, n_accesses=15, seed=2)
        times = [s.time for s in trace]
        assert times == sorted(times)

    def test_scaled_halves_duration(self, lattice):
        trace = standard_trace(lattice, n_accesses=10, seed=2)
        fast = trace.scaled(2.0)
        assert fast.duration == pytest.approx(trace.duration / 2)
        # spatial path unchanged
        assert [(s.theta, s.phi) for s in fast] == [
            (s.theta, s.phi) for s in trace
        ]

    def test_scaled_validates(self, lattice):
        trace = standard_trace(lattice, n_accesses=5, seed=2)
        with pytest.raises(ValueError):
            trace.scaled(0.0)

    def test_consecutive_accesses_are_neighbors(self, lattice):
        """A smooth cursor can only cross into an adjacent view set."""
        trace = standard_trace(lattice, n_accesses=30, seed=9)
        accesses = trace.viewset_accesses(lattice)
        for a, b in zip(accesses, accesses[1:]):
            assert b in lattice.neighbors(a), f"jump {a} -> {b}"

    def test_non_monotone_times_rejected(self):
        with pytest.raises(ValueError):
            CursorTrace(samples=[
                CursorSample(1.0, 1.0, 1.0),
                CursorSample(0.5, 1.0, 1.0),
            ])

    def test_invalid_n_accesses(self, lattice):
        with pytest.raises(ValueError):
            standard_trace(lattice, n_accesses=0)


def rec(index, source, total=1.0, comm=0.5, dec=0.1):
    return AccessRecord(
        index=index,
        viewset_id=f"vs-0-{index}",
        source=source,
        request_time=float(index),
        comm_latency=comm,
        decompress_seconds=dec,
        total_latency=total,
    )


class TestSessionMetrics:
    def test_series_ordered_by_index(self):
        m = SessionMetrics()
        m.record(rec(2, AccessSource.WAN_DEPOT, total=2.0))
        m.record(rec(1, AccessSource.AGENT_CACHE, total=0.1))
        assert m.latency_series() == [0.1, 2.0]

    def test_duplicate_index_rejected(self):
        m = SessionMetrics()
        m.record(rec(1, AccessSource.AGENT_CACHE))
        with pytest.raises(ValueError):
            m.record(rec(1, AccessSource.WAN_DEPOT))

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            rec(1, AccessSource.AGENT_CACHE, total=-1.0)

    def test_hit_rate_counts_client_and_agent(self):
        m = SessionMetrics()
        m.record(rec(1, AccessSource.CLIENT_RESIDENT))
        m.record(rec(2, AccessSource.AGENT_CACHE))
        m.record(rec(3, AccessSource.WAN_DEPOT))
        m.record(rec(4, AccessSource.LAN_DEPOT))
        assert m.hit_rate() == pytest.approx(0.5)

    def test_wan_rate_counts_server_too(self):
        m = SessionMetrics()
        m.record(rec(1, AccessSource.WAN_DEPOT))
        m.record(rec(2, AccessSource.SERVER_RUNTIME))
        m.record(rec(3, AccessSource.AGENT_CACHE))
        assert m.wan_rate() == pytest.approx(2 / 3)

    def test_initial_phase_is_last_wan_index(self):
        m = SessionMetrics()
        m.record(rec(1, AccessSource.WAN_DEPOT))
        m.record(rec(2, AccessSource.AGENT_CACHE))
        m.record(rec(3, AccessSource.WAN_DEPOT))
        m.record(rec(4, AccessSource.LAN_DEPOT))
        assert m.initial_phase_length() == 3

    def test_initial_phase_zero_when_no_wan(self):
        m = SessionMetrics()
        m.record(rec(1, AccessSource.AGENT_CACHE))
        assert m.initial_phase_length() == 0

    def test_mean_latency_with_skip(self):
        m = SessionMetrics()
        m.record(rec(1, AccessSource.WAN_DEPOT, total=10.0))
        m.record(rec(2, AccessSource.AGENT_CACHE, total=1.0))
        m.record(rec(3, AccessSource.AGENT_CACHE, total=2.0))
        assert m.mean_latency() == pytest.approx(13 / 3)
        assert m.mean_latency(skip=1) == pytest.approx(1.5)

    def test_empty_metrics(self):
        m = SessionMetrics()
        assert m.hit_rate() == 0.0
        assert m.mean_latency() == 0.0
        assert m.latency_series() == []

    def test_summary_keys(self):
        m = SessionMetrics(case_name="case2", resolution=300)
        m.record(rec(1, AccessSource.WAN_DEPOT))
        s = m.summary()
        for key in ("case", "resolution", "hit_rate", "wan_rate",
                    "initial_phase", "mean_latency_s"):
            assert key in s

    def test_out_of_order_completion_keeps_index_order(self):
        """Slow fetches complete late; the series must stay index-sorted."""
        m = SessionMetrics()
        for index in (4, 1, 3, 5, 2):
            m.record(rec(index, AccessSource.AGENT_CACHE, total=float(index)))
        assert [a.index for a in m.accesses] == [1, 2, 3, 4, 5]
        assert m.latency_series() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_duplicate_rejected_after_out_of_order_inserts(self):
        m = SessionMetrics()
        m.record(rec(3, AccessSource.WAN_DEPOT))
        m.record(rec(1, AccessSource.AGENT_CACHE))
        with pytest.raises(ValueError):
            m.record(rec(3, AccessSource.AGENT_CACHE))
