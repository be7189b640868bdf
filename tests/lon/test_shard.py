"""Tests for the sharded parallel simulation layer (``repro.lon.shard``).

Three obligations, in increasing strength:

1. the partition is a proper ordered cover of the fleet;
2. a sharded run is a *re-execution*, not an approximation: shard 0 of a
   1-shard run reproduces the plain multi-client session exactly, and the
   merged per-client order equals global client order;
3. worker processes change nothing: ``workers=N`` produces the same
   merged event stream, transfer stream and access records as the
   sequential reference (:func:`assert_same_run`).

Everything here uses modeled decompression cost — measured wall time fed
into sim time is the one thing that *would* legitimately differ across
processes.
"""

import multiprocessing as mp

import pytest

from repro import processes
from repro.lightfield import CameraLattice, SyntheticSource
from repro.lon.shard import (
    partition_clients,
    run_shard,
    run_sharded_session,
)
from repro.streaming import (
    MultiClientConfig,
    SessionConfig,
    run_multiclient_session,
)


class TestPartition:
    def test_even_split(self):
        assert partition_clients(8, 4) == [(0, 2), (2, 2), (4, 2), (6, 2)]

    def test_remainder_goes_to_leading_shards(self):
        assert partition_clients(10, 4) == [(0, 3), (3, 3), (6, 2), (8, 2)]

    def test_more_shards_than_clients_drops_empty_tail(self):
        assert partition_clients(3, 8) == [(0, 1), (1, 1), (2, 1)]

    def test_single_shard_is_identity(self):
        assert partition_clients(7, 1) == [(0, 7)]

    def test_blocks_cover_fleet_contiguously(self):
        for n, s in [(1, 1), (5, 2), (64, 8), (13, 5), (100, 7)]:
            blocks = partition_clients(n, s)
            covered = [g for start, count in blocks
                       for g in range(start, start + count)]
            assert covered == list(range(n))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            partition_clients(0, 2)
        with pytest.raises(ValueError):
            partition_clients(4, 0)


def _source():
    return SyntheticSource(CameraLattice(n_theta=9, n_phi=18, l=3),
                           resolution=32)


def _config(n_clients, **base_kw):
    return MultiClientConfig(
        base=SessionConfig(case=3, n_accesses=6, trace_seed=11, **base_kw),
        n_clients=n_clients,
        seed_stride=101,
        start_stagger=0.25,
    )


def first_difference(left, right):
    """Index of the first record where two streams differ (the shorter
    length when one is a prefix of the other), or ``None``."""
    for i, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return i
    return None if len(left) == len(right) else min(len(left), len(right))


def merged(result, stream):
    """Every shard's ``stream`` (``events`` or ``transfers``) concatenated
    in shard order."""
    return [r for s in result.shards for r in getattr(s, stream)]


def assert_same_run(a, b):
    """Two sharded runs that collected streams fired the same events and
    transfers and served every access alike; a failure names the stream
    and the first differing index.  Shards strip the tracer, so there is
    no span breakdown to compare: the access records it would be folded
    from are compared instead."""
    streams = {
        "merged_events": (merged(a, "events"), merged(b, "events")),
        "merged_transfers": (merged(a, "transfers"),
                             merged(b, "transfers")),
        "accesses": ([r for m in a.per_client for r in m.accesses],
                     [r for m in b.per_client for r in m.accesses]),
    }
    for name, (left, right) in streams.items():
        assert left, f"{name} is empty"
        i = first_difference(left, right)
        assert i is None, (f"{name}[{i}]: {left[i:i + 1]} != "
                           f"{right[i:i + 1]}")


def sharded_run(workers, cross_shard_fraction=0.0):
    """The 4-client, 2-shard rig the equivalence tests run."""
    config = MultiClientConfig(
        base=SessionConfig(case=3, n_accesses=6, trace_seed=11),
        n_clients=4, cross_shard_fraction=cross_shard_fraction)
    source = SyntheticSource(CameraLattice(n_theta=12, n_phi=24, l=3),
                             resolution=32)
    return run_sharded_session(source, config, n_shards=2, workers=workers,
                               collect_streams=True)


class TestShardExecution:
    def test_single_shard_reproduces_plain_session(self):
        """shards=1 is the plain multi-client run executed through the
        windowed loop: same per-client summaries, same event count."""
        source = _source()
        config = _config(4)
        plain = run_multiclient_session(source, config)
        sharded = run_sharded_session(source, config, n_shards=1, workers=1)
        assert [m.summary() for m in sharded.per_client] == \
               [m.summary() for m in plain.per_client]
        assert sharded.events_fired == plain.events_fired

    def test_merge_preserves_global_client_order(self):
        source = _source()
        sharded = run_sharded_session(source, _config(6), n_shards=3,
                                      workers=1)
        names = [m.case_name for m in sharded.per_client]
        assert names == [f"case3-client{g}" for g in range(6)]
        assert [s.n_clients for s in sharded.shards] == [2, 2, 2]
        assert [s.client_index_base for s in sharded.shards] == [0, 2, 4]

    def test_aggregate_sums_and_makespan(self):
        source = _source()
        sharded = run_sharded_session(source, _config(4), n_shards=2,
                                      workers=1)
        agg = sharded.aggregate()
        assert agg["n_clients"] == 4
        assert agg["n_shards"] == 2
        assert agg["accesses"] == sum(
            len(m.accesses) for m in sharded.per_client)
        assert agg["events_fired"] == sum(
            s.events_fired for s in sharded.shards)
        assert sharded.wall_seconds == max(
            s.wall_seconds for s in sharded.shards)
        assert sharded.cpu_seconds == pytest.approx(sum(
            s.wall_seconds for s in sharded.shards))

    def test_run_shard_matches_session_slice(self):
        """A single shard over clients [2, 4) equals the corresponding
        block of a client_index_base-shifted plain run."""
        source = _source()
        config = _config(4)
        shifted = run_multiclient_session(
            source, MultiClientConfig(
                base=config.base, n_clients=2,
                seed_stride=config.seed_stride,
                start_stagger=config.start_stagger,
                client_index_base=2,
            ))
        shard = run_shard(source, MultiClientConfig(
            base=config.base, n_clients=2,
            seed_stride=config.seed_stride,
            start_stagger=config.start_stagger,
            client_index_base=2,
        ), shard_id=1)
        assert [m.summary() for m in shard.per_client] == \
               [m.summary() for m in shifted.per_client]

    def test_stream_collection_is_optional(self):
        source = _source()
        without = run_sharded_session(source, _config(2), n_shards=2,
                                      workers=1)
        assert all(s.events is None for s in without.shards)
        collected = run_sharded_session(source, _config(2), n_shards=2,
                                        workers=1, collect_streams=True)
        events = merged(collected, "events")
        assert events and all(len(rec) == 3 for rec in events)


class TestWorkerEquivalence:
    def test_workers_bit_equal_to_sequential(self):
        """The whole point: worker processes + windowed barrier sync fire
        the same events at the same times as the sequential loop."""
        assert_same_run(sharded_run(workers=1), sharded_run(workers=2))

    def test_spawned_workers_bit_equal_to_sequential(self, monkeypatch):
        """A spawned worker inherits nothing: the source, the exchange and
        every option reach it pickled, and it hashes ``str`` with its own
        seed (unless PYTHONHASHSEED is set).  Its streams still equal the
        sequential run's, so no result depends on a salted hash or on
        state only a forked child would see."""
        sequential = sharded_run(workers=1, cross_shard_fraction=0.3)
        monkeypatch.setattr(processes, "start_context",
                            lambda: mp.get_context("spawn"))
        assert_same_run(
            sequential, sharded_run(workers=2, cross_shard_fraction=0.3))

    def test_default_config_needs_no_knob_to_agree(self):
        """Worker processes and the sequential loop agree on every latency
        bit with the library's default ``SessionConfig``."""
        source = _source()
        config = MultiClientConfig(
            base=SessionConfig(case=3, n_accesses=6), n_clients=8)
        runs = [
            run_sharded_session(source, config, n_shards=4, workers=workers)
            for workers in (1, 2)
        ]
        latencies = [
            [a.total_latency.hex() for m in run.per_client
             for a in m.accesses]
            for run in runs
        ]
        assert latencies[0] == latencies[1]
        assert len(latencies[0]) == 8 * 6
        # the processes that ran: any ``workers != 1`` is one per shard
        assert [run.workers for run in runs] == [1, 4]
        assert runs[1].aggregate()["workers"] == 4


class TestFailures:
    """A bad call or a dying worker ends in a prompt, localized error."""

    def test_failed_worker_does_not_stall_its_siblings(self, monkeypatch):
        """Shard 1's outage names a depot its rig does not have, so that
        worker alone raises at sim time 1.0; its sibling must not sit out
        the barrier timeout before the parent can report it."""
        import time

        from repro.lon import shard

        monkeypatch.setattr(shard, "BARRIER_TIMEOUT", 30.0)
        # workers inherit the patched timeout
        monkeypatch.setattr(processes, "start_context",
                            lambda: mp.get_context("fork"))
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="shard 1 failed"):
            run_sharded_session(
                _source(), _config(4), n_shards=2, workers=2,
                faults=[{"kind": "depot-outage", "depot": "no-such-depot",
                         "start": 1.0, "duration": 1.0, "shard": 1}])
        assert time.perf_counter() - started < 15.0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kwargs", [
        {"window": 0.0},
        {"faults": [{"kind": "depot-crash", "depot": "lan-depot-0",
                     "start": 1.0, "duration": 1.0}]},
        {"faults": [{"depot": "lan-depot-0", "start": 1.0}]},
        {"faults": [{"start": 1.0, "duration": 1.0}]},
        {"faults": [{"depot": "lan-depot-0", "start": 1.0, "duration": 1.0,
                     "shard": 2}]},
        {"faults": [{"depot": "lan-depot-0", "start": 1.0, "duration": 0}]},
        {"faults": [{"depot": "lan-depot-0", "start": 1.0, "duration": -3}]},
        {"faults": [{"depot": "lan-depot-0", "start": "soon",
                     "duration": 1.0}]},
        # a bool is an int, so this would run as shard 1
        {"faults": [{"depot": "lan-depot-0", "start": 1.0, "duration": 1.0,
                     "shard": True}]},
    ], ids=["window", "kind", "no-duration", "no-depot", "shard-range",
            "zero-duration", "negative-duration", "text-start", "bool-shard"])
    def test_malformed_call_is_rejected_before_anything_is_built(
            self, workers, kwargs):
        # nothing may touch the source: a rig build or a worker start
        # would fail on this one with an AttributeError instead
        with pytest.raises(ValueError):
            run_sharded_session(
                object(), _config(4), n_shards=2, workers=workers, **kwargs)
