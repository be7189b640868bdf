"""Batched admission (``TransferScheduler.submit_batch``) equivalence.

The array path must be *bit-identical* to a loop of scalar submits — same
transfer events at the same times, same completion floats, same network
stats — across priority mixes, dedup collisions, pre-tripped tokens and
mid-batch cancellations (the hypothesis properties below).  On the
reference oracle, whose admission plan is a pass-through, a batch falls
back to scalar submits with the same completions.

Which path a batch takes is decided by its size against
``BATCH_MIN_SPECS``; the scenarios here are 2-12 specs, so each arm pins
the constant (``ARRAY`` / ``SCALAR``) around ``submit_batch``.

Plus the registry regression the batch work exposed: a cancel teardown
that synchronously resubmits its key must not have the fresh entry torn
down by the old entry's cleanup.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lon.network import Network, mbps
from repro.lon.scheduler import (
    CancelToken,
    InFlightRegistry,
    Priority,
    TransferScheduler,
    TransferSpec,
)
from repro.lon.simtime import EventQueue

from .reference_network import ReferenceNetwork

N_LEAVES = 6
KEY_POOL = [f"vs-{k}" for k in range(4)]

# token modes a drawn spec can carry
TOK_NONE, TOK_TRIPPED, TOK_LIVE = 0, 1, 2


# crossover values that force every drawn batch down one path
ARRAY, SCALAR = 2, 10**9


def batch_min_specs(n):
    """Pin the array-admission crossover for the enclosed submissions."""
    return mock.patch("repro.lon.scheduler.BATCH_MIN_SPECS", n)


def star(queue, cls=Network, tcp_window=128 * 1024):
    net = cls(queue, tcp_window=tcp_window)
    for i in range(N_LEAVES):
        net.add_link(f"leaf{i}", "hub", mbps(20), 0.002)
    return net


# one drawn submission: (src, dst_offset, size, prio, dedup_idx, tok_mode)
spec_st = st.tuples(
    st.integers(min_value=0, max_value=N_LEAVES - 1),
    st.integers(min_value=1, max_value=N_LEAVES - 1),
    st.integers(min_value=20_000, max_value=800_000),
    st.integers(min_value=0, max_value=3),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    st.integers(min_value=0, max_value=2),
)

scenario_st = st.tuples(
    st.lists(spec_st, min_size=2, max_size=12),
    # keys already held in the registry when the batch arrives
    st.lists(st.booleans(), min_size=4, max_size=4),
    # optional mid-batch cancellation: when spec i is admitted, trip
    # spec j's token (applied only if i < j and spec j's token is live)
    st.one_of(
        st.none(),
        st.tuples(st.integers(min_value=0, max_value=11),
                  st.integers(min_value=0, max_value=11)),
    ),
)


def run_scenario(drawn, min_specs, cls=Network):
    """One full deterministic run; returns every observable stream."""
    rows, held, cancel_pair = drawn
    q = EventQueue()
    net = star(q, cls=cls)
    events = []
    done = []

    tokens = {}
    specs = []
    for i, (src, off, size, prio, key_idx, tok_mode) in enumerate(rows):
        token = None
        if tok_mode != TOK_NONE:
            token = tokens[i] = CancelToken()
            if tok_mode == TOK_TRIPPED:
                token.cancel()
        specs.append(TransferSpec(
            src=f"leaf{src}", dst=f"leaf{(src + off) % N_LEAVES}",
            size=size,
            on_complete=(lambda f, i=i: done.append((i, f.finish_time.hex()))),
            label=f"s{i}",
            priority=Priority(prio),
            token=token,
            dedup_key=None if key_idx is None else KEY_POOL[key_idx],
        ))

    trip = None
    if cancel_pair is not None:
        i, j = cancel_pair
        if i < j < len(rows) and rows[j][5] == TOK_LIVE:
            trip = (f"s{i}", tokens[j])

    def on_event(ev):
        events.append((ev.time.hex(), ev.label, ev.priority,
                       ev.event, ev.detail))
        # the mid-batch hazard: an earlier spec's admission trips a later
        # spec's token while the batch loop is still running
        if trip is not None and ev.event == "admitted" \
                and ev.label == trip[0]:
            trip[1].cancel()

    sched = TransferScheduler(net, policy="weighted", on_event=on_event)
    for k, is_held in zip(KEY_POOL, held):
        if is_held:
            sched.registry.register(k, "staging", Priority.STAGING)
    with batch_min_specs(min_specs):
        handles = sched.submit_batch(specs)
    q.run()
    return {
        "events": events,
        "done": done,
        "states": [h.state for h in handles],
        "registry": (sched.registry.stats.registered,
                     sched.registry.stats.deduped),
        "sched": (sched.stats.submitted, sched.stats.completed,
                  sched.stats.cancelled, sched.stats.rerates),
        "net": (net.stats.recomputes, net.stats.coalesced,
                net.stats.vectorized, net.stats.flows_rerated,
                net.stats.events_rescheduled),
        "scheduler": sched,
        "network": net,
    }


OBSERVABLES = ("events", "done", "states", "registry", "sched", "net")


class TestBatchedEqualsScalar:
    @given(drawn=scenario_st)
    @settings(max_examples=20, deadline=None)
    def test_batched_bit_equal_to_scalar(self, drawn):
        """Array admission is a pure reformulation: priority mixes, dedup
        collisions (intra-batch and vs the registry), pre-tripped tokens
        and mid-batch cancellations all land on identical streams."""
        scalar = run_scenario(drawn, SCALAR)
        batched = run_scenario(drawn, ARRAY)
        for key in OBSERVABLES:
            assert batched[key] == scalar[key], key
        # and the arms really differed in which path they took
        assert scalar["scheduler"].stats.batches_flushed == 0
        assert scalar["scheduler"].stats.scalar_fallbacks == len(drawn[0])

    @given(drawn=scenario_st)
    @settings(max_examples=10, deadline=None)
    def test_strict_policy_always_falls_back(self, drawn):
        """strict pause/resume interleaving is inherently scalar; the
        batch entry point must route around the array path entirely."""
        rows, _held, _cancel_pair = drawn
        q = EventQueue()
        net = star(q)
        sched = TransferScheduler(net, policy="strict")
        specs = [
            TransferSpec(f"leaf{src}", f"leaf{(src + off) % N_LEAVES}",
                         size, lambda f: None, label=f"s{i}",
                         priority=Priority(prio))
            for i, (src, off, size, prio, _k, _t) in enumerate(rows)
        ]
        with batch_min_specs(ARRAY):
            sched.submit_batch(specs)
        q.run()
        assert sched.stats.batches_flushed == 0
        assert sched.stats.scalar_fallbacks == len(rows)
        assert sched.stats.completed == len(rows)


def _duplicate_key_batch():
    """Four specs, two sharing one dedup key (an intra-batch collision)."""
    return ([
        (0, 1, 100_000, 0, 0, TOK_NONE),
        (1, 2, 200_000, 2, 0, TOK_NONE),   # same key as spec 0 -> deduped
        (2, 3, 150_000, 1, None, TOK_NONE),
        (3, 1, 120_000, 3, 1, TOK_NONE),
    ], [False, False, False, False], None)


class TestBatchAccounting:
    def test_intra_batch_duplicate_suppressed_once(self):
        out = run_scenario(_duplicate_key_batch(), ARRAY)
        assert out["states"] == ["completed", "cancelled",
                                 "completed", "completed"]
        assert out["registry"][1] == 1  # exactly one dedup
        scalar = run_scenario(_duplicate_key_batch(), SCALAR)
        for k in OBSERVABLES:
            assert out[k] == scalar[k], k

    def test_class_histogram_counts_whole_batch(self):
        out = run_scenario(_duplicate_key_batch(), ARRAY)
        sched = out["scheduler"]
        assert sched.stats.batches_flushed == 1
        assert sched.stats.submissions_coalesced == 4
        assert sched.stats.scalar_fallbacks == 0
        assert sched.stats.batched_by_class == {
            "DEMAND": 1, "PREFETCH": 1, "STAGING": 1, "MAINTENANCE": 1,
        }

    def test_below_threshold_is_scalar(self):
        rows, held, _ = _duplicate_key_batch()
        out = run_scenario((rows[:2], held, None), 3)
        sched = out["scheduler"]
        assert sched.stats.batches_flushed == 0
        assert sched.stats.scalar_fallbacks == 2

    def test_empty_batch_is_a_noop(self):
        q = EventQueue()
        sched = TransferScheduler(star(q))
        assert sched.submit_batch([]) == []
        assert sched.stats.batches_flushed == 0
        assert sched.stats.scalar_fallbacks == 0


class TestDedupHashStability:
    """Regression: the dedup pre-pass must hash with crc32, not hash().

    Builtin ``hash(str)`` is PYTHONHASHSEED-salted, so a hash()-based
    ``may_collide`` shortlist can reach different verdicts in different
    worker processes — the verdict gates which admission code path runs,
    and the sharded fleet needs every worker on the same one (SIM010).
    """

    SCRIPT = textwrap.dedent("""
        import json, os
        from repro.lon.network import Network, mbps
        from repro.lon.scheduler import (
            Priority, TransferScheduler, TransferSpec,
        )
        from repro.lon.simtime import EventQueue

        q = EventQueue()
        net = Network(q)
        for i in range(6):
            net.add_link(f"leaf{i}", "hub", mbps(20), 0.002)
        events, done = [], []
        sched = TransferScheduler(
            net, policy="weighted",
            on_event=lambda ev: events.append(
                (ev.time.hex(), ev.label, ev.event)),
        )
        rows = [
            ("leaf0", "leaf1", 100_000, 0, "vs-0"),
            ("leaf1", "leaf3", 200_000, 2, "vs-0"),
            ("leaf2", "leaf5", 150_000, 1, None),
            ("leaf3", "leaf4", 120_000, 3, "vs-1"),
            # six specs: BATCH_MIN_SPECS, so the array pre-pass runs
            ("leaf4", "leaf0", 110_000, 1, None),
            ("leaf5", "leaf2", 90_000, 2, None),
        ]
        specs = [
            TransferSpec(src, dst, size,
                         lambda f: done.append(f.finish_time.hex()),
                         label=f"s{i}", priority=Priority(prio),
                         dedup_key=key)
            for i, (src, dst, size, prio, key) in enumerate(rows)
        ]
        handles = sched.submit_batch(specs)
        q.run()
        print(json.dumps({
            "states": [h.state for h in handles],
            "deduped": sched.registry.stats.deduped,
            "events": events,
            "done": sorted(done),
            "seed": os.environ["PYTHONHASHSEED"],
        }))
    """)

    def _run_with_hash_seed(self, seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        root = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True, text=True, env=env, cwd=root, check=True,
        )
        return json.loads(proc.stdout)

    def test_observables_identical_across_hash_seeds(self):
        a = self._run_with_hash_seed("0")
        b = self._run_with_hash_seed("31337")
        assert a["seed"] != b["seed"]
        for out in (a, b):
            del out["seed"]
        assert a == b
        assert a["states"] == ["completed", "cancelled"] + ["completed"] * 4
        assert a["deduped"] == 1

    def test_no_key_sentinels_never_dedup(self):
        # rows mixing one real key with None keys: the -(i+1) sentinels
        # must stay distinct from every crc32 value (crc32 >= 0), so no
        # None-keyed spec is ever suppressed
        rows = [
            (0, 1, 100_000, 0, 0, TOK_NONE),
            (1, 2, 200_000, 2, None, TOK_NONE),
            (2, 3, 150_000, 1, None, TOK_NONE),
            (3, 1, 120_000, 3, None, TOK_NONE),
        ]
        out = run_scenario((rows, [False] * 4, None), ARRAY)
        assert out["states"] == ["completed"] * 4
        assert out["registry"][1] == 0  # nothing deduped


class TestFullModeCoalescing:
    """On the oracle a batch cannot be planned: it admits spec by spec."""

    def _arm(self, min_specs):
        drawn = ([
            (i % N_LEAVES, 1 + i % 3, 100_000 + 40_000 * i, i % 4,
             None, TOK_NONE)
            for i in range(8)
        ], [False] * 4, None)
        return run_scenario(drawn, min_specs, cls=ReferenceNetwork)

    def test_completions_bit_equal_scalar_vs_batched(self):
        scalar, batched = self._arm(SCALAR), self._arm(ARRAY)
        assert batched["done"] == scalar["done"]
        assert batched["states"] == scalar["states"]
        sched = batched["scheduler"]
        assert sched.stats.batches_flushed == 0
        assert sched.stats.scalar_fallbacks == 8


class TestRegistryCancelResubmit:
    """Regression: cancel() must only clean up *its own* entry."""

    def test_resubmitting_teardown_survives_cleanup(self):
        """A teardown that completes the old entry and synchronously
        re-registers the key (retarget racing a fresh demand) must leave
        the new entry in flight — the stale-cleanup bug tore it down and
        made the resource permanently unfetchable."""
        reg = InFlightRegistry()
        fresh = {}

        def teardown():
            reg.complete("k", success=False)
            fresh["entry"] = reg.register("k", "demand", Priority.DEMAND)

        reg.register("k", "staging", Priority.STAGING, cancel_cb=teardown)
        assert reg.cancel("k")
        assert reg.get("k") is fresh["entry"]
        assert "k" in reg

    def test_non_resubmitting_teardown_still_dropped(self):
        reg = InFlightRegistry()
        outcomes = []
        reg.register("k", "staging", Priority.STAGING,
                     cancel_cb=lambda: None)
        reg.subscribe("k", outcomes.append)
        assert reg.cancel("k")
        assert "k" not in reg
        assert outcomes == [False]

    def test_cancel_missing_key_is_false(self):
        assert InFlightRegistry().cancel("nope") is False
