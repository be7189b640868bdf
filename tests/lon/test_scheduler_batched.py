"""Batched admission (``TransferScheduler.submit_batch``) equivalence.

The array path must be *bit-identical* to a loop of scalar submits — same
transfer events at the same times, same completion floats, same network
stats — across endpoint, size and priority mixes (the hypothesis
properties below).  On the reference oracle, whose admission plan is a
pass-through, a batch falls back to scalar submits with the same
completions.

Which path a batch takes is decided by its size against
``BATCH_MIN_SPECS``; the scenarios here are 2-12 specs, so each arm pins
the constant (``ARRAY`` / ``SCALAR``) around ``submit_batch``.

Plus the registry regression the batch work exposed: a cancel teardown
that synchronously resubmits its key must not have the fresh entry torn
down by the old entry's cleanup.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lon.network import Network, mbps
from repro.lon.scheduler import (
    InFlightRegistry,
    Priority,
    TransferScheduler,
    TransferSpec,
)
from repro.lon.simtime import EventQueue

from .reference_network import ReferenceNetwork

N_LEAVES = 6

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


# one drawn submission: (src, dst_offset, size, prio)
spec_st = st.tuples(
    st.integers(min_value=0, max_value=N_LEAVES - 1),
    st.integers(min_value=1, max_value=N_LEAVES - 1),
    st.integers(min_value=20_000, max_value=800_000),
    st.integers(min_value=0, max_value=3),
)

scenario_st = st.lists(spec_st, min_size=2, max_size=12)


def run_scenario(rows, min_specs, cls=Network):
    """One full deterministic run; returns every observable stream."""
    q = EventQueue()
    net = star(q, cls=cls)
    events = []
    done = []
    specs = [
        TransferSpec(
            src=f"leaf{src}", dst=f"leaf{(src + off) % N_LEAVES}",
            size=size,
            on_complete=(lambda f, i=i: done.append((i, f.finish_time.hex()))),
            label=f"s{i}",
            priority=Priority(prio),
        )
        for i, (src, off, size, prio) in enumerate(rows)
    ]

    def on_event(ev):
        events.append((ev.time.hex(), ev.label, ev.priority,
                       ev.event, ev.detail))

    sched = TransferScheduler(net, policy="weighted")
    sched.on_event = on_event
    with batch_min_specs(min_specs):
        handles = sched.submit_batch(specs)
    q.run()
    return {
        "events": events,
        "done": done,
        "states": [h.state for h in handles],
        "sched": (sched.stats.submitted, sched.stats.completed,
                  sched.stats.cancelled, sched.stats.rerates),
        "net": (net.stats.recomputes, net.stats.coalesced,
                net.stats.vectorized, net.stats.flows_rerated,
                net.stats.events_rescheduled),
        "scheduler": sched,
        "network": net,
    }


OBSERVABLES = ("events", "done", "states", "sched", "net")


class TestBatchedEqualsScalar:
    @given(drawn=scenario_st)
    @settings(max_examples=20, deadline=None)
    def test_batched_bit_equal_to_scalar(self, drawn):
        """Array admission is a pure reformulation: every endpoint, size
        and priority mix lands on identical streams."""
        scalar = run_scenario(drawn, SCALAR)
        batched = run_scenario(drawn, ARRAY)
        for key in OBSERVABLES:
            assert batched[key] == scalar[key], key
        # and the arms really differed in which path they took
        assert scalar["scheduler"].stats.batches_flushed == 0
        assert scalar["scheduler"].stats.scalar_fallbacks == len(drawn)

    @given(rows=scenario_st)
    @settings(max_examples=10, deadline=None)
    def test_strict_policy_always_falls_back(self, rows):
        """strict pause/resume interleaving is inherently scalar; the
        batch entry point must route around the array path entirely."""
        q = EventQueue()
        net = star(q)
        sched = TransferScheduler(net, policy="strict")
        specs = [
            TransferSpec(f"leaf{src}", f"leaf{(src + off) % N_LEAVES}",
                         size, lambda f: None, label=f"s{i}",
                         priority=Priority(prio))
            for i, (src, off, size, prio) in enumerate(rows)
        ]
        with batch_min_specs(ARRAY):
            sched.submit_batch(specs)
        q.run()
        assert sched.stats.batches_flushed == 0
        assert sched.stats.scalar_fallbacks == len(rows)
        assert sched.stats.completed == len(rows)


def _one_per_class_batch():
    """Four specs, one of each priority class."""
    return [
        (0, 1, 100_000, 0),
        (1, 2, 200_000, 2),
        (2, 3, 150_000, 1),
        (3, 1, 120_000, 3),
    ]


class TestBatchAccounting:
    def test_class_histogram_counts_whole_batch(self):
        out = run_scenario(_one_per_class_batch(), ARRAY)
        sched = out["scheduler"]
        assert sched.stats.batches_flushed == 1
        assert sched.stats.submissions_coalesced == 4
        assert sched.stats.scalar_fallbacks == 0
        assert sched.stats.batched_by_class == {
            "DEMAND": 1, "PREFETCH": 1, "STAGING": 1, "MAINTENANCE": 1,
        }
        # submitted as DEMAND, STAGING, PREFETCH, MAINTENANCE
        assert list(sched.stats.batched_by_class) == [p.name for p in Priority]

    def test_planned_etas_are_scalar_transfers_to_the_bit(self):
        """A quiet item's planned drain check is the one scalar
        ``transfer`` arms, ``float.hex`` for ``float.hex``: odd sizes over
        window ceilings, at an instant with a long mantissa."""
        items = [(f"leaf{i}", f"leaf{(i + 1) % N_LEAVES}", size)
                 for i, size in enumerate((12_345, 99_991, 7, 543_210, 1))]
        nets = []
        for _ in range(2):
            q = EventQueue()
            q.schedule(0.1 + 0.2, lambda: None, "tick")
            q.run()
            nets.append(star(q, tcp_window=8 * 1024))
        planned, scalar = nets
        plan = planned.admission_plan(items)
        assert plan.vector_ok and all(plan._quiet_flags)
        for j, (src, dst, size) in enumerate(items):
            flow = scalar.transfer(src, dst, size, lambda f: None)
            assert (plan._etas[j].hex()
                    == flow._completion_event.time.hex())

    def test_below_threshold_is_scalar(self):
        out = run_scenario(_one_per_class_batch()[:2], 3)
        sched = out["scheduler"]
        assert sched.stats.batches_flushed == 0
        assert sched.stats.scalar_fallbacks == 2

    def test_empty_batch_is_a_noop(self):
        q = EventQueue()
        sched = TransferScheduler(star(q))
        assert sched.submit_batch([]) == []
        assert sched.stats.batches_flushed == 0
        assert sched.stats.scalar_fallbacks == 0


class TestFullModeCoalescing:
    """On the oracle a batch cannot be planned: it admits spec by spec."""

    def _arm(self, min_specs):
        rows = [
            (i % N_LEAVES, 1 + i % 3, 100_000 + 40_000 * i, i % 4)
            for i in range(8)
        ]
        return run_scenario(rows, min_specs, cls=ReferenceNetwork)

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
        assert reg._entries["k"] is fresh["entry"]
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
