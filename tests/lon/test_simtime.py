"""Unit and property tests for the simulation clock and event queue."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lon import simtime
from repro.lon.simtime import (
    EventQueue,
    Process,
    SimClock,
    SimulationError,
)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_cannot_run_backwards(self):
        c = SimClock()
        c._advance_to(10.0)
        with pytest.raises(SimulationError):
            c._advance_to(9.0)

    def test_advance_forward(self):
        c = SimClock()
        c._advance_to(3.5)
        assert c.now == 3.5


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, lambda: fired.append("b"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(3.0, lambda: fired.append("c"))
        q.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        q = EventQueue()
        fired = []
        for i in range(5):
            q.schedule(1.0, lambda i=i: fired.append(i))
        q.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        q = EventQueue()
        seen = []
        q.schedule(4.25, lambda: seen.append(q.now))
        q.run()
        assert seen == [4.25]
        assert q.now == 4.25

    def test_schedule_in_is_relative(self):
        q = EventQueue()
        order = []
        q.schedule(1.0, lambda: q.schedule_in(0.5, lambda: order.append(q.now)))
        q.run()
        assert order == [1.5]

    def test_schedule_into_past_raises(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.run()
        with pytest.raises(SimulationError):
            q.schedule(0.5, lambda: None)

    def test_negative_delay_raises(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule_in(-1.0, lambda: None)

    def test_nonfinite_time_raises(self):
        q = EventQueue()
        for bad in (math.nan, math.inf):
            with pytest.raises(SimulationError):
                q.schedule(bad, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        q = EventQueue()
        fired = []
        ev = q.schedule(1.0, lambda: fired.append(1))
        q.cancel(ev)
        q.run()
        assert fired == []
        assert len(q) == 0

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        q.cancel(ev)
        q.cancel(ev)
        assert len(q) == 0

    def test_len_counts_live_events(self):
        q = EventQueue()
        e1 = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        assert len(q) == 2
        q.cancel(e1)
        assert len(q) == 1

    def test_run_until_respects_horizon(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda: fired.append(1))
        q.schedule(5.0, lambda: fired.append(5))
        q.run_until(3.0)
        assert fired == [1]
        assert q.now == 3.0
        q.run()
        assert fired == [1, 5]

    def test_run_until_fires_events_at_horizon(self):
        q = EventQueue()
        fired = []
        q.schedule(3.0, lambda: fired.append(3))
        q.run_until(3.0)
        assert fired == [3]

    def test_runaway_loop_detected(self):
        q = EventQueue()

        def reschedule():
            q.schedule_in(0.1, reschedule)

        q.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            q.run(max_events=100)

    def test_exact_budget_is_not_a_runaway_loop(self):
        q = EventQueue()
        for t in (1.0, 2.0, 3.0):
            q.schedule(t, lambda: None)
        assert q.run(max_events=3) == 3
        for t in (4.0, 5.0, 6.0):
            q.schedule(t, lambda: None)
        assert q.run_until(10.0, max_events=3) == 3
        assert q.now == 10.0

    def test_budget_raises_only_with_an_event_still_due(self):
        q = EventQueue()
        for t in (1.0, 2.0, 3.0, 20.0):
            q.schedule(t, lambda: None)
        # the fourth event lies past the horizon: the budget holds
        assert q.run_until(10.0, max_events=3) == 3
        q.schedule(11.0, lambda: None)
        with pytest.raises(SimulationError, match="budget exhausted"):
            q.run_until(30.0, max_events=1)
        with pytest.raises(SimulationError, match="budget exhausted"):
            q.run(max_events=0)

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        e1 = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        q.cancel(e1)
        assert q.peek_time() == 2.0

    def test_step_on_empty_returns_false(self):
        assert EventQueue().step() is False

    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_firing_order_is_sorted_for_any_schedule(self, times):
        q = EventQueue()
        observed = []
        for t in times:
            q.schedule(t, lambda t=t: observed.append(q.now))
        q.run()
        assert observed == sorted(observed)
        assert len(observed) == len(times)


class TestEventCancelBookkeeping:
    """Event.cancel() must keep EventQueue._live accurate (PR-4 fix)."""

    def test_direct_cancel_updates_len(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        assert len(q) == 2
        ev.cancel()  # direct, not via q.cancel
        assert len(q) == 1
        assert ev.cancelled

    def test_direct_cancel_suppresses_firing(self):
        q = EventQueue()
        fired = []
        ev = q.schedule(1.0, lambda: fired.append(1))
        ev.cancel()
        q.run()
        assert fired == []
        assert len(q) == 0

    def test_both_paths_are_idempotent_together(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        ev.cancel()
        q.cancel(ev)
        ev.cancel()
        assert len(q) == 0

    def test_cancel_after_fire_is_noop(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        q.run()
        ev.cancel()
        assert not ev.cancelled
        assert len(q) == 0

    def test_event_has_slots(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        with pytest.raises(AttributeError):
            ev.arbitrary_attribute = 1


class TestHeapCompaction:
    def test_compaction_triggers_when_garbage_dominates(self, monkeypatch):
        monkeypatch.setattr(simtime, "COMPACT_MIN", 64)
        q = EventQueue()
        events = [q.schedule(float(i + 1), lambda: None) for i in range(100)]
        for ev in events[:60]:
            q.cancel(ev)
        assert q.compactions >= 1
        # white-box: compaction is literally about heap internals
        assert len(q._heap) - q._garbage == 40
        assert len(q._heap) < 100
        assert len(q) == 40

    def test_no_compaction_below_min_size(self):
        q = EventQueue()
        events = [q.schedule(float(i + 1), lambda: None) for i in range(100)]
        for ev in events:
            q.cancel(ev)
        assert q.compactions == 0

    def test_compaction_preserves_firing_order(self, monkeypatch):
        monkeypatch.setattr(simtime, "COMPACT_MIN", 16)
        monkeypatch.setattr(simtime, "COMPACT_THRESHOLD", 0.25)
        q = EventQueue()
        fired = []
        keep, drop = [], []
        for i in range(200):
            ev = q.schedule(float(i), lambda i=i: fired.append(i))
            (keep if i % 3 == 0 else drop).append((i, ev))
        for _, ev in drop:
            ev.cancel()
        assert q.compactions >= 1
        q.run()
        assert fired == [i for i, _ in keep]

    def test_compaction_with_interleaved_pops(self, monkeypatch):
        monkeypatch.setattr(simtime, "COMPACT_MIN", 32)
        q = EventQueue()
        fired = []
        events = {}
        for i in range(300):
            events[i] = q.schedule(float(i), lambda i=i: fired.append(i))
        expected = []
        for i in range(300):
            if i % 2 == 0:
                events[i].cancel()
            else:
                expected.append(i)
        q.run_until(150.0)
        q.run()
        assert fired == expected
        assert len(q) == 0

    def test_fired_total_counts_lifetime_events(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(float(i), lambda: None)
        q.run()
        q.schedule(10.0, lambda: None)
        q.run()
        assert q.fired_total == 6


class TestProcess:
    def test_periodic_body_runs_until_none(self):
        q = EventQueue()
        ticks = []

        def body():
            ticks.append(q.now)
            return 1.0 if len(ticks) < 3 else None

        q.schedule(1.0, Process(q, body).start)
        q.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_stop_cancels_future_ticks(self):
        q = EventQueue()
        ticks = []

        def body():
            ticks.append(q.now)
            return 1.0

        p = Process(q, body)
        q.schedule(1.0, p.start)
        q.run_until(2.5)
        p.stop()
        q.run()
        assert ticks == [1.0, 2.0]

    def test_double_start_is_noop(self):
        q = EventQueue()
        ticks = []
        p = Process(q, lambda: (ticks.append(q.now), None)[1])
        q.schedule(1.0, p.start)
        q.schedule(1.0, p.start)
        q.run()
        assert ticks == [1.0]
