"""Unit tests for the span tracer (repro.obs.tracer)."""

from types import SimpleNamespace

import pytest

from repro.lon.simtime import EventQueue
from repro.obs import NOOP_SPAN, NULL_TRACER, Tracer, series_samples


def test_root_and_child_ids():
    t = Tracer()
    root = t.begin("root", t=1.0)
    child = root.child("child")
    assert root.parent_id is None
    assert child.parent_id == root.span_id
    assert child.trace_id == root.trace_id
    assert root.span_id != child.span_id


def test_separate_roots_get_separate_traces():
    t = Tracer()
    a = t.begin("a")
    b = t.begin("b")
    assert a.trace_id != b.trace_id


def test_finish_is_idempotent_and_clamped():
    t = Tracer()
    s = t.begin("s", t=5.0)
    s.finish(t=3.0)          # earlier than start: clamped
    assert s.end == 5.0
    s.finish(t=9.0)          # second finish ignored
    assert s.end == 5.0
    assert s.duration == 0.0


def test_record_retroactive_closed_span():
    t = Tracer()
    s = t.record("stage", 1.0, 1.5, category="stage", k="v")
    assert s.finished
    assert s.start == 1.0 and s.end == 1.5
    assert s.attrs["k"] == "v"


def test_clock_sources():
    q = EventQueue()
    t = Tracer(q.clock)
    assert t.now == 0.0
    q.schedule(2.5, lambda: None)
    q.run_until(3.0)
    assert t.now == pytest.approx(3.0)
    t2 = Tracer(lambda: 7.0)
    assert t2.now == 7.0
    assert Tracer(None).now == 0.0


def test_disabled_tracer_hands_out_noop_and_records_nothing():
    t = Tracer(enabled=False)
    s = t.begin("x", a=1)
    assert s is NOOP_SPAN
    assert s.child("y") is NOOP_SPAN
    assert s.annotate(z=2) is s
    s.event("e")
    s.finish()
    t.instant("i")
    t.counter("c", 1.0)
    t.row(("r",), (1.0,))
    assert t.spans == [] and t.rows == [] and t.instants == []
    assert NULL_TRACER.enabled is False


def test_span_events_and_annotations():
    t = Tracer(lambda: 4.0)
    s = t.begin("s", t=1.0)
    s.event("promoted", priority="DEMAND")
    s.annotate(bytes=10)
    s.finish(t=2.0, state="completed")
    d = s.to_dict()
    assert d["events"][0]["name"] == "promoted"
    assert d["events"][0]["t"] == 4.0
    assert d["attrs"] == {"bytes": 10, "state": "completed"}


def test_finish_open_marks_unfinished():
    t = Tracer(lambda: 9.0)
    a = t.begin("a", t=1.0)
    b = t.begin("b", t=2.0)
    b.finish(t=3.0)
    n = t.finish_open()
    assert n == 1
    assert a.end == 9.0 and a.attrs.get("unfinished") is True
    assert "unfinished" not in b.attrs


def test_row_is_stored_as_one_tuple_and_read_as_samples():
    clock = SimpleNamespace(now=2.0)
    t = Tracer(clock)
    names = ("a", "b")
    t.row(names, (1, 0.5))
    clock.now = 3.0
    t.counter("c", 7)
    assert t.rows == [(2.0, names, (1, 0.5)), (3.0, ("c",), (7,))]
    assert t.rows[0][1] is names
    assert t.counters == [
        {"name": "a", "t": 2.0, "value": 1},
        {"name": "b", "t": 2.0, "value": 0.5},
        {"name": "c", "t": 3.0, "value": 7},
    ]
    assert series_samples(t.rows) == t.counters


def test_listeners_get_one_dict_per_sample_of_a_row():
    t = Tracer(lambda: 1.0)
    seen = []
    t.add_listener(lambda kind, payload: seen.append((kind, payload)))
    t.row(("a", "b"), (1, 2))
    assert seen == [("counter", {"name": "a", "t": 1.0, "value": 1}),
                    ("counter", {"name": "b", "t": 1.0, "value": 2})]


def test_span_context_manager():
    t = Tracer(lambda: 1.0)
    with t.span("sync") as s:
        assert not s.finished
    assert s.finished
