"""Flight recorder: bounded rings, listener wiring, dump contents."""

import json

import pytest

from types import SimpleNamespace

from repro.obs import FlightRecorder, Tracer, flightrec


def _tracer(clock=None):
    return Tracer(clock=clock or (lambda: 0.0))


@pytest.fixture
def capacity(monkeypatch):
    """Recorders built after ``capacity(n)`` keep ``n`` spans."""
    return lambda n: monkeypatch.setattr(flightrec, "CAPACITY", n)


def _span(tracer, name, start, end, **attrs):
    tracer.begin(name, t=start, **attrs).finish(t=end)


class TestRing:
    def test_capacity_evicts_oldest_spans(self, capacity):
        capacity(4)
        tracer = _tracer()
        rec = FlightRecorder().attach(tracer)
        for i in range(10):
            _span(tracer, f"s{i}", float(i), i + 0.5)
        assert len(rec._spans) == 4
        dump = rec.trigger("test")
        assert [s["name"] for s in dump["spans"]] == ["s6", "s7", "s8", "s9"]

    def test_counter_ring_is_four_times_capacity(self, capacity):
        capacity(2)
        clock = SimpleNamespace(now=0.0)
        tracer = _tracer(clock)
        rec = FlightRecorder().attach(tracer)
        for i in range(20):
            clock.now = float(i)
            tracer.row(("q",), (float(i),))
        dump = rec.trigger("test")
        assert len(dump["counters"]) == 8
        assert dump["counters"][0]["value"] == 12.0

    def test_instants_ride_in_counter_ring(self):
        tracer = _tracer()
        rec = FlightRecorder().attach(tracer)
        tracer.instant("fault")
        dump = rec.trigger("test")
        assert [c["name"] for c in dump["counters"]] == ["fault"]


class TestListenerWiring:
    def test_only_finished_spans_are_buffered(self):
        tracer = _tracer()
        rec = FlightRecorder().attach(tracer)
        tracer.begin("open", t=0.0)  # never finished
        _span(tracer, "closed", 0.0, 1.0)
        assert len(rec._spans) == 1

    def test_detach_stops_recording(self):
        tracer = _tracer()
        rec = FlightRecorder().attach(tracer)
        _span(tracer, "before", 0.0, 1.0)
        rec.detach()
        _span(tracer, "after", 2.0, 3.0)
        assert len(rec._spans) == 1
        assert tracer._listeners == []

    def test_reattach_moves_to_new_tracer(self):
        t1, t2 = _tracer(), _tracer()
        rec = FlightRecorder().attach(t1)
        rec.attach(t2)
        assert t1._listeners == []
        _span(t2, "s", 0.0, 1.0)
        assert len(rec._spans) == 1


class TestTrigger:
    def test_dump_includes_open_spans_marked(self):
        tracer = _tracer()
        rec = FlightRecorder(worker="shard3").attach(tracer)
        _span(tracer, "done", 0.0, 1.0)
        tracer.begin("interrupted", t=2.0)
        dump = rec.trigger("depot-outage:d0", t=2.5)
        assert dump["format"] == "repro.flight/1"
        assert dump["worker"] == "shard3"
        assert dump["t"] == 2.5
        (open_span,) = dump["open_spans"]
        assert open_span["name"] == "interrupted"
        assert open_span["open"] is True

    def test_span_closed_by_finish_open_is_dumped_unfinished(self):
        """The flag lands before the close notifies the recorder."""
        tracer = _tracer(lambda: 2.0)
        rec = FlightRecorder().attach(tracer)
        span = tracer.begin("xfer", t=0.5, bytes=10)
        tracer.finish_open()
        (dumped,) = rec.trigger("end")["spans"]
        assert span.attrs == {"bytes": 10, "unfinished": True}
        assert dumped["attrs"] == span.attrs
        assert dumped["end"] == 2.0

    def test_finish_open_keeps_an_explicit_unfinished_attr(self):
        tracer = _tracer(lambda: 2.0)
        rec = FlightRecorder().attach(tracer)
        tracer.begin("xfer", t=0.5, unfinished="cut")
        tracer.finish_open()
        (dumped,) = rec.trigger("end")["spans"]
        assert dumped["attrs"] == {"unfinished": "cut"}

    def test_trigger_time_defaults_to_latest_end(self):
        tracer = _tracer()
        rec = FlightRecorder().attach(tracer)
        _span(tracer, "a", 0.0, 1.0)
        _span(tracer, "b", 0.5, 4.0)
        assert rec.trigger("x")["t"] == 4.0

    def test_dumps_accumulate_and_ring_keeps_recording(self):
        tracer = _tracer()
        rec = FlightRecorder().attach(tracer)
        _span(tracer, "a", 0.0, 1.0)
        rec.trigger("first")
        _span(tracer, "b", 2.0, 3.0)
        rec.trigger("second")
        assert len(rec.dumps) == 2
        assert len(rec.dumps[1]["spans"]) == 2

    def test_write_dumps_filenames_and_content(self, tmp_path):
        tracer = _tracer()
        rec = FlightRecorder(worker="shard1").attach(tracer)
        _span(tracer, "s", 0.0, 1.0)
        rec.trigger("depot-outage:lan-depot-0")
        rec.trigger("slo breach!")
        paths = rec.write_dumps(str(tmp_path), prefix="shard1")
        names = [p.rsplit("/", 1)[-1] for p in paths]
        assert names == [
            "flight-shard1-0-depot-outage-lan-depot-0.json",
            "flight-shard1-1-slo-breach-.json",
        ]
        doc = json.loads((tmp_path / names[0]).read_text())
        assert doc["format"] == "repro.flight/1"
        assert doc["spans"][0]["name"] == "s"
