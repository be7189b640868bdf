"""Exporter/loader/report tests: Chrome trace_event JSON and its round-trip."""

import io
import json
from types import SimpleNamespace

import pytest

from repro.obs import (
    Tracer,
    chrome_trace_events,
    load_trace,
    render_breakdown_table,
    render_waterfall,
    stage_breakdown,
    trace_report,
    write_chrome_trace,
)


def _sample_tracer():
    """Two access trees (wan + hit) with stage children, plus extras."""
    clock = SimpleNamespace(now=10.0)
    t = Tracer(clock)
    wan = t.begin("access:v1", t=0.0, category="access",
                  index=0, viewset="v1")
    t.record("request-rpc", 0.0, 0.05, parent=wan, category="stage")
    t.record("queue-wait", 0.05, 0.10, parent=wan, category="stage")
    t.record("network-transfer", 0.10, 0.90, parent=wan, category="stage")
    t.record("decompress", 0.90, 1.00, parent=wan, category="stage")
    fetch = t.record("fetch:v1", 0.0, 0.9, parent=wan, category="fetch")
    fetch.event("promoted")
    wan.finish(t=1.0, source="wan", total_latency=1.0)

    hit = t.begin("access:v2", t=2.0, category="access",
                  index=1, viewset="v2")
    t.record("cache-lookup", 2.0, 2.001, parent=hit, category="stage")
    hit.finish(t=2.001, source="hit", total_latency=0.001)

    pf = t.begin("fetch:v3", t=0.5, category="prefetch", viewset="v3")
    pf.finish(t=0.8, source="wan")
    t.instant("prefetch-decision", cursor=3)
    clock.now = 0.5
    t.counter("link.wan.utilization", 0.7)
    clock.now = 10.0
    return t


def test_chrome_events_structure():
    t = _sample_tracer()
    events = chrome_trace_events(t.span_dicts(), t.counters, t.instants)
    phases = {}
    for e in events:
        phases.setdefault(e["ph"], []).append(e)
    assert phases["X"], "no complete spans"
    assert phases["C"], "no counter samples"
    assert phases["M"], "no metadata (track names)"
    assert any(e for e in phases["i"] if e["cat"] == "instant")
    # sim-seconds became microseconds
    wan = next(e for e in phases["X"] if e["name"] == "access:v1")
    assert wan["ts"] == 0.0 and wan["dur"] == pytest.approx(1e6)
    assert wan["args"]["source"] == "wan"
    # access roots and prefetch roots land on different pid lanes
    pf = next(e for e in phases["X"] if e["name"] == "fetch:v3")
    assert pf["pid"] != wan["pid"]
    # stage children share the root's track
    stage = next(e for e in phases["X"] if e["name"] == "queue-wait")
    assert (stage["pid"], stage["tid"]) == (wan["pid"], wan["tid"])


def test_chrome_round_trip(tmp_path):
    t = _sample_tracer()
    out = tmp_path / "trace.json"
    n = write_chrome_trace(t, str(out))
    doc = json.loads(out.read_text())
    assert len(doc["traceEvents"]) == n
    assert doc["otherData"]["format"] == "repro.obs/1"
    assert "metrics" in doc["otherData"]

    spans = load_trace(str(out))
    assert len(spans) == len(t.span_dicts())
    by_name = {s["name"]: s for s in spans}
    root = by_name["access:v1"]
    stage = by_name["network-transfer"]
    assert stage["parent_id"] == root["span_id"]
    assert stage["cat"] == "stage"
    assert stage["end"] - stage["start"] == pytest.approx(0.8)
    assert root["attrs"]["source"] == "wan"


def test_write_chrome_trace_accepts_span_dicts_and_filelike():
    t = _sample_tracer()
    buf = io.StringIO()
    n = write_chrome_trace(t.span_dicts(), buf)
    assert n > 0
    doc = json.loads(buf.getvalue())
    assert doc["traceEvents"]


@pytest.mark.parametrize("raw, why", [
    (b'{"a": 1}', "no traceEvents"),
    (b'{"ts": 0.0, "event": "access:v1.start"}\n{"ts": 1.0}\n',
     "not a JSON trace"),
    (b"not json at all", "not a JSON trace"),
    (b'{"traceEvents": 5}', "traceEvents is not a list"),
    (b'{"traceEvents": []}\xff', "not a JSON trace"),
], ids=["json-without-events", "jsonl", "not-json", "events-not-a-list",
        "not-utf8"])
def test_load_trace_refuses_what_is_not_a_chrome_trace(tmp_path, raw, why):
    path = tmp_path / "other.json"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=why) as err:
        load_trace(str(path))
    assert str(path) in str(err.value)


def test_stage_breakdown_groups_by_source_and_skips_non_stage():
    t = _sample_tracer()
    bd = stage_breakdown(t.span_dicts())
    assert set(bd) == {"wan", "hit"}
    assert set(bd["wan"]) == {"request-rpc", "queue-wait",
                              "network-transfer", "decompress", "total"}
    # the fetch detail span must not show up as a stage
    assert "fetch:v1" not in bd["wan"]
    assert bd["wan"]["network-transfer"]["mean"] == pytest.approx(0.8)
    assert bd["wan"]["total"]["count"] == 1.0
    assert bd["hit"]["cache-lookup"]["p50"] == pytest.approx(0.001)


def test_render_report_text(tmp_path):
    t = _sample_tracer()
    table = render_breakdown_table(stage_breakdown(t.span_dicts()))
    assert "network-transfer" in table and "wan" in table
    wf = render_waterfall(t.span_dicts(), max_accesses=1)
    assert "access #0" in wf and "access #1" not in wf
    assert "|" in wf and "#" in wf

    out = tmp_path / "trace.json"
    write_chrome_trace(t, str(out))
    text = trace_report(str(out), max_accesses=1)
    assert "per-access waterfall" in text
    assert "per-stage latency breakdown" in text
    assert "1 more accesses" in text
    no_wf = trace_report(str(out), waterfall=False)
    assert "waterfall" not in no_wf
