"""Fleet telemetry: worker export and stitching."""

from types import SimpleNamespace

import pytest

from repro.obs import Tracer, export_telemetry, stitch
from repro.streaming.metrics import DEMAND_MISS_SOURCES, AccessSource


def _worker(label, n_spans, client):
    clock = SimpleNamespace(now=0.0)
    tracer = Tracer(clock)
    for i in range(n_spans):
        root = tracer.begin("access", t=float(i), client=client)
        tracer.begin("fetch", parent=root, t=float(i)).finish(t=i + 0.4)
        root.finish(t=i + 0.5)
        clock.now = float(i)
        tracer.counter(f"{label}.queue", float(i))
    return export_telemetry(label, tracer)


class TestStitch:
    def test_ids_rebased_and_worker_attr_added(self):
        t0 = _worker("shard0", 3, "client-0")
        t1 = _worker("shard1", 2, "client-3")
        fleet = stitch([t0, t1])
        assert fleet.workers == ["shard0", "shard1"]
        span_ids = [s["span_id"] for s in fleet.spans]
        assert len(span_ids) == len(set(span_ids)), "span id collision"
        trace_ids = {s["trace_id"] for s in fleet.spans}
        assert len(trace_ids) == 5  # 3 + 2 access roots, distinct traces
        for s in fleet.spans:
            assert s["attrs"]["worker"] in ("shard0", "shard1")
        assert sum(s["attrs"]["worker"] == "shard1" for s in fleet.spans) == 4

    def test_parent_links_survive_rebasing(self):
        fleet = stitch([_worker("shard0", 2, "c0"),
                        _worker("shard1", 2, "c2")])
        by_id = {s["span_id"]: s for s in fleet.spans}
        for s in fleet.spans:
            if s["parent_id"] is not None:
                parent = by_id[s["parent_id"]]
                assert parent["attrs"]["worker"] == s["attrs"]["worker"]
                assert parent["trace_id"] == s["trace_id"]

    def test_clients_collected_from_span_attrs(self):
        fleet = stitch([_worker("shard0", 1, "client-0"),
                        _worker("shard1", 1, "client-7")])
        assert fleet.clients() == ["client-0", "client-7"]

    def test_counters_keep_namespaced_series(self):
        fleet = stitch([_worker("shard0", 1, "c0"),
                        _worker("shard1", 1, "c1")])
        names = {c["name"] for c in fleet.counters}
        assert names == {"shard0.queue", "shard1.queue"}

    def test_duplicate_worker_labels_rejected(self):
        t = _worker("shard0", 1, "c0")
        with pytest.raises(ValueError, match="duplicate"):
            stitch([t, t])

    def test_stitch_is_deterministic(self):
        telems = [_worker("shard0", 2, "c0"), _worker("shard1", 3, "c2")]
        a = stitch(telems)
        b = stitch(telems)
        assert a.spans == b.spans
        assert a.counters == b.counters

    def test_write_chrome_counts_events(self, tmp_path):
        fleet = stitch([_worker("shard0", 2, "c0")])
        out = tmp_path / "fleet.json"
        n = fleet.write_chrome(str(out))
        assert n > 0 and out.exists()


def test_miss_sources_pin_access_source_values():
    """The demand-miss pool is every source but the two local hits, and
    holds the bare value strings span attributes carry — an enum rename
    cannot silently empty the pool the span fold reads."""
    assert DEMAND_MISS_SOURCES == ("lan-depot", "wan", "server")
    hit = {AccessSource.AGENT_CACHE, AccessSource.CLIENT_RESIDENT}
    for member in AccessSource:
        assert (member in DEMAND_MISS_SOURCES) == (member not in hit)
        assert (member.value in DEMAND_MISS_SOURCES) == (member not in hit)
