"""Integration tests for end-to-end session tracing (repro.obs wired in).

The acceptance bar from the observability issue: a traced session must give
every WAN access a span tree whose queue-wait / network-transfer / decompress
stage children account for the client's measured total latency, and the
trace-report tooling must render the per-stage breakdown per AccessSource
tier from a saved trace file.
"""

import pytest

from repro.lightfield.lattice import CameraLattice
from repro.lightfield.source import SyntheticSource
from repro.obs.export import load_trace, write_chrome_trace
from repro.obs.metrics import fold_metrics
from repro.obs.report import access_roots, stage_breakdown
from repro.streaming.metrics import AccessSource
from repro.streaming.session import SessionConfig, run_session


@pytest.fixture(scope="module")
def source():
    lattice = CameraLattice(n_theta=12, n_phi=24, l=3)  # 4x8 view sets
    return SyntheticSource(lattice, resolution=64)


@pytest.fixture(scope="module")
def traced(source):
    """One traced Case-2 session (WAN fetches + cache hits, no staging)."""
    m = run_session(
        source,
        SessionConfig(case=2, n_accesses=25, trace_seed=11, tracing=True),
    )
    spans = m.tracer.span_dicts()
    children = {}
    for s in spans:
        if s["parent_id"] is not None:
            children.setdefault(s["parent_id"], []).append(s)
    return m, spans, children


def _stages(children, root):
    return {str(c["name"]): c for c in children.get(root["span_id"], [])
            if c.get("cat") == "stage"}


class TestTracedSession:
    def test_session_results_unchanged_by_tracing(self, source, traced):
        """Tracing must observe, not perturb: same sources, same sim times."""
        m, _, _ = traced
        base = run_session(
            source,
            SessionConfig(case=2, n_accesses=25, trace_seed=11),
        )
        assert [a.source for a in m.accesses] == [
            a.source for a in base.accesses
        ]
        assert m.comm_latency_series() == base.comm_latency_series()

    def test_every_access_has_a_root_span(self, traced):
        m, spans, _ = traced
        roots = access_roots(spans)
        assert len(roots) == len(m.accesses) == 25
        by_index = {(r.get("attrs") or {})["index"]: r for r in roots}
        for a in m.accesses:
            root = by_index[a.index]
            assert root["attrs"]["source"] == a.source.value

    def test_wan_access_stage_tree_accounts_for_total_latency(self, traced):
        """The acceptance criterion: queue-wait + network-transfer +
        decompress (+ rpc/ship) children sum to within 5% of the client's
        measured total latency for every WAN-served access."""
        m, spans, children = traced
        roots = {(r.get("attrs") or {})["index"]: r
                 for r in access_roots(spans)}
        wan = [a for a in m.accesses if a.source in
               (AccessSource.WAN_DEPOT, AccessSource.SERVER_RUNTIME)]
        assert wan, "traced case 2 session produced no WAN accesses"
        for a in wan:
            stages = _stages(children, roots[a.index])
            assert {"queue-wait", "network-transfer",
                    "decompress"} <= set(stages), (
                f"access #{a.index} missing stages: {sorted(stages)}")
            total = sum(float(s["end"]) - float(s["start"])
                        for s in stages.values())
            assert total == pytest.approx(a.total_latency, rel=0.05), (
                f"access #{a.index}: stages sum {total} vs "
                f"total {a.total_latency}")

    def test_cache_hit_stage_tree(self, traced):
        m, spans, children = traced
        roots = {(r.get("attrs") or {})["index"]: r
                 for r in access_roots(spans)}
        hits = [a for a in m.accesses
                if a.source is AccessSource.AGENT_CACHE]
        assert hits, "traced session produced no agent-cache hits"
        for a in hits:
            stages = _stages(children, roots[a.index])
            assert "cache-lookup" in stages
            assert "network-transfer" not in stages
            assert "queue-wait" not in stages
            total = sum(float(s["end"]) - float(s["start"])
                        for s in stages.values())
            assert total == pytest.approx(a.total_latency, rel=0.05)

    def test_wan_root_has_transfer_detail_spans(self, traced):
        """Besides the exact stage partition, the demand tree carries the
        fetch and per-block transfer detail spans."""
        m, spans, children = traced
        roots = {(r.get("attrs") or {})["index"]: r
                 for r in access_roots(spans)}
        wan = [a for a in m.accesses
               if a.source is AccessSource.WAN_DEPOT]
        assert wan
        detailed = 0
        for a in wan:
            kids = children.get(roots[a.index]["span_id"], [])
            fetch = [c for c in kids if str(c["name"]).startswith("fetch:")]
            if not fetch:
                continue  # coalesced onto an earlier access's flight
            detailed += 1
            grand = children.get(fetch[0]["span_id"], [])
            assert any(str(g["name"]).startswith("xfer:dl:")
                       for g in grand), "fetch span has no transfer children"
            assert any(str(g["name"]) == "dvs-query" for g in grand)
        assert detailed > 0

    def test_breakdown_per_source_tier(self, traced):
        m, _, _ = traced
        bd = m.breakdown()
        assert "wan" in bd and "hit" in bd
        assert "network-transfer" in bd["wan"]
        assert "cache-lookup" in bd["hit"]
        # WAN network time dominates; a hit's lookup is sub-millisecond
        assert bd["wan"]["network-transfer"]["mean"] > 0.05
        assert bd["hit"]["cache-lookup"]["mean"] < 0.001

    def test_samplers_fed_counters_and_registry(self, traced):
        m, _, _ = traced
        names = {c["name"] for c in m.tracer.counters}
        assert any(n.startswith("link.") for n in names)
        assert any(n.startswith("scheduler.") for n in names)
        assert any(n.startswith("depot.") for n in names)
        assert any(n.startswith("agent.cache.") for n in names)
        gauges = fold_metrics([], m.tracer.counters)["gauges"]
        assert set(gauges) == names

    def test_samplers_write_one_row_per_tick(self, traced):
        """A tick is one ``(t, names, values)`` row; every tick of a
        sampler shares one names tuple (the topology does not change)."""
        m, _, _ = traced
        rows = m.tracer.rows
        assert rows and all(type(r) is tuple and len(r) == 3 for r in rows)
        assert len({id(names) for _, names, _ in rows}) == 4
        assert sum(len(names) for _, names, _ in rows) == len(
            m.tracer.counters)

    def test_trace_report_round_trip(self, traced, tmp_path):
        m, _, _ = traced
        out = tmp_path / "session-trace.json"
        n = write_chrome_trace(m.tracer, str(out))
        assert n > 0
        spans = load_trace(str(out))
        bd = stage_breakdown(spans)
        assert "wan" in bd and "network-transfer" in bd["wan"]
        from repro.obs.report import trace_report
        text = trace_report(str(out), max_accesses=3)
        assert "per-stage latency breakdown" in text
        assert "network-transfer" in text

    def test_write_chrome_trace_accepts_path_object(self, traced, tmp_path):
        """The CLI passes a pathlib.Path, not a str — both must work."""
        m, _, _ = traced
        out = tmp_path / "path-arg-trace.json"
        n = write_chrome_trace(m.tracer, out)
        assert n > 0 and out.exists()
        assert load_trace(str(out))

    def test_no_open_spans_after_run(self, traced):
        _, spans, _ = traced
        # finish_open ran; anything still marked unfinished is a background
        # flight cut off at the horizon, never a demand access root
        for s in spans:
            if (s.get("attrs") or {}).get("unfinished"):
                assert s.get("cat") != "access"


class TestTracingDisabled:
    def test_default_session_records_nothing(self, source):
        m = run_session(
            source, SessionConfig(case=2, n_accesses=10, trace_seed=3)
        )
        assert m.tracer is None
        assert m.breakdown() == {}
