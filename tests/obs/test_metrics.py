"""Unit tests for the log-scale histogram and the metrics fold."""

import pytest

from repro.obs import LogHistogram, Tracer, fold_metrics


def test_gauge_tracks_extremes():
    series = [{"name": "cache.fill", "t": float(i), "value": v}
              for i, v in enumerate([0.5, 0.2, 0.8])]
    g = fold_metrics([], series)["gauges"]["cache.fill"]
    assert g == {"value": 0.8, "min": 0.2, "max": 0.8, "samples": 3}


def test_histogram_bucket_edges_are_geometric():
    h = LogHistogram("lat")
    assert len(h.edges) == 40
    assert h.edges[-1] == pytest.approx(1.0)
    ratios = [b / a for a, b in zip(h.edges, h.edges[1:])]
    assert all(r == pytest.approx(10 ** 0.1) for r in ratios)


def test_histogram_quantiles_have_relative_resolution():
    h = LogHistogram("lat")
    values = [1e-3] * 50 + [1e-2] * 45 + [0.5] * 5
    for v in values:
        h.observe(v)
    assert h.total == 100
    assert h.quantile(0.5) == pytest.approx(1e-3, rel=0.15)
    assert h.quantile(0.95) == pytest.approx(1e-2, rel=0.15)
    assert h.quantile(0.99) == pytest.approx(0.5, rel=0.15)
    p = h.percentiles()
    assert set(p) == {"p50", "p95", "p99"}
    assert h.mean == pytest.approx(sum(values) / 100)


def test_histogram_under_and_overflow():
    h = LogHistogram("lat")
    h.observe(1e-6)
    h.observe(5.0)
    assert h.underflow == 1 and h.overflow == 1
    assert h.quantile(0.0) <= 1e-4
    assert h.quantile(1.0) == 5.0
    # nothing underflowed: q=0 is the lowest populated bucket, not ``lo``
    above = LogHistogram("lat")
    above.observe(0.5)
    above.observe(0.6)
    assert above.min_seen / above.growth < above.quantile(0.0) <= 0.6
    with pytest.raises(ValueError):
        h.observe(-1.0)
    assert h.min_seen == 1e-6 and h.max_seen == 5.0


def test_histogram_empty_and_bad_args():
    h = LogHistogram("lat")
    assert h.quantile(0.5) == 0.0
    assert h.mean == 0.0
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_registry_snapshot_shape():
    t = Tracer(clock=lambda: 0.0)
    t.counter("b", 1.5)
    t.record("access:v1", 0.0, 0.01, category="access",
             source="wan", total_latency=0.01)
    t.record("access:v2", 1.0, 1.0001, category="access",
             source="hit", total_latency=1e-4)
    t.begin("access:v3", t=2.0, category="access")  # cut off at the horizon
    snap = fold_metrics(t.span_dicts(), t.counters)
    assert snap["counters"] == {}
    assert snap["gauges"]["b"]["value"] == 1.5
    assert snap["gauges"]["b"]["samples"] == 1
    assert snap["histograms"]["fleet.access_latency"]["count"] == 2
    miss = snap["histograms"]["fleet.demand_miss_latency"]
    assert miss["count"] == 1 and miss["min"] == miss["max"] == 0.01
    assert {"p50", "p95", "p99"} <= set(miss)
    assert "fleet_workers" not in snap
