"""Depot-fleet health: skew figures, QGR pooling, depot series recovery."""

from types import SimpleNamespace

import pytest

from repro.obs import (
    demand_miss_histogram,
    depot_stats,
    fleet_health,
    fleet_qgr,
    gini,
    load_skew,
)
from repro.obs.health import QGR_WARMUP
from repro.streaming.metrics import AccessRecord, AccessSource


def _access(index, latency, source=AccessSource.WAN_DEPOT, t=0.0):
    return AccessRecord(
        index=index, viewset_id=f"vs-{index}", source=source,
        request_time=t, comm_latency=latency, decompress_seconds=0.0,
        total_latency=latency,
    )


class TestGini:
    def test_balanced_is_zero(self):
        assert gini([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_single_hotspot_approaches_one(self):
        # one depot serving everything among n: G = (n-1)/n
        assert gini([0, 0, 0, 100]) == pytest.approx(0.75)

    def test_known_two_point_value(self):
        # {1, 3}: G = (2*(1*1 + 2*3)/(2*4)) - 3/2 = 0.25
        assert gini([1.0, 3.0]) == pytest.approx(0.25)

    def test_empty_and_all_zero(self):
        assert gini([]) == 0.0
        assert gini([0.0, 0.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([1.0, -1.0])


class TestLoadSkew:
    def test_balanced_fleet(self):
        skew = load_skew({"a": 10.0, "b": 10.0})
        assert skew["max_over_mean"] == pytest.approx(1.0)
        assert skew["gini"] == pytest.approx(0.0)
        assert skew["total_bytes"] == 20.0

    def test_hotspot(self):
        skew = load_skew({"a": 30.0, "b": 10.0, "c": 20.0})
        assert skew["max_over_mean"] == pytest.approx(1.5)
        assert skew["depots"] == 3.0

    def test_empty_fleet_is_neutral(self):
        skew = load_skew({})
        assert skew["max_over_mean"] == 1.0
        assert skew["gini"] == 0.0


class TestDepotStatsFromRegistry:
    def test_recovers_depot_gauges_across_namespaces(self):
        rows = []
        for shard in ("shard0", "shard1"):
            depot = f"{shard}.depot.lan-depot-0"
            names = (f"{depot}.bytes_served", f"{depot}.queue_depth")
            rows += [(0.0, names, (100.0, 3.0)), (0.5, names[1:], (1.0,))]
        stats = depot_stats(rows)
        names = [s.name for s in stats]
        assert names == ["shard0.depot.lan-depot-0",
                         "shard1.depot.lan-depot-0"]
        assert stats[0].bytes_served == 100.0
        assert stats[0].queue_depth_peak == 3.0
        assert stats[0].queue_depth_last == 1.0

    def test_ignores_unrelated_gauges(self):
        assert depot_stats([(0.0, ("agent.cache.bytes",), (5.0,))]) == []


class TestFleetQGR:
    def test_pools_steady_state_across_clients(self):
        fast = [_access(i, 0.01) for i in range(QGR_WARMUP + 1, QGR_WARMUP + 5)]
        slow = [_access(i, 1.0) for i in range(QGR_WARMUP + 1, QGR_WARMUP + 5)]
        assert fleet_qgr(fast + slow) == pytest.approx(0.5)

    def test_warmup_excluded(self):
        warm = [_access(i, 5.0) for i in range(QGR_WARMUP + 1)]
        steady = [_access(QGR_WARMUP + 1, 0.01)]
        assert fleet_qgr(warm + steady) == 1.0

    def test_empty_pool_is_zero(self):
        assert fleet_qgr([_access(0, 0.01)]) == 0.0


class TestMissPool:
    def test_histogram_counts_only_misses(self):
        accesses = [
            _access(0, 0.01, AccessSource.AGENT_CACHE),
            _access(1, 0.02, AccessSource.CLIENT_RESIDENT),
            _access(2, 0.30, AccessSource.LAN_DEPOT),
            _access(3, 0.60, AccessSource.WAN_DEPOT),
            _access(4, 0.90, AccessSource.SERVER_RUNTIME),
        ]
        h = demand_miss_histogram(accesses)
        assert h.total == 3
        assert h.min_seen == 0.30


class TestFleetHealth:
    def test_summary_combines_all_figures(self):
        rows = [(0.0, ("shard0.depot.d0.bytes_served",
                       "shard0.depot.d1.bytes_served"), (90.0, 10.0))]
        accesses = [_access(i, 0.01 if i % 2 else 0.4)
                    for i in range(QGR_WARMUP + 5)]
        # what fleet_health reads of a ShardedResult
        result = SimpleNamespace(
            per_client=[SimpleNamespace(accesses=accesses)],
            telemetries=lambda: [SimpleNamespace(rows=rows)])
        fh = fleet_health(result)
        assert fh.n_clients == 1
        assert fh.accesses == QGR_WARMUP + 5
        assert fh.misses == QGR_WARMUP + 5  # all WAN misses
        assert 0.0 <= fh.qgr <= 1.0
        assert fh.demand_miss_p99_s >= fh.demand_miss_p50_s
        assert fh.load_skew_max_over_mean == pytest.approx(1.8)
        assert [d.name for d in fh.depots] == [
            "shard0.depot.d0", "shard0.depot.d1"]
