"""Fleet observability through the sharded layer (the acceptance path).

A traced sharded run must hand back one stitched fleet timeline that
fleet health reads, and an injected depot outage must leave a
flight-recorder dump holding the spans that preceded the fault.
"""

import json

import pytest

from repro.lightfield import CameraLattice, SyntheticSource
from repro.lon.shard import run_sharded_session
from repro.obs import fleet_health
from repro.streaming import MultiClientConfig, SessionConfig


def _source():
    return SyntheticSource(
        CameraLattice(n_theta=9, n_phi=18, l=3), resolution=32)


def _config(n_clients=8, tracing=True, n_accesses=8):
    return MultiClientConfig(
        base=SessionConfig(
            case=3, n_accesses=n_accesses, trace_seed=7, tracing=tracing,
        ),
        n_clients=n_clients, seed_stride=101, start_stagger=0.25,
    )


@pytest.fixture(scope="module")
def traced_run():
    return run_sharded_session(_source(), _config(), n_shards=4, workers=1)


class TestStitchedFleet:
    def test_every_shard_exports_telemetry(self, traced_run):
        assert all(s.telemetry is not None for s in traced_run.shards)
        assert [s.telemetry.worker for s in traced_run.shards] == [
            "shard0", "shard1", "shard2", "shard3"]

    def test_stitched_timeline_covers_fleet(self, traced_run):
        fleet = traced_run.stitched()
        assert len(fleet.workers) == 4
        # every client appears via the access-root client attribute
        assert len({s["attrs"].get("client") for s in fleet.spans}
                   - {None}) == 8
        span_ids = [s["span_id"] for s in fleet.spans]
        assert len(span_ids) == len(set(span_ids))

    def test_fleet_health_from_stitched_registry(self, traced_run):
        fh = fleet_health(traced_run)
        assert fh.n_clients == 8
        assert fh.accesses == 64
        assert fh.load_skew_max_over_mean >= 1.0
        # depot series arrive namespaced per shard
        assert any(d.name.startswith("shard0.depot.") for d in fh.depots)

    def test_untraced_run_has_no_telemetry(self):
        result = run_sharded_session(
            _source(), _config(n_clients=4, tracing=False),
            n_shards=2, workers=1)
        assert all(s.telemetry is None for s in result.shards)
        with pytest.raises(ValueError, match="without tracing"):
            result.stitched()


class TestFaultFlightDump:
    def test_outage_triggers_dump_with_preceding_spans(self, tmp_path):
        faults = [{"kind": "depot-outage", "depot": "lan-depot-0",
                   "start": 10.0, "duration": 5.0, "shard": 1}]
        result = run_sharded_session(
            _source(), _config(n_clients=4), n_shards=2, workers=1,
            faults=faults, flight_dir=str(tmp_path))
        (path,) = result.flight_dumps
        assert "flight-shard1-0-depot-outage-lan-depot-0" in path
        dump = json.loads(open(path).read())
        assert dump["format"] == "repro.flight/1"
        assert dump["worker"] == "shard1"
        assert dump["t"] == 10.0
        assert dump["spans"], "no spans preceding the fault"
        assert all(s["end"] <= 10.0 for s in dump["spans"])

    def test_fault_shard_filter_restricts_dump(self, tmp_path):
        faults = [{"kind": "depot-outage", "depot": "lan-depot-0",
                   "start": 10.0, "duration": 5.0, "shard": 0}]
        result = run_sharded_session(
            _source(), _config(n_clients=4), n_shards=2, workers=1,
            faults=faults, flight_dir=str(tmp_path))
        assert len(result.flight_dumps) == 1
        assert "shard0" in result.flight_dumps[0]

    def test_unknown_fault_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            run_sharded_session(
                _source(), _config(n_clients=2), n_shards=1, workers=1,
                faults=[{"kind": "meteor-strike"}],
                flight_dir=str(tmp_path))
