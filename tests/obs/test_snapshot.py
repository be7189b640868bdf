"""A trace file's ``otherData.metrics`` is a pure function of the events
written beside it, and equals what the parent commit's second store held.

The property rebuilds the snapshot from the file alone; the two Chrome pins
hold the session CLI's and the CI ``fleet-report`` rig's files to the
sha256 recorded at the parent of the PR that deleted ``MetricsRegistry``.
The stitched-series pin was recorded at the parent of the PR that stored
sampler ticks as rows.
"""

import hashlib
import json
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.lightfield import CameraLattice, SyntheticSource
from repro.lon.shard import run_sharded_session
from repro.obs import (
    Tracer,
    export_telemetry,
    fold_metrics,
    load_trace,
    stitch,
    write_chrome_trace,
)
from repro.streaming import MultiClientConfig, SessionConfig

SOURCES = ["client", "hit", "lan-depot", "wan", "server"]

#: (start, latency, source, finished) per access root
accesses = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.sampled_from(SOURCES),
        st.booleans(),
    ),
    max_size=30,
)
#: (series index, value) per sample — ints and floats, as samplers emit
samples = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.one_of(st.integers(min_value=0, max_value=10**6),
                  st.floats(min_value=0.0, max_value=1.0)),
    ),
    max_size=40,
)


def _tracer(label, accesses, samples):
    clock = SimpleNamespace(now=0.0)
    tracer = Tracer(clock)
    for start, latency, source, finished in accesses:
        root = tracer.begin("access:v", t=start, category="access")
        tracer.record("decompress", start, start + latency, parent=root,
                      category="stage")
        if finished:
            root.finish(t=start + latency, source=source,
                        total_latency=latency)
    for k, (series, value) in enumerate(samples):
        clock.now = 0.5 * k
        tracer.row((f"{label}depot.d{series}.queue_depth",), (value,))
    clock.now = 200.0
    tracer.finish_open()
    return tracer


def _series_of(doc):
    return [{"name": e["name"], "t": e["ts"] / 1e6,
             "value": e["args"]["value"]}
            for e in doc["traceEvents"] if e["ph"] == "C"]


@given(accesses=accesses, samples=samples,
       other=st.none() | st.tuples(accesses, samples))
@settings(max_examples=60, deadline=None)
def test_embedded_snapshot_is_the_fold_of_the_file(
        tmp_path_factory, accesses, samples, other):
    path = tmp_path_factory.mktemp("trace") / "t.json"
    if other is None:
        write_chrome_trace(_tracer("", accesses, samples), path)
    else:
        stitch([
            export_telemetry("shard0", _tracer("shard0.", accesses, samples)),
            export_telemetry("shard1", _tracer("shard1.", *other)),
        ]).write_chrome(path)
    doc = json.loads(path.read_text())
    embedded = doc["otherData"]["metrics"]
    assert embedded == fold_metrics(load_trace(str(path)), _series_of(doc))
    prefix = "" if other is None else "shard0."
    hist = embedded["histograms"].get(
        prefix + "fleet.access_latency", {"count": 0})
    assert hist["count"] == sum(1 for a in accesses if a[3])
    # the workers the file's own spans name
    assert embedded.get("fleet_workers", []) == ([] if other is None else [
        w for w, a in (("shard0", accesses), ("shard1", other[0])) if a])


# ----------------------------------------------------------------------
# pins recorded at the parent commit
# ----------------------------------------------------------------------
def _sha(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _by_value(obj):
    """Ints read as floats: the parent's merge protocol ``float()``-ed
    integer samples (``155877.0``) that the ``C`` events beside them, and
    now the snapshot, carry as written (``155877``)."""
    if isinstance(obj, dict):
        return {k: _by_value(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_by_value(v) for v in obj]
    if isinstance(obj, int) and not isinstance(obj, bool):
        return float(obj)
    return obj


def _pins(path):
    doc = json.loads(path.read_text())
    metrics = doc["otherData"]["metrics"]
    assert not [g for g in metrics["gauges"] if g.endswith(".used_bytes")]
    return _sha(doc["traceEvents"]), _sha(_by_value(metrics))


def test_session_trace_equals_the_parents(tmp_path, capsys):
    out = tmp_path / "session.json"
    main(["session", "--cases", "3", "--accesses", "8", "--lattice",
          "9x18x3", "--resolution", "32", "--trace", str(out)])
    capsys.readouterr()
    assert _pins(out) == (
        "16dfc2c524c60610af8a2870215b151c6317793d34ad6e4da1c57e3a81e5b724",
        # the parent's snapshot less its seven ``depot.*.used_bytes`` keys
        "6e88be778d60770ff3b6535a966536d457b9d1374328c41b60e996dfb7db08a8",
    )


def test_fleet_report_series_equal_the_parents(tmp_path):
    """The ``fleet-report`` rig below, through the library: its stitched
    series list, pinned before the series store kept rows."""
    config = MultiClientConfig(
        base=SessionConfig(case=3, n_accesses=10, trace_seed=7,
                           tracing=True),
        n_clients=16, seed_stride=101, start_stagger=1.0,
    )
    sharded = run_sharded_session(
        SyntheticSource(CameraLattice(n_theta=9, n_phi=18, l=3), 48),
        config, n_shards=8, workers=1, window=30.0,
        faults=[{"kind": "depot-outage", "depot": "lan-depot-0",
                 "start": 10.0, "duration": 5.0, "shard": 3}],
        flight_dir=str(tmp_path))
    assert _sha(sharded.stitched().counters) == (
        "946b7a915a37287a048465546ca0d0cbf4335e5ff47558351fbeed5fbf3b9435")


def test_fleet_report_trace_equals_the_parents(tmp_path, capsys):
    """The CI ``fleet-obs`` rig: 16 clients, 8 shards, one depot outage."""
    out = tmp_path / "fleet-trace.json"
    main(["fleet-report", "--clients", "16", "--shards", "8",
          "--accesses", "10", "--outage-depot", "lan-depot-0",
          "--outage-shard", "3", "--trace", str(out),
          "--flight-dir", str(tmp_path / "flight")])
    capsys.readouterr()
    assert _pins(out) == (
        "d8bfdc62eef5a4d964dd9a820744562acbf6632cee942f665f21a959fe848b3b",
        # the parent's snapshot less its 56 ``used_bytes`` keys
        "49df906bb3a198f1cbd27b8f2483f1ad8451ef4ef8a5d2b4d7263992b9c2e75b",
    )
