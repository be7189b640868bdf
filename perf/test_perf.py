"""Tests of the benchmark itself: ``pytest perf/`` (not part of tier 1).

Smoke-sized passes of every workload through the real command line, the
tracer's self-time arithmetic, the event → layer mapping, and wrapper
removal.  The reference-equality gate (``--scale reference --seed 7``) is
the ``slow`` test at the bottom.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perf import compare  # noqa: E402
from perf.trace import (  # noqa: E402
    LAYERS, Instrumentation, SpanTracer, layer_of_module,
    wrapped_entry_points,
)
from perf.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_cli(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_and_shape():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_exactly_the_declared_metrics(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run_cli("--workload", workload, "--seed", "3",
                         "--seconds", "0.2", "--trace", str(trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
            continue
        value = {k: v["value"] for k, v in result["metrics"].items()}
        self_s = sum(v for k, v in value.items() if k.endswith("self_s")
                     or k in ("lightfield.viewset.from_bytes_s",
                              "lightfield.compression.compress_s",
                              "lightfield.compression.decompress_s"))
        assert self_s == pytest.approx(value["harness.traced_wall_s"],
                                       rel=0.05)  # medians of passes
        obs_live = workload == "fleet_traced"
        assert (value["obs.spans_recorded"] > 0) == obs_live
        assert (value["obs.sampler_ticks"] > 0) == obs_live
        if workload == "fleet_steady":
            assert value["lon.network.flushes"] == 0
        if workload.startswith(("fleet", "browse")):
            # every fired event maps to a declared layer
            assert value["unknown.self_s"] < 0.01 * value[
                "harness.traced_wall_s"]
            assert value["lon.simtime.events_fired"] > 0


def test_self_time_arithmetic_on_a_synthetic_nest():
    tr = SpanTracer()
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 10.0, 11.0])
    import perf.trace as trace_module

    real = trace_module.perf_counter
    trace_module.perf_counter = lambda: next(ticks)
    try:
        tr.enter("harness", "root")             # 0
        tr.enter("lon.network", "a")            # 1
        tr.enter("lon.ibp", "b")                # 2
        tr.exit()                               # 4   b: 2 s, self 2
        tr.enter("lon.ibp", "b")                # 5
        tr.exit()                               # 6   b: 1 s, self 1
        tr.exit()                               # 10  a: 9 s, self 6
        tr.exit()                               # 11  root: 11 s, self 2
    finally:
        trace_module.perf_counter = real
    assert tr.self_s["lon.ibp"] == 3.0
    assert tr.self_s["lon.network"] == 6.0
    assert tr.self_s["harness"] == 2.0
    assert tr.root_s == 11.0 == sum(tr.self_s.values())
    assert tr.calls == {"b": 2, "a": 1, "root": 1}
    parents = [e["args"]["parent"] for e in tr.chrome_events()]
    assert parents == [-1, 0, 1, 1]


def test_every_repro_module_maps_to_a_declared_layer():
    modules = [p.relative_to(ROOT / "src").with_suffix("")
               for p in (ROOT / "src" / "repro").rglob("*.py")]
    for module in modules:
        dotted = ".".join(module.parts)
        assert layer_of_module(dotted) in LAYERS
    assert layer_of_module("repro.lon.network") == "lon.network"
    assert layer_of_module("repro.obs.samplers") == "obs"
    assert layer_of_module("repro.streaming.server") == "streaming.other"
    assert layer_of_module("json") == "unknown"


def test_wrappers_are_removed_after_a_traced_run():
    before = {(c, m): c.__dict__[m] for c, m in wrapped_entry_points()}
    tracer = SpanTracer()
    workload = WORKLOADS["fleet_contended"]()
    state = workload.setup(3)
    with Instrumentation(tracer):
        assert any(c.__dict__[m] is not f for (c, m), f in before.items())
        workload.unit(state, 3, 0, span=tracer.span)
    assert tracer.calls["Network.transfer"] > 0
    assert all(c.__dict__[m] is f for (c, m), f in before.items())
    assert all(q.on_fire is None for q in tracer.seen("EventQueue"))


def test_nothing_private_or_knob_setting_in_perf():
    private = re.compile(r"^\s*from repro[\w.]* import .*\b_\w+", re.M)
    module = re.compile(r"^\s*(?:from|import) repro[\w.]*\._\w+", re.M)
    knobs = re.compile(r"(network_rebalance|network_vectorize_threshold|"
                       r"scheduler_vectorize_threshold)\s*=")
    for path in (ROOT / "perf").glob("*.py"):
        if path.name == "test_perf.py":
            continue
        text = path.read_text()
        assert not private.search(text), path
        assert not module.search(text), path
        assert not knobs.search(text), path
        assert "experiments.scenarios" not in text, path


def test_compare_verdicts():
    a = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    assert compare.verdict(a, a, "lower", 0.1) == "unchanged"
    assert compare.verdict(a, [x * 1.2 for x in a], "lower", 0.1) == "regressed"
    assert compare.verdict(a, [x * 0.8 for x in a], "lower", 0.1) == "improved"
    assert compare.verdict(a, [x * 0.8 for x in a], "higher", 0.1) == "regressed"
    assert compare.verdict(a, [x * 1.01 for x in a[::-1]], "lower",
                           0.1) == "unchanged"
    noisy = [1.0, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 0.6, 1.5]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert compare.verdict([1.0], [1.05], "lower", 0.1) == "unresolved"
    assert compare.verdict([7.0], [7.0], "lower", 0.1) == "unchanged"


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["fleet_steady", "fleet_crossing",
                                      "browse_paper"])
def test_reference_scale_reproduces_the_committed_artifacts(workload):
    """52 316 events / 0.3498 s, 90 031 events / 960 accesses, 0.017209 s."""
    result = run_cli("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--scale", "reference")
    assert result["correct"] and result["failed"] == 0
