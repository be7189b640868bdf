"""Sweep-engine tests: spec expansion, artifacts, checkpoint/resume.

The load-bearing guarantee under test is **resume byte-identity**: a sweep
killed mid-batch and resumed (at any worker count) must merge to an
artifact byte-identical to the uninterrupted run.  The toy scenarios here
are deterministic pure functions of their params, so every identity
assertion is exact.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.artifacts import (
    bench_document,
    payload_fingerprint,
    render_bench,
    split_wall_clock,
    write_bench,
)
from repro.experiments.assemble import assemble_scale, assemble_scheduling
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.executor import run_sweep
from repro.experiments.report import render_report
from repro.experiments.spec import (
    SweepSpec,
    builtin_specs,
    load_spec_file,
    spec_named,
)

_HERE = "tests.experiments.test_sweep_engine"
REPO_ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# toy scenarios (resolved by dotted name, incl. from worker processes)
# ----------------------------------------------------------------------
def toy_scenario(x: int, y: int = 0, seed: int = 7) -> dict:
    """Deterministic pure function of its params — no wall section."""
    return {"x": x, "y": y, "seed": seed,
            "value": (x * 1000 + y * 10 + seed) / 7.0}


def toy_walled(x: int, seed: int = 7) -> dict:
    """Deterministic payload plus a (non-deterministic-looking) wall."""
    return {"x": x, "seed": seed, "value": x * seed,
            "wall_clock": {"wall_s": 0.001 * (x + 1)}}


def toy_failing(x: int, seed: int = 7) -> dict:
    if x == 2:
        raise ValueError("boom at x=2")
    return {"x": x, "seed": seed}


def toy_spec(**kwargs) -> SweepSpec:
    defaults = dict(
        name="toy",
        scenario=f"{_HERE}.toy_scenario",
        axes={"x": [0, 1, 2], "y": [0, 5]},
        artifact="toy",
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


# ----------------------------------------------------------------------
# spec expansion
# ----------------------------------------------------------------------
class TestSpec:
    def test_expansion_order_and_ids_stable(self):
        spec = toy_spec()
        a, b = spec.expand(), spec.expand()
        assert [r.run_id for r in a] == [r.run_id for r in b]
        assert [r.index for r in a] == list(range(6))
        # cartesian product in declaration order: x outer, y inner
        assert [(r.params["x"], r.params["y"]) for r in a] == [
            (0, 0), (0, 5), (1, 0), (1, 5), (2, 0), (2, 5)]

    def test_seeds_multiply_runs(self):
        spec = toy_spec(seeds=(7, 11))
        runs = spec.expand()
        assert len(runs) == 12
        assert [r.params["seed"] for r in runs[:2]] == [7, 11]

    def test_point_scenario_override(self):
        spec = SweepSpec(
            name="mixed", scenario=f"{_HERE}.toy_scenario",
            points=[{"x": 1}, {"x": 2, "_scenario": f"{_HERE}.toy_walled"}],
        )
        runs = spec.expand()
        assert runs[0].scenario.endswith("toy_scenario")
        assert runs[1].scenario.endswith("toy_walled")
        # the routing key never leaks into params or labels
        assert "_scenario" not in runs[1].params
        assert runs[1].label == "2"

    def test_identity_pins_the_plan(self):
        assert toy_spec().identity == toy_spec().identity
        assert (toy_spec().identity
                != toy_spec(axes={"x": [0, 1], "y": [0, 5]}).identity)
        assert toy_spec().identity != toy_spec(seeds=(11,)).identity

    def test_with_overrides(self):
        spec = toy_spec().with_overrides(seeds=[3])
        assert spec.seeds == (3,)

    def test_json_roundtrip(self, tmp_path):
        spec = toy_spec(seeds=(7, 11), title="Toy sweep")
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = load_spec_file(path)
        assert loaded.identity == spec.identity

    def test_toml_roundtrip(self, tmp_path):
        path = tmp_path / "toy.toml"
        path.write_text(
            "[sweep]\n"
            'name = "toy"\n'
            f'scenario = "{_HERE}.toy_scenario"\n'
            'artifact = "toy"\n'
            "seeds = [7]\n"
            "[sweep.axes]\n"
            "x = [0, 1, 2]\n"
            "y = [0, 5]\n"
        )
        assert load_spec_file(path).identity == toy_spec().identity

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "scenario": "a.b",
                                    "wrokers": 4}))
        with pytest.raises(ValueError, match="wrokers"):
            load_spec_file(path)

    def test_builtin_registry_covers_the_committed_artifacts(self):
        specs = builtin_specs()
        artifacts = {s.artifact for s in specs.values()}
        assert {"generation", "streaming", "observability", "scale",
                "ablations", "latency", "smoke", "database_size",
                "decompression", "fps", "qgr"} <= artifacts
        with pytest.raises(KeyError, match="builtin specs"):
            spec_named("nope")


# ----------------------------------------------------------------------
# artifact layer
# ----------------------------------------------------------------------
class TestArtifacts:
    def test_fingerprint_ignores_wall_clock(self):
        a = {"v": 1.25, "wall_clock": {"wall_s": 0.5}}
        b = {"v": 1.25, "wall_clock": {"wall_s": 99.0}}
        assert payload_fingerprint(a) == payload_fingerprint(b)
        assert payload_fingerprint(a) != payload_fingerprint({"v": 1.26})

    def test_fingerprint_survives_json_roundtrip(self):
        # tuples serialize as lists; the fingerprint must not care
        row = {"pair": (1, 2.5), "xs": [0.1, 0.2]}
        thawed = json.loads(json.dumps(row))
        assert payload_fingerprint(row) == payload_fingerprint(thawed)

    def test_split_wall_clock(self):
        row, wall = split_wall_clock({"a": 1, "wall_clock": {"t": 2.0}})
        assert row == {"a": 1}
        assert wall == {"t": 2.0}
        assert split_wall_clock({"a": 1}) == ({"a": 1}, None)
        with pytest.raises(TypeError):
            split_wall_clock({"wall_clock": 3.0})

    def test_document_rejects_wall_in_payload(self):
        with pytest.raises(ValueError):
            bench_document({"wall_clock": {}})

    def test_write_bench_stamps_meta_and_is_byte_stable(self, tmp_path):
        def document():
            return bench_document({"v": 1}, {"wall_s": 0.1}, seed=3)

        path = write_bench("t", document(), out_dir=tmp_path)
        doc = json.loads(path.read_text())
        assert doc["meta"]["format"] == "repro-bench/1"
        assert doc["meta"]["seed"] == 3
        assert doc["v"] == 1 and doc["wall_clock"] == {"wall_s": 0.1}
        again = write_bench("t", document(), out_dir=tmp_path)
        assert path.read_bytes() == again.read_bytes()


# ----------------------------------------------------------------------
# checkpoint store
# ----------------------------------------------------------------------
class TestCheckpoints:
    def test_save_load_roundtrip(self, tmp_path):
        spec = toy_spec()
        run = spec.expand()[0]
        store = CheckpointStore(tmp_path, spec)
        store.save(run, {"x": 0, "value": 1.0})
        rec = store.load(run)
        assert rec is not None and rec.row == {"x": 0, "value": 1.0}

    def test_stale_spec_identity_rejected(self, tmp_path):
        spec = toy_spec()
        run = spec.expand()[0]
        CheckpointStore(tmp_path, spec).save(run, {"x": 0})
        other = toy_spec(seeds=(11,))
        assert CheckpointStore(tmp_path, other).load(other.expand()[0]) is None

    def test_tampered_record_reexecutes(self, tmp_path):
        spec = toy_spec()
        run = spec.expand()[0]
        store = CheckpointStore(tmp_path, spec)
        path = store.save(run, {"x": 0, "value": 1.0})
        doc = json.loads(path.read_text())
        doc["row"]["value"] = 2.0  # row no longer matches its fingerprint
        path.write_text(json.dumps(doc))
        assert store.load(run) is None

    def test_clear_counts_records(self, tmp_path):
        spec = toy_spec()
        store = CheckpointStore(tmp_path, spec)
        for run in spec.expand()[:3]:
            store.save(run, {"x": run.params["x"]})
        assert store.clear() == 3
        assert store.clear() == 0


# ----------------------------------------------------------------------
# executor: parallelism, checkpoint/resume byte-identity
# ----------------------------------------------------------------------
class TestExecutor:
    def test_parallel_matches_serial(self, tmp_path):
        spec = toy_spec()
        serial = run_sweep(spec, workers=1, out_dir=tmp_path / "a")
        parallel = run_sweep(spec, workers=4, out_dir=tmp_path / "b")
        assert render_bench(serial.doc) == render_bench(parallel.doc)
        assert (tmp_path / "a" / "BENCH_toy.json").read_bytes() == \
            (tmp_path / "b" / "BENCH_toy.json").read_bytes()

    @pytest.mark.parametrize("resume_workers", [1, 4])
    def test_interrupted_sweep_resumes_byte_identical(
        self, tmp_path, resume_workers
    ):
        """Kill mid-batch (drop half the records), resume, byte-compare."""
        spec = toy_spec(seeds=(7, 11))  # 12 runs
        ckpt = tmp_path / "ckpt"
        baseline = run_sweep(spec, workers=1, checkpoint_dir=ckpt,
                             out_dir=tmp_path, write_artifact=True)
        reference = render_bench(baseline.doc)
        records = sorted(ckpt.glob("run_*.json"))
        assert len(records) == 12
        # simulate a mid-batch kill: every other record survives
        dropped = records[1::2]
        for path in dropped:
            path.unlink()

        resumed = run_sweep(spec, workers=resume_workers,
                            checkpoint_dir=ckpt, resume=True,
                            out_dir=tmp_path, write_artifact=True)
        assert resumed.reused == 6
        assert resumed.executed == 6
        assert render_bench(resumed.doc) == reference
        assert resumed.payload_fingerprint == baseline.payload_fingerprint

    def test_resume_with_complete_checkpoints_recomputes_nothing(
        self, tmp_path
    ):
        spec = toy_spec()
        ckpt = tmp_path / "ckpt"
        first = run_sweep(spec, workers=1, checkpoint_dir=ckpt,
                          write_artifact=False)
        second = run_sweep(spec, workers=1, checkpoint_dir=ckpt,
                           resume=True, write_artifact=False)
        assert second.executed == 0
        assert second.reused == len(spec.expand())
        assert render_bench(second.doc) == render_bench(first.doc)

    def test_fresh_run_clears_stale_records(self, tmp_path):
        spec = toy_spec()
        ckpt = tmp_path / "ckpt"
        run_sweep(spec, workers=1, checkpoint_dir=ckpt, write_artifact=False)
        redo = run_sweep(spec, workers=1, checkpoint_dir=ckpt,
                         write_artifact=False)  # resume=False clears
        assert redo.executed == len(spec.expand())

    def test_resume_without_dir_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_sweep(toy_spec(), resume=True, write_artifact=False)

    def test_wall_sections_quarantined_and_fingerprint_stable(self, tmp_path):
        spec = toy_spec(scenario=f"{_HERE}.toy_walled",
                        axes={"x": [1, 2, 3]})
        result = run_sweep(spec, workers=1, out_dir=tmp_path)
        for row in result.rows:
            assert "wall_clock" not in row
        assert result.walls == [{"wall_s": pytest.approx(0.001 * (x + 1))}
                                for x in (1, 2, 3)]
        # the doc carries the walls, but its identity ignores them
        assert "wall_clock" in result.doc
        rerun = run_sweep(spec, workers=1, out_dir=tmp_path)
        assert rerun.payload_fingerprint == result.payload_fingerprint

    def test_worker_error_propagates(self):
        spec = toy_spec(scenario=f"{_HERE}.toy_failing",
                        axes={"x": [0, 1, 2, 3]})
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(spec, workers=2, write_artifact=False)
        with pytest.raises(ValueError, match="boom"):
            run_sweep(spec, workers=1, write_artifact=False)


# ----------------------------------------------------------------------
# assemblers (shape parity with the committed artifacts)
# ----------------------------------------------------------------------
class TestAssemblers:
    def test_assemble_scale_reproduces_committed_keys(self):
        spec = SweepSpec(name="scale", scenario="x.y", points=[],
                         artifact="scale")
        rows = []
        walls = []
        for n in (1, 2):
            rows.append({
                "regime": "scaling", "n_clients": n,
                "events_fired": 100 * n, "accesses": 8 * n,
                "recomputes": 1, "vectorized": 0, "coalesced": 0,
            })
            walls.append({"wall_s": 1.0 * n, "events_per_second": 100.0})
        rows.append({"regime": "contended", "n_clients": 2,
                     "events_fired": 900, "accesses": 16, "recomputes": 40,
                     "vectorized": 30, "coalesced": 70,
                     "per_client_accesses": [8, 8]})
        walls.append({"wall_s": 3.0, "events_per_second": 300.0})
        rows.append({"regime": "sharded", "n_clients": 2, "n_shards": 2,
                     "events_fired": 200, "accesses": 16})
        walls.append({"makespan_s": 0.5, "cpu_s": 0.9,
                      "events_per_second": 400.0,
                      "events_per_core_second": 222.2})
        payload, wall = assemble_scale(spec, rows, walls)
        assert payload["client_counts"] == [1, 2]
        assert [r["n_clients"] for r in payload["runs"]] == [1, 2]
        assert all("regime" not in r for r in payload["runs"])
        assert set(wall) == {"runs", "contended", "sharded"}
        assert wall["runs"] == {
            "1": {"wall_s": 1.0, "events_per_second": 100.0},
            "2": {"wall_s": 2.0, "events_per_second": 100.0},
        }
        assert payload["contended"] == {
            "n_clients": 2, "events_fired": 900, "accesses": 16,
            "recomputes": 40, "vectorized": 30, "coalesced": 70,
        }
        assert wall["contended"]["2"]["events_per_second"] == 300.0
        assert payload["sharded"]["events_fired"] == {"2": 200}
        assert wall["sharded"]["2"]["makespan_s"] == 0.5

    def test_assemble_scheduling_speedups(self):
        spec = SweepSpec(name="sched", scenario="x.y", points=[],
                         fixed={"resolution": 64}, artifact="streaming")
        rows = [
            {"arm": "staging+off", "demand_miss_latency_s": 0.4},
            {"arm": "staging+weighted", "demand_miss_latency_s": 0.1},
            {"arm": "staging+strict", "demand_miss_latency_s": 0.2},
        ]
        payload, wall = assemble_scheduling(spec, rows, [None] * 3)
        assert wall is None
        assert payload["speedup_weighted_vs_off"] == 4.0
        assert payload["speedup_strict_vs_off"] == 2.0
        assert payload["resolution"] == 64
        assert "arm" not in payload["arms"]["staging+off"]


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
class TestReport:
    def test_render_report_from_artifact(self, tmp_path):
        spec = toy_spec()
        run_sweep(spec, workers=1, out_dir=tmp_path)
        text, failed = render_report(["toy"], out_dir=tmp_path)
        assert text.startswith("# ")
        assert failed == []              # no claims are declared on "toy"
        assert "| x | y |" in text.replace("  ", " ") or "x" in text
        assert "fingerprint" in text

    def test_render_report_skips_missing_artifacts(self, tmp_path):
        run_sweep(toy_spec(), workers=1, out_dir=tmp_path)
        text, _ = render_report(["toy", "absent"], out_dir=tmp_path)
        assert "## toy" in text          # the present artifact renders
        assert "absent" not in text      # the missing one is skipped
        empty, _ = render_report(["absent"], out_dir=tmp_path)
        assert "no BENCH artifacts found" in empty


# ----------------------------------------------------------------------
# CLI wiring (subprocess: the real `python -m repro sweep ...`)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("argv", [["sweep", "list"]])
def test_cli_sweep_list(argv):
    out = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
             "HOME": str(Path.home()), "REPRO_SCALE": "small"},
    )
    assert out.returncode == 0, out.stderr
    for name in ("smoke", "latency", "generation", "scheduling", "scale",
                 "ablations", "database_size", "decompression", "fps",
                 "qgr"):
        assert name in out.stdout


def test_cli_sweep_run_resume_report_roundtrip(tmp_path):
    """End-to-end: spec file -> run -> resume -> report, via the CLI."""
    spec_file = tmp_path / "toy.toml"
    spec_file.write_text(
        "[sweep]\n"
        'name = "toy"\n'
        f'scenario = "{_HERE}.toy_scenario"\n'
        'artifact = "toy"\n'
        "[sweep.axes]\n"
        "x = [0, 1]\n"
        "y = [0, 5]\n"
    )
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
           "HOME": str(Path.home()), "REPRO_SCALE": "small"}

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", "sweep", *argv],
            capture_output=True, text=True, cwd=REPO_ROOT, env=env,
        )

    ckpt = tmp_path / "ckpt"
    run = cli("run", "--spec-file", str(spec_file),
              "--workers", "2", "--checkpoint-dir", str(ckpt),
              "--out-dir", str(tmp_path))
    assert run.returncode == 0, run.stderr
    artifact = tmp_path / "BENCH_toy.json"
    baseline = artifact.read_bytes()

    # drop half the records and resume: artifact must come back identical
    records = sorted(ckpt.glob("run_*.json"))
    for path in records[::2]:
        path.unlink()
    artifact.unlink()
    res = cli("resume", "--spec-file", str(spec_file),
              "--workers", "2", "--checkpoint-dir", str(ckpt),
              "--out-dir", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert artifact.read_bytes() == baseline

    rep = cli("report", "--artifacts", "toy",
              "--out-dir", str(tmp_path))
    assert rep.returncode == 0, rep.stderr
    assert "toy" in rep.stdout and "fingerprint" in rep.stdout
