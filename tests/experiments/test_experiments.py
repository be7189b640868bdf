"""Tests for the figure scenarios, the scaling knobs and table rendering."""

from dataclasses import replace

import pytest

from repro.experiments import run_sweep, spec_named
from repro.experiments.artifacts import payload_fingerprint
from repro.experiments.claims import PAPER
from repro.experiments.config import (
    experiment_lattice,
    experiment_resolutions,
    scale_name,
)
from repro.experiments import scenarios
from repro.experiments.report import format_series, md_table
from repro.experiments.scenarios import (
    _source,
    codec_arm,
    database_size_point,
    fps_point,
    generation_viewset_point,
    observability_point,
    viewset_size_arm,
)
from repro.lightfield.lattice import CameraLattice
from repro.obs import health


class TestReporting:
    def test_table_alignment(self):
        out = md_table(["a", "bee"], [[1, 2.5], [10, 0.001], [True, [3, 4]]])
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[0] == "| a | bee |"
        # every line is one markdown row with the same number of cells
        assert {line.count("|") for line in lines} == {3}
        assert lines[2:] == ["| 1 | 2.50 |", "| 10 | 0.001 |",
                             "| yes | 3, 4 |"]

    def test_series_wraps(self):
        out = format_series("s", list(range(25)))
        assert out.count("\n") == 3
        assert "[ 11]" in out


class TestConfig:
    def test_scale_name_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_name() == "default"

    def test_scale_name_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert scale_name() == "paper"
        assert experiment_lattice().n_theta == 72

    def test_bad_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(ValueError):
            scale_name()

    def test_paper_numbers_present(self):
        assert PAPER.fig7_sizes_gb[600][0] == 14.0
        assert PAPER.wan_rate_initial_case2 == 0.69
        assert PAPER.n_accesses == 58

    def test_small_scale_shapes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        lat = experiment_lattice()
        assert lat.n_viewsets == (4, 8)
        assert len(experiment_resolutions()) == 3


#: the tiny rig of the golden below: 6x12 l=3 lattice, 12 accesses
_TINY = {"n_accesses": 12, "lattice": [6, 12, 3]}

#: sha256 over the float-hex per-access latency and comm series of the
#: 3 cases x (32, 48) on the tiny rig, captured at PR 15 through the
#: memoizing per-figure suite class that PR 16 deleted — the sweep engine
#: changed who runs the sessions, not what they compute
LATENCY_GOLDEN = (
    "72544880a711e8830b162296e0f52dd395d4204730f8443013ede02af0d96e8c"
)


@pytest.fixture(scope="module")
def tiny_latency():
    spec = replace(
        spec_named("latency"),
        axes={"case": [1, 2, 3], "resolution": [32, 48]}, fixed=_TINY,
    )
    return run_sweep(spec, write_artifact=False)


class TestFigureSpecs:
    def test_latency_series_golden(self, tiny_latency):
        series = [[int(r["case"][-1]), r["resolution"], r["latency_s"],
                   r["comm_s"]] for r in tiny_latency.rows]
        assert [s[:2] for s in series] == [
            [case, res] for case in (1, 2, 3) for res in (32, 48)]
        assert payload_fingerprint(series) == LATENCY_GOLDEN

    def test_series_lengths(self, tiny_latency):
        for row in tiny_latency.rows:
            assert row["accesses"] == 12
            for key in ("latency_s", "comm_s", "source"):
                assert len(row[key]) == 12

    def test_three_cases(self, tiny_latency):
        assert ({r["case"] for r in tiny_latency.rows}
                == {"case1", "case2", "case3"})

    def test_comm_series_nonnegative(self, tiny_latency):
        for row in tiny_latency.rows:
            assert all(v >= 0 for v in row["comm_s"])
            # comm is one component of the client-observed wait
            assert all(c <= t for c, t in
                       zip(row["comm_s"], row["latency_s"]))

    def test_source_shared(self):
        lat = CameraLattice(n_theta=6, n_phi=12, l=3)
        assert _source(32, lat) is _source(32, lat)
        assert _source(32, lat) is not _source(48, lat)

    def test_modeled_decompress_averages_over_fetches(self, tiny_latency):
        # every fetched payload is charged bytes x the modeled constant,
        # so the mean over fetches is one payload's cost — not diluted by
        # the zero-cost hits
        from repro.streaming.client import CPU_SECONDS_PER_BYTE

        lat = CameraLattice(n_theta=6, n_phi=12, l=3)
        for row in tiny_latency.rows:
            sizes = [len(_source(row["resolution"], lat).payload((i, j)))
                     for i in range(2) for j in range(4)]
            lo = min(sizes) * CPU_SECONDS_PER_BYTE
            hi = max(sizes) * CPU_SECONDS_PER_BYTE
            assert lo - 1e-6 <= row["modeled_decompress_s"] <= hi + 1e-6

    def test_assembled_cross_case_tables(self, tiny_latency):
        doc = tiny_latency.doc
        assert [t["resolution"] for t in doc["comm_tiers"]] == [32, 48]
        for tier in doc["comm_tiers"]:
            assert tier["hit_s"] == PAPER.tier_hit     # floored hits
            assert tier["wan_s"] > 100 * tier["hit_s"]
        by = {(r["case"], r["resolution"]): r for r in tiny_latency.rows}
        for rates in doc["access_rates"]:
            res = rates["resolution"]
            phase3 = max(by[("case3", res)]["initial_phase"], 1)
            assert rates["case3_initial_phase"] == phase3
            head = by[("case2", res)]["source"][:phase3]
            assert rates["case2_wan_rate_initial"] == (
                sum(s in ("wan", "server") for s in head) / len(head))

    def test_qgr_assembler_means_over_seeds(self, monkeypatch):
        # (case 2, 4x speed, 48², threshold 0.1 s) on the tiny rig: the
        # value PR 15's ``qgr_sweep`` printed for seeds (7, 11, 13)
        monkeypatch.setattr(health, "QGR_THRESHOLD_S", 0.1)
        monkeypatch.setattr(scenarios, "experiment_lattice",
                            lambda: CameraLattice(*_TINY["lattice"]))
        spec = replace(
            spec_named("qgr"), axes={"case": [2], "speed": [4.0]},
            seeds=(7, 11, 13),
            fixed={"n_accesses": _TINY["n_accesses"], "resolution": 48},
        )
        result = run_sweep(spec, write_artifact=False)
        assert [r["seed"] for r in result.rows] == [7, 11, 13]
        (mean,) = result.doc["rows"]
        assert (mean["case"], mean["speed"]) == (2, 4.0)
        assert mean["hidden_fraction"].hex() == "0x1.b6db6db6db6dcp-1"
        assert mean["hidden_fraction"] == sum(
            r["hidden_fraction"] for r in result.rows) / 3

    def test_decompression_quarantines_the_real_inflate(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        monkeypatch.setattr(scenarios, "INFLATE_REPEATS", 1)
        result = run_sweep(spec_named("decompression"), write_artifact=False)
        modeled = [r["modeled_decompress_s"] for r in result.rows]
        assert modeled == sorted(modeled) and modeled[0] > 0
        for row, wall in zip(result.rows, result.walls):
            assert not set(row) & set(wall)
            assert 0 < wall["mean_inflate_s"] <= wall["max_inflate_s"]
            assert wall["synthesize_s"] > 0 and wall["compress_s"] > 0


class TestDrivers:
    def test_fig07_rows_structure(self, monkeypatch):
        monkeypatch.setattr(scenarios, "VOLUME_SIZE", 16)
        rows = [database_size_point(res) for res in (16, 32)]
        assert [r["resolution"] for r in rows] == [16, 32]
        for r in rows:
            assert r["viewset_raw_mb"] > 0
            assert r["ratio"] > 1.0
            assert r["wall_clock"]["compress_s_per_viewset"] >= 0
        # quadratic growth in raw size
        assert rows[1]["viewset_raw_mb"] == pytest.approx(
            4 * rows[0]["viewset_raw_mb"], rel=0.05
        )

    def test_text_generation_structure(self, monkeypatch):
        monkeypatch.setattr(scenarios, "VOLUME_SIZE", 16)
        monkeypatch.setattr(scenarios, "SAMPLE_VIEWSETS", 1)
        monkeypatch.setattr(scenarios, "_generation_resolution", lambda: 16)
        stats = generation_viewset_point()
        assert stats["views_rendered"] == 36
        # host timings live under the quarantined wall_clock section
        assert stats["wall_clock"]["seconds_per_viewset"] > 0
        assert stats["wall_clock"]["full_db_hours_on_32cpu"] > 0

    def test_text_fps_rows(self, monkeypatch):
        monkeypatch.setattr(scenarios, "VOLUME_SIZE", 16)
        monkeypatch.setattr(scenarios, "FPS_FRAMES", 2)
        row = fps_point(32, "nearest")
        assert (row["resolution"], row["mode"], row["frames"]) == (
            32, "nearest", 2)
        assert row["wall_clock"]["fps"] > 0
        assert row["wall_clock"]["runs_per_frame"] >= 1.0

    def test_observability_point_runs_the_seed_it_is_given(self, monkeypatch):
        # seed used to be accepted and ignored: every seed ran trace 7
        monkeypatch.setattr(scenarios, "OBSERVABILITY_REPEATS", 1)
        spans = {seed: observability_point(32, 6, seed=seed)["spans"]
                 for seed in (7, 11)}
        assert spans[7] != spans[11]

    def test_ablation_codec_rows(self, monkeypatch):
        # the arms BENCH_ablations.json's codec family is built from
        monkeypatch.setattr(scenarios, "VOLUME_SIZE", 16)
        rows = [codec_arm(name, resolution=24)
                for name in ("zlib-6", "delta-zlib-6")]
        for r in rows:
            assert r["ratio"] > 1.0
            assert r["level"] == 6
            assert r["wall_clock"]["compress_s"] >= 0

    def test_ablation_viewset_size_rows(self):
        rows = [viewset_size_arm(l, resolution=24)
                for l in (2, 3, 6)]
        assert [r["l"] for r in rows] == [2, 3, 6]
        assert rows[-1]["payload_mb"] > rows[0]["payload_mb"]
