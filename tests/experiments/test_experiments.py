"""Tests for the experiment drivers and reporting utilities."""


import pytest

from repro.experiments.config import (
    PAPER,
    experiment_lattice,
    experiment_resolutions,
    scale_name,
)
from repro.experiments.reporting import banner, format_series, format_table
from repro.experiments.runners import (
    StreamingSuite,
    fig07_database_size,
    text_fps,
    text_generation_time,
)
from repro.experiments.scenarios import codec_arm, viewset_size_arm
from repro.lightfield.lattice import CameraLattice


class TestReporting:
    def test_table_alignment(self):
        out = format_table(["a", "bee"], [[1, 2.5], [10, 0.001]])
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        # all rows the same width structure
        assert len(set(len(l.rstrip()) for l in lines[2:])) <= 2

    def test_table_with_title(self):
        out = format_table(["x"], [[1]], title="Figure N")
        assert "Figure N" in out

    def test_series_wraps(self):
        out = format_series("s", list(range(25)), per_line=10)
        assert out.count("\n") == 3
        assert "[ 11]" in out

    def test_banner(self):
        assert banner("hello").startswith("\n=== hello ")


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


@pytest.fixture(scope="module")
def small_suite():
    return StreamingSuite(
        lattice=CameraLattice(n_theta=6, n_phi=12, l=3),
        resolutions=(32, 48),
        config_overrides={"n_accesses": 12},
    )


class TestStreamingSuite:
    def test_run_is_memoized(self, small_suite):
        a = small_suite.run(1, 32)
        b = small_suite.run(1, 32)
        assert a is b

    def test_overrides_bypass_cache(self, small_suite):
        a = small_suite.run(1, 32)
        b = small_suite.run(1, 32, trace_seed=99)
        assert a is not b

    def test_source_shared(self, small_suite):
        assert small_suite.source(32) is small_suite.source(32)

    def test_fig08_series_lengths(self, small_suite):
        series = small_suite.fig08_decompression((32,))
        assert len(series[32]) == 12

    def test_latency_figure_has_three_cases(self, small_suite):
        data = small_suite.latency_figure(32)
        assert set(data) == {1, 2, 3}

    def test_fig12_floors_compatible(self, small_suite):
        data = small_suite.fig12_comm_latency(32)
        for values in data.values():
            assert all(v >= 0 for v in values)


class TestDrivers:
    def test_fig07_rows_structure(self):
        rows = fig07_database_size(
            resolutions=(16, 32), volume_size=16,
            lattice=CameraLattice(12, 24, 3), sample_viewsets=1,
        )
        assert [r["resolution"] for r in rows] == [16, 32]
        for r in rows:
            assert r["viewset_raw_mb"] > 0
            assert r["ratio"] > 1.0
        # quadratic growth in raw size
        assert rows[1]["viewset_raw_mb"] == pytest.approx(
            4 * rows[0]["viewset_raw_mb"], rel=0.05
        )

    def test_text_generation_structure(self):
        stats = text_generation_time(
            resolution=16, volume_size=16, sample_viewsets=1
        )
        # host timings live under the quarantined wall_clock section
        assert stats["wall_clock"]["seconds_per_viewset"] > 0
        assert stats["wall_clock"]["full_db_hours_on_32cpu"] > 0

    def test_text_fps_rows(self):
        rows = text_fps(resolutions=(32,), modes=("nearest",), frames=2,
                        volume_size=16)
        assert len(rows) == 1
        assert rows[0]["wall_clock"]["fps"] > 0

    def test_ablation_codec_rows(self):
        # the arms BENCH_ablations.json's codec family is built from
        rows = [codec_arm("codec", name, resolution=24, volume_size=16)
                for name in ("zlib-6", "delta-zlib-6")]
        for r in rows:
            assert r["ratio"] > 1.0
            assert r["level"] == 6
            assert r["wall_clock"]["compress_s"] >= 0

    def test_ablation_viewset_size_rows(self):
        rows = [viewset_size_arm("viewset_size", l, resolution=24)
                for l in (2, 3, 6)]
        assert [r["l"] for r in rows] == [2, 3, 6]
        assert rows[-1]["payload_mb"] > rows[0]["payload_mb"]
