"""CLI end-to-end tests (in-process via cli.main)."""

from unittest import mock

import numpy as np
import pytest

from repro.cli import build_parser, main

from ..render.reference_image import load_ppm


@pytest.fixture(scope="module")
def built_db(tmp_path_factory):
    out = tmp_path_factory.mktemp("dbs") / "lfd"
    rc = main([
        "build", "--volume", "neghip", "--size", "16",
        "--lattice", "6x12x3", "--resolution", "16",
        "--unshaded", "--out", str(out),
    ])
    assert rc == 0
    return out


class TestBuild:
    def test_build_creates_database_dir(self, built_db):
        assert (built_db / "index.json").exists()
        assert list(built_db.glob("vs-*.lfvs"))

    def test_build_from_raw(self, tmp_path):
        from repro.volume import neg_hip

        vol = neg_hip(size=12)
        lo, hi = vol.value_range
        brick = np.rint((vol.data - lo) / (hi - lo) * 255.0).astype(np.uint8)
        raw = tmp_path / "vol.raw"
        raw.write_bytes(brick.transpose(2, 1, 0).tobytes())  # x fastest
        out = tmp_path / "lfd"
        rc = main([
            "build", "--raw", str(raw), "--shape", "12,12,12",
            "--lattice", "6x12x3", "--resolution", "8",
            "--unshaded", "--out", str(out),
        ])
        assert rc == 0
        assert (out / "index.json").exists()

    def test_raw_without_shape_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["build", "--raw", "x.raw", "--out", str(tmp_path / "o")])

    def test_raw_with_a_nonpositive_axis_names_it(self, tmp_path):
        raw = tmp_path / "k.raw"
        raw.write_bytes(bytes(1024))  # what -4 x -4 x 64 multiplies out to
        with pytest.raises(SystemExit) as exc:
            main(["build", "--raw", str(raw), "--shape=-4,-4,64",
                  "--out", str(tmp_path / "o")])
        assert "nx = -4" in str(exc.value.code)


class TestInfo:
    def test_info_prints_accounting(self, built_db, capsys):
        rc = main(["info", "--db", str(built_db)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert "ratio" in out
        assert "6 x 12" in out


class TestRender:
    def test_render_produces_image(self, built_db, tmp_path):
        img_path = tmp_path / "view.ppm"
        rc = main([
            "render", "--db", str(built_db), "--theta", "80",
            "--phi", "30", "--size", "32", "--out", str(img_path),
        ])
        assert rc == 0
        img = load_ppm(img_path)
        assert img.shape == (32, 32, 3)
        assert img.max() > 0  # there is content

    def test_render_interpolation_modes(self, built_db, tmp_path):
        for mode in ("uv-nearest", "nearest"):
            img_path = tmp_path / f"{mode}.ppm"
            rc = main([
                "render", "--db", str(built_db), "--size", "16",
                "--interpolation", mode, "--out", str(img_path),
            ])
            assert rc == 0


class TestSession:
    def test_session_table(self, capsys):
        rc = main([
            "session", "--cases", "1,2", "--resolution", "32",
            "--accesses", "8", "--lattice", "6x12x3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "case 1" in out and "case 2" in out
        assert "hit rate" in out

    def test_session_output_is_byte_identical_run_to_run(self, capsys):
        """The front end needs no opt-in to be reproducible: simulated time
        is the only clock behind every number it prints."""
        outs = []
        for _ in range(2):
            assert main(["session", "--cases", "1,2,3", "--accesses", "8",
                         "--resolution", "32", "--lattice", "6x12x3"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "case 3" in outs[0]


class TestMulticlientTrace:
    def test_unsharded_trace_artifact(self, tmp_path, capsys):
        trace = tmp_path / "mc.json"
        rc = main([
            "multiclient", "--clients", "3", "--accesses", "6",
            "--resolution", "32", "--lattice", "6x12x3",
            "--trace", str(trace),
        ])
        assert rc == 0
        import json
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]

    def test_sharded_trace_is_stitched(self, tmp_path):
        trace = tmp_path / "fleet.json"
        rc = main([
            "multiclient", "--clients", "4", "--accesses", "6",
            "--resolution", "32", "--lattice", "6x12x3",
            "--shards", "2", "--trace", str(trace),
        ])
        assert rc == 0
        import json
        doc = json.loads(trace.read_text())
        workers = {e["args"]["worker"] for e in doc["traceEvents"]
                   if e.get("ph") == "X"
                   and "worker" in e.get("args", {})}
        assert workers == {"shard0", "shard1"}


class TestFleetReport:
    def test_report_sections_and_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "fleet.json"
        flight = tmp_path / "flight"
        rc = main([
            "fleet-report", "--clients", "4", "--shards", "2",
            "--accesses", "8", "--resolution", "32",
            "--lattice", "6x12x3",
            "--outage-depot", "lan-depot-0", "--outage-shard", "0",
            "--trace", str(trace), "--flight-dir", str(flight),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# fleet report" in out
        assert "## depot load" in out
        assert "miss p99 s" in out
        assert "load skew" in out
        assert trace.exists()
        assert list(flight.glob("flight-shard0-*.json"))

    def test_an_unknown_outage_depot_exits_before_any_run(self, capsys):
        with mock.patch("repro.lon.shard.run_sharded_session") as run:
            with pytest.raises(SystemExit) as exc:
                main(["fleet-report", "--outage-depot", "nosuch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "nosuch" in err
        run.assert_not_called()

    def test_report_without_fault_or_trace(self, capsys):
        rc = main([
            "fleet-report", "--clients", "2", "--shards", "2",
            "--accesses", "8", "--resolution", "32",
            "--lattice", "6x12x3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "QGR" in out
        assert "flight dumps" not in out


class TestTraceReport:
    def test_reads_a_saved_trace(self, tmp_path, capsys):
        trace = tmp_path / "s.json"
        assert main(["session", "--cases", "3", "--accesses", "4",
                     "--lattice", "6x12x3", "--resolution", "16",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace)]) == 0
        assert "4 accesses" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ['{"a": 1}', "not json"],
                             ids=["json-without-events", "not-json"])
    def test_a_file_that_is_not_a_trace_exits_with_one_line(self, tmp_path,
                                                            text):
        path = tmp_path / "other.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["trace-report", str(path)])
        message = str(exc.value.code)
        assert message.startswith("trace-report: ") and str(path) in message
        assert "\n" not in message


class TestInputErrors:
    """A bad value exits 2 before any work, with one error line that names
    its flag, never a traceback."""

    @pytest.mark.parametrize("argv, flag", [
        (["session", "--cases", "4"], "--cases"),
        (["session", "--lattice", "5x12x3"], "--lattice"),
        (["multiclient", "--clients", "0"], "--clients"),
        (["fleet-report", "--shards", "0"], "--shards"),
        (["session", "--accesses", "0"], "--accesses"),
        (["build", "--workers", "0", "--out", "{missing}"], "--workers"),
        (["sweep", "run", "nosuch"], "spec"),
        (["render", "--db", "{missing}", "--out", "{missing}.ppm"], "--db"),
    ], ids=["cases", "lattice", "clients", "shards", "accesses", "workers",
         "spec", "db"])
    def test_a_bad_value_exits_2_naming_its_flag(self, argv, flag, tmp_path,
                                                 capsys):
        argv = [a.format(missing=tmp_path / "nosuch") for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: " in errors[0]


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])


class TestSweepReport:
    def test_a_named_artifact_not_on_disk_is_an_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "report", "--artifacts", "latncy, fps"])
        assert "latncy" in str(exc.value.code)
        assert "fps" not in str(exc.value.code)

    def test_artifact_names_are_stripped(self, capsys):
        assert main(["sweep", "report", "--artifacts", " fps , qgr "]) == 0
        out = capsys.readouterr().out
        assert "## Section 4.2 — client synthesis rate" in out
        assert "## Section 4.2 — Quality Guaranteed Rate" in out
        assert "| fps.30fps_low_res |" in out

    def test_a_false_claim_exits_nonzero_and_names_it(self, tmp_path, capsys):
        import json
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        doc = json.loads((repo / "BENCH_qgr.json").read_text())
        for row in doc["rows"]:
            if row["case"] == 3:
                row["hidden_fraction"] = 0.4
        (tmp_path / "BENCH_qgr.json").write_text(json.dumps(doc))
        rc = main(["sweep", "report", "--artifacts", "qgr",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "qgr.case3_hidden" in capsys.readouterr().err
