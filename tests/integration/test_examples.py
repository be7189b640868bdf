"""Smoke tests: every shipped example runs end-to-end at reduced scale."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(monkeypatch, name, argv, tmp_path=None):
    args = [str(EXAMPLES / name)] + argv
    monkeypatch.setattr(sys, "argv", args)
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


def test_quickstart(monkeypatch, tmp_path, capsys):
    run_example(
        monkeypatch, "quickstart.py",
        ["--size", "16", "--resolution", "16", "--out", str(tmp_path)],
    )
    out = capsys.readouterr().out
    assert "done." in out
    assert "PSNR" in out
    assert list(tmp_path.glob("frame_*.ppm"))


def test_remote_session(monkeypatch, capsys):
    run_example(
        monkeypatch, "remote_session.py",
        ["--resolution", "48", "--accesses", "10", "--lattice", "6x12x3"],
    )
    out = capsys.readouterr().out
    assert "case 3" in out
    assert "Cases 1-3 summary" in out


def test_depot_faults(monkeypatch, capsys):
    run_example(monkeypatch, "depot_faults.py", [])
    out = capsys.readouterr().out
    assert "failover: True" in out
    assert "failed as expected" in out
    assert "done." in out


@pytest.mark.slow
def test_pda_client(monkeypatch, capsys):
    run_example(
        monkeypatch, "pda_client.py",
        ["--resolution", "48", "--accesses", "8"],
    )
    out = capsys.readouterr().out
    assert "QGR" in out
