"""``benchmarks/check_regression.py``, the CI guard over fresh artifacts.

The script is not a package module, so it is loaded by path and driven
through ``main`` with ``--baseline`` files in place of a git ref.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "benchmarks" / "check_regression.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def run(checker, tmp_path, capsys):
    """``run(fresh, committed, *flags)`` -> (exit status, stdout)."""

    def _run(fresh, committed, *flags):
        paths = []
        for name, doc in (("fresh", fresh), ("committed", committed)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        status = checker.main([paths[0], "--baseline", paths[1], *flags])
        return status, capsys.readouterr().out

    return _run


def walls(**leaves):
    return {"wall_clock": {"runs": {"8": leaves}}}


@pytest.mark.parametrize("fresh, status", [(70.0, 1), (80.0, 0), (200.0, 0)])
def test_higher_is_better_fails_only_on_a_drop(run, fresh, status):
    got, _ = run(walls(events_per_second=fresh),
                 walls(events_per_second=100.0),
                 "--direction", "higher", "--threshold", "0.25")
    assert got == status


@pytest.mark.parametrize("committed, fresh, status", [
    (1.0, 1.3, 1), (1.0, 1.2, 0), (1.0, 0.5, 0), (0.0, 0.1, 1)])
def test_lower_is_better_fails_only_on_a_rise(run, committed, fresh, status):
    got, _ = run(walls(compress_s=fresh), walls(compress_s=committed),
                 "--direction", "lower", "--threshold", "0.25")
    assert got == status


@pytest.mark.parametrize("direction", ["higher", "lower"])
def test_equal_zeros_are_no_change(run, direction):
    doc = {"fleet": {"8/8": {"demand_miss_p99_s": 0.0}}}
    status, out = run(doc, doc, "--section", "fleet",
                      "--select", "*demand_miss_p99_s",
                      "--direction", direction, "--threshold", "0.01")
    assert status == 0
    assert "REGRESSION" not in out


def test_a_short_run_is_skipped_under_min_wall(run):
    fresh = walls(wall_s=0.1, events_per_second=10.0)
    committed = walls(wall_s=0.1, events_per_second=100.0)
    status, out = run(fresh, committed, "--select", "*.events_per_second",
                      "--min-wall", "0.2")
    assert status == 0
    assert "not compared" in out
    assert run(fresh, committed, "--select", "*.events_per_second")[0] == 1


def test_keys_on_one_side_only_are_reported_not_compared(run):
    fresh = {"wall_clock": {"runs": {"8": {"events_per_second": 100.0},
                                     "256": {"events_per_second": 1.0}}}}
    committed = {"wall_clock": {"runs": {"8": {"events_per_second": 100.0},
                                         "64": {"events_per_second": 1e9}}}}
    status, out = run(fresh, committed)
    assert status == 0
    assert "present on one side only: runs.256.events_per_second, " \
           "runs.64.events_per_second" in out
