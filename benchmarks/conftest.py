"""Shared fixtures for the benchmark harness.

Figures 9-12 and the Section 4.3 statistics all derive from the same nine
streaming sessions (Cases 1-3 × three resolutions), so the builtin
``latency`` sweep runs once per pytest session and every one of those
benchmarks reads its merged result.  Every benchmark writes its
paper-style table/series to ``benchmarks/results/`` so the regenerated data
survives pytest's output capture.
"""

from __future__ import annotations

from pathlib import Path
import pytest

from repro.experiments import SweepResult, run_sweep, spec_named

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def latency() -> SweepResult:
    """The ``latency`` sweep: 3 cases × 3 resolutions, run once.

    Simulated time is the sessions' only clock (decompression is charged
    at ``cpu_seconds_per_byte``), so every number in the merged
    ``BENCH_latency.json`` is bit-identical across machines and runs.
    """
    result = run_sweep(spec_named("latency"), workers=1)
    print(f"wrote {result.artifact_path}")
    return result


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def report(results_dir, request):
    """Write (and echo) a named report file for this benchmark."""

    def _write(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(text)

    return _write
