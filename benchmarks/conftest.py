"""Shared fixtures for the benchmark harness.

Every benchmark writes its table to ``benchmarks/results/`` so the
regenerated data survives pytest's output capture.  The paper's figures
are not here: each is a builtin sweep spec (``python -m repro sweep run``)
whose claims ``sweep report`` checks.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


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
