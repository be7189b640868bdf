"""Experiment scaling knobs.

The paper's full database is a 72 × 144 camera lattice (288 view sets).
Streaming dynamics depend on per-view-set payload sizes (which we always
keep at paper scale: l = 6, resolutions 200-600) but only weakly on the
*number* of view sets, so the default experiment grid halves each lattice
axis to keep single-core runtimes sane.  Set ``REPRO_SCALE=paper`` for the
full grid or ``REPRO_SCALE=small`` for CI-speed smoke runs.
"""

from __future__ import annotations

import os
from typing import Tuple

from ..lightfield.lattice import CameraLattice

__all__ = ["scale_name", "scale_small", "experiment_lattice",
           "experiment_resolutions"]


def scale_name() -> str:
    """Current scale: ``small``, ``default`` or ``paper``."""
    name = os.environ.get("REPRO_SCALE", "default").lower()
    if name not in ("small", "default", "paper"):
        raise ValueError(f"REPRO_SCALE must be small/default/paper, got {name}")
    return name


def scale_small() -> bool:
    """True at the CI smoke scale (``REPRO_SCALE=small``)."""
    return scale_name() == "small"


def experiment_lattice() -> CameraLattice:
    """The lattice used by streaming experiments at the current scale."""
    return {
        "small": CameraLattice(n_theta=12, n_phi=24, l=3),
        "default": CameraLattice(n_theta=36, n_phi=72, l=6),
        "paper": CameraLattice(n_theta=72, n_phi=144, l=6),
    }[scale_name()]


def experiment_resolutions() -> Tuple[int, ...]:
    """Sample-view resolutions for the latency figures (9-12)."""
    return {
        "small": (64, 96, 160),
        "default": (200, 300, 500),
        "paper": (200, 300, 500),
    }[scale_name()]
