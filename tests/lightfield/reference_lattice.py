"""Test-side oracle: the numpy bodies of ``CameraLattice``'s scalar methods.

These are the implementations ``repro.lightfield.lattice`` shipped before
the cursor path moved to plain-float math: each one calls the array routine
``continuous_index`` on 0-d arrays and wraps it in scalar ``np.clip`` /
``np.rint`` / ``np.hypot``, and ``quadrant`` / ``quadrant_neighbors`` look the
view set up again instead of sharing one index.  Slow (16-40 µs a call) and
the definition of today's answers — including the known wrong one left of
the phi seam — which is the point.  Nothing under ``src/``, ``benchmarks/``
or ``examples/`` imports it.
"""

from typing import List, Tuple

import numpy as np

from repro.lightfield.lattice import CameraLattice, ViewSetKey


def nearest_camera(
    lattice: CameraLattice, theta: float, phi: float
) -> Tuple[int, int]:
    fi, fj = lattice.continuous_index(np.array(theta), np.array(phi))
    i = int(np.clip(np.rint(fi), 0, lattice.n_theta - 1))
    j = int(np.rint(fj)) % lattice.n_phi
    return i, j


def viewset_containing(
    lattice: CameraLattice, theta: float, phi: float
) -> ViewSetKey:
    i, j = nearest_camera(lattice, theta, phi)
    return lattice.viewset_of(i, j)


def quadrant(
    lattice: CameraLattice, theta: float, phi: float
) -> Tuple[int, int]:
    vi, vj = viewset_containing(lattice, theta, phi)
    fi, fj = lattice.continuous_index(np.array(theta), np.array(phi))
    local_i = float(fi) - vi * lattice.l
    local_j = float(fj) - vj * lattice.l
    half = (lattice.l - 1) / 2.0
    qi = -1 if local_i <= half else 1
    qj = -1 if local_j <= half else 1
    return qi, qj


def quadrant_neighbors(
    lattice: CameraLattice, theta: float, phi: float
) -> List[ViewSetKey]:
    key = viewset_containing(lattice, theta, phi)
    vi, vj = key
    qi, qj = quadrant(lattice, theta, phi)
    rows, cols = lattice.n_viewsets
    wanted = [(vi + qi, vj), (vi, vj + qj), (vi + qi, vj + qj)]
    out = []
    for ni, nj in wanted:
        if 0 <= ni < rows:
            out.append((ni, nj % cols))
    return out


def locate(
    lattice: CameraLattice, theta: float, phi: float
) -> Tuple[ViewSetKey, Tuple[int, int]]:
    return (viewset_containing(lattice, theta, phi),
            quadrant(lattice, theta, phi))


def viewset_distance(
    lattice: CameraLattice, a: ViewSetKey, b: ViewSetKey
) -> float:
    (ai, aj), (bi, bj) = lattice._wrap_key(a), lattice._wrap_key(b)
    rows, cols = lattice.n_viewsets
    dj = abs(aj - bj)
    dj = min(dj, cols - dj)
    di = abs(ai - bi)
    return float(np.hypot(di, dj))
