"""Camera lattice and view-set partitioning.

The light field database is sampled from an ``n_theta × n_phi`` lattice of
camera positions on the outer sphere, at 2.5° angular intervals in the paper
(72 × 144 positions).  The lattice is partitioned into ``l × l`` groups
called **view sets** (l = 6 → 15° windows → 12 × 24 view sets), which are the
unit of storage, compression and network transmission, "a natural mechanism
to exploit view coherence".

Indexing conventions:

* camera index ``(i, j)``: ``i`` along theta (0 .. n_theta-1), ``j`` along
  phi (0 .. n_phi-1, periodic);
* view-set index ``(vi, vj)``: ``vi = i // l``, ``vj = j // l``;
* view-set id: the string ``"vs-{vi}-{vj}"`` (used as exNode/DVS keys).

Theta rows are placed at cell centers, ``theta_i = (i + 0.5) * pi / n_theta``,
so no camera sits exactly on a pole; phi columns at ``phi_j = j * 2pi /
n_phi``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Tuple

import numpy as np

__all__ = ["CameraLattice", "ViewSetKey", "parse_viewset_id"]

ViewSetKey = Tuple[int, int]

_VS_RE = re.compile(r"^vs-(\d+)-(\d+)$")


def parse_viewset_id(vid: str) -> ViewSetKey:
    """Parse ``"vs-{vi}-{vj}"`` back to the (vi, vj) pair."""
    m = _VS_RE.match(vid)
    if not m:
        raise ValueError(f"not a view-set id: {vid!r}")
    return int(m.group(1)), int(m.group(2))


@dataclass(frozen=True)
class CameraLattice:
    """The sample-view lattice and its view-set partition.

    Parameters
    ----------
    n_theta, n_phi:
        Lattice dimensions.  The paper's full scale is 72 × 144 (2.5°
        spacing); tests use smaller lattices.  Both must be divisible by
        ``l``.
    l:
        View-set edge length (paper: 6, i.e. 15° windows).

    Cursor-path methods take one (theta, phi) as builtin floats and go
    through :meth:`scalar_index`; :meth:`continuous_index` is the array
    routine for ray bundles.  The two perform the same IEEE operations in
    the same order, so their results are bit-equal
    (``tests/lightfield/test_lattice_scalar.py``).
    """

    n_theta: int = 72
    n_phi: int = 144
    l: int = 6

    def __post_init__(self) -> None:
        if self.n_theta < 1 or self.n_phi < 1:
            raise ValueError("lattice dimensions must be positive")
        if self.l < 1:
            raise ValueError("view-set size l must be >= 1")
        if self.n_theta % self.l or self.n_phi % self.l:
            raise ValueError(
                f"lattice {self.n_theta}x{self.n_phi} not divisible by "
                f"l={self.l}"
            )

    # ------------------------------------------------------------------
    # lattice geometry
    # ------------------------------------------------------------------
    @cached_property
    def theta_step(self) -> float:
        """Angular spacing between theta rows (radians)."""
        return math.pi / self.n_theta

    @cached_property
    def phi_step(self) -> float:
        """Angular spacing between phi columns (radians)."""
        return 2.0 * math.pi / self.n_phi

    @property
    def n_cameras(self) -> int:
        """Total number of sample views in the lattice."""
        return self.n_theta * self.n_phi

    def angles(self, i: int, j: int) -> Tuple[float, float]:
        """(theta, phi) of camera (i, j); j wraps modulo n_phi."""
        if not 0 <= i < self.n_theta:
            raise IndexError(f"theta index {i} out of range")
        j = j % self.n_phi
        return (i + 0.5) * self.theta_step, j * self.phi_step

    def continuous_index(
        self, theta: np.ndarray, phi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fractional lattice coordinates of arbitrary angles.

        The theta coordinate is clamped to the valid camera band; phi is
        periodic (returned in [0, n_phi)).
        """
        fi = np.asarray(theta, dtype=np.float64) / self.theta_step - 0.5
        fi = np.clip(fi, 0.0, self.n_theta - 1.0)
        fj = np.mod(np.asarray(phi, dtype=np.float64) / self.phi_step,
                    self.n_phi)
        return fi, fj

    def scalar_index(
        self, theta: float, phi: float
    ) -> Tuple[float, float, int, int]:
        """``(fi, fj, i, j)`` of one view direction, in plain-float math.

        ``fi, fj`` are :meth:`continuous_index`'s coordinates, ``i, j`` the
        nearest camera (ties round to even, as ``np.rint``; a ``fj`` within
        half a step left of the phi seam wraps to column 0).
        """
        fi = theta / self.theta_step - 0.5
        fi = min(max(fi, 0.0), self.n_theta - 1.0)
        fj = (phi / self.phi_step) % self.n_phi
        return fi, fj, round(fi), round(fj) % self.n_phi

    # ------------------------------------------------------------------
    # view sets
    # ------------------------------------------------------------------
    @cached_property
    def n_viewsets(self) -> Tuple[int, int]:
        """(rows, cols) of the view-set grid (paper: 12 × 24)."""
        return self.n_theta // self.l, self.n_phi // self.l

    def viewset_of(self, i: int, j: int) -> ViewSetKey:
        """View-set key containing camera (i, j)."""
        if not 0 <= i < self.n_theta:
            raise IndexError(f"theta index {i} out of range")
        return i // self.l, (j % self.n_phi) // self.l

    def viewset_id(self, key: ViewSetKey) -> str:
        """String id used for storage, DVS and exNode naming."""
        vi, vj = self._wrap_key(key)
        return f"vs-{vi}-{vj}"

    def _wrap_key(self, key: ViewSetKey) -> ViewSetKey:
        vi, vj = key
        rows, cols = self.n_viewsets
        if not 0 <= vi < rows:
            raise IndexError(f"view-set row {vi} out of range")
        return vi, vj % cols

    def cameras_in_viewset(self, key: ViewSetKey) -> List[Tuple[int, int]]:
        """All l × l camera indices in a view set, row-major."""
        vi, vj = self._wrap_key(key)
        return [
            (vi * self.l + a, vj * self.l + b)
            for a in range(self.l)
            for b in range(self.l)
        ]

    def all_viewsets(self) -> Iterator[ViewSetKey]:
        """Iterate every view-set key in row-major order."""
        rows, cols = self.n_viewsets
        for vi in range(rows):
            for vj in range(cols):
                yield (vi, vj)

    def viewset_containing(self, theta: float, phi: float) -> ViewSetKey:
        """View set whose angular window contains the given view angles
        (:meth:`locate`'s key, without the quadrant)."""
        i, j = self.scalar_index(theta, phi)[2:]
        return i // self.l, j // self.l

    def viewset_center(self, key: ViewSetKey) -> Tuple[float, float]:
        """(theta, phi) at the center of a view set's angular window."""
        vi, vj = self._wrap_key(key)
        theta = (vi * self.l + self.l / 2.0) * self.theta_step
        phi = (vj * self.l + self.l / 2.0 - 0.5) * self.phi_step
        return theta, phi

    # ------------------------------------------------------------------
    # neighborhood / prefetch support
    # ------------------------------------------------------------------
    def neighbors(self, key: ViewSetKey) -> List[ViewSetKey]:
        """The (up to) 8 neighboring view sets (Figure 4's ring).

        phi wraps around; theta rows beyond the poles do not exist, so polar
        view sets have fewer neighbors.
        """
        vi, vj = self._wrap_key(key)
        rows, cols = self.n_viewsets
        out = []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                ni = vi + di
                if not 0 <= ni < rows:
                    continue
                out.append((ni, (vj + dj) % cols))
        return out

    def locate(
        self, theta: float, phi: float
    ) -> Tuple[ViewSetKey, Tuple[int, int]]:
        """Containing view set and the quadrant of it holding (theta, phi).

        The quadrant is ``(qi, qj)`` with each in {-1, +1}: qi = -1 means
        the upper (smaller theta) half, qj = -1 the left (smaller phi) half.
        This is the input to the Figure 4 prefetch policy: only neighbors on
        the quadrant's side are likely needed next.
        """
        fi, fj, i, j = self.scalar_index(theta, phi)
        vi, vj = i // self.l, j // self.l
        half = (self.l - 1) / 2.0
        # known defect (ROADMAP aim 3): left of the phi seam j wraps to 0 but
        # fj does not, so qj reads +1 there; committed fingerprints hold it
        qi = -1 if fi - vi * self.l <= half else 1
        qj = -1 if fj - vj * self.l <= half else 1
        return (vi, vj), (qi, qj)

    def quadrant_side(
        self, key: ViewSetKey, quadrant: Tuple[int, int]
    ) -> List[ViewSetKey]:
        """The 3 neighbors of ``key`` on ``quadrant``'s side (Figure 4).

        E.g. for the top-left quadrant: the view sets above, to the left and
        diagonally above-left of ``key``; rows beyond a pole are dropped.
        """
        (vi, vj), (qi, qj) = key, quadrant
        rows, cols = self.n_viewsets
        wanted = [(vi + qi, vj), (vi, vj + qj), (vi + qi, vj + qj)]
        return [(ni, nj % cols) for ni, nj in wanted if 0 <= ni < rows]

    @cached_property
    def _distances(self) -> List[List[float]]:
        # filled by np.hypot, not math.hypot: the two differ in the last bit
        # on some integer pairs and viewset_distance is a sort key with ties
        rows, cols = self.n_viewsets
        return np.hypot(*np.ogrid[:rows, :cols // 2 + 1]).tolist()

    def viewset_distance(self, a: ViewSetKey, b: ViewSetKey) -> float:
        """Grid distance between view sets (phi wraps) — staging order key."""
        (ai, aj), (bi, bj) = self._wrap_key(a), self._wrap_key(b)
        dj = abs(aj - bj)
        return self._distances[abs(ai - bi)][min(dj, self.n_viewsets[1] - dj)]
