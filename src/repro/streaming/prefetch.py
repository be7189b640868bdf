"""Prefetch policies (Figure 4 and ablation alternatives).

The paper's policy: when the cursor sits in a quadrant of the current view
set, only the three neighbors on that quadrant's side "may be needed", so
only those are prefetched.  Ablations compare against prefetching the whole
8-neighbor ring and no prefetching at all.
"""

from __future__ import annotations

from typing import List, Protocol, Tuple

from ..lightfield.lattice import CameraLattice, ViewSetKey

__all__ = [
    "PrefetchPolicy",
    "QuadrantPolicy",
    "AllNeighborsPolicy",
    "NoPrefetchPolicy",
    "policy_by_name",
]


class PrefetchPolicy(Protocol):
    """Maps the cursor's view set and quadrant to what is worth prefetching.

    ``key, quadrant`` are :meth:`CameraLattice.locate` of the cursor.
    """

    name: str

    def targets(
        self, lattice: CameraLattice, key: ViewSetKey,
        quadrant: Tuple[int, int],
    ) -> List[ViewSetKey]:
        """View sets to prefetch for a cursor in ``quadrant`` of ``key``."""
        ...


class QuadrantPolicy:
    """The paper's policy: 3 neighbors on the cursor's quadrant side."""

    name = "quadrant"

    def targets(
        self, lattice: CameraLattice, key: ViewSetKey,
        quadrant: Tuple[int, int],
    ) -> List[ViewSetKey]:
        return lattice.quadrant_side(key, quadrant)


class AllNeighborsPolicy:
    """Prefetch the full 8-neighbor ring (more extraneous transfers)."""

    name = "all-neighbors"

    def targets(
        self, lattice: CameraLattice, key: ViewSetKey,
        quadrant: Tuple[int, int],
    ) -> List[ViewSetKey]:
        return lattice.neighbors(key)


class NoPrefetchPolicy:
    """Fetch strictly on demand."""

    name = "none"

    def targets(
        self, lattice: CameraLattice, key: ViewSetKey,
        quadrant: Tuple[int, int],
    ) -> List[ViewSetKey]:
        return []


def policy_by_name(name: str) -> PrefetchPolicy:
    """Instantiate a policy by its ablation name."""
    table = {
        "quadrant": QuadrantPolicy,
        "all-neighbors": AllNeighborsPolicy,
        "none": NoPrefetchPolicy,
    }
    try:
        return table[name]()
    except KeyError:
        raise ValueError(
            f"unknown prefetch policy {name!r}; choose from {sorted(table)}"
        ) from None
