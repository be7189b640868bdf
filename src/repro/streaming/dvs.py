"""Dictionary of View Sets (DVS): the system's name service.

The DVS maps view-set identifiers to exNodes (one per replica) — "quite
similar to the Domain Name Service" (Section 3.6).  The database is
pre-distributed, so every view set is registered before a session starts.

It is implemented hierarchically: queries enter at the root level and recurse
toward leaves; each level that must be traversed adds a lookup delay, which
models the paper's "any query will go through all levels recursively until
the request is fulfilled".  The hierarchy is a radix partition of the
view-set id space, so lookups are deterministic.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..lon.exnode import ExNode

__all__ = ["DVSResult", "DVSServer"]

#: depth of the lookup hierarchy: a root and one level of leaves
LEVELS = 2
#: children per level; a view-set id hashes to one leaf path
FANOUT = 8
#: service time added per level traversed, in seconds
LEVEL_DELAY = 0.0002


@dataclass
class DVSResult:
    """Outcome of a DVS query."""

    viewset_id: str
    exnodes: List[ExNode]          # empty when the view set is unknown
    levels_visited: int
    lookup_delay: float            # seconds of simulated service time


class DVSServer:
    """Hierarchical exNode tables."""

    def __init__(self) -> None:
        # leaf tables: path tuple -> {vid: [exnodes]}
        self._exnode_tables: Dict[Tuple[int, ...], Dict[str, List[ExNode]]] = {}
        self.queries = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _leaf_path(self, vid: str) -> Tuple[int, ...]:
        # crc32, not hash(): stable across processes (PYTHONHASHSEED)
        h = zlib.crc32(vid.encode("ascii")) & 0x7FFFFFFF
        path = []
        for _ in range(LEVELS - 1):
            path.append(h % FANOUT)
            h //= FANOUT
        return tuple(path)

    def register_exnode(self, vid: str, exnode: ExNode) -> None:
        """Add a replica exNode for a view set."""
        table = self._exnode_tables.setdefault(self._leaf_path(vid), {})
        table.setdefault(vid, []).append(exnode)

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    def query(self, vid: str) -> DVSResult:
        """Resolve a view-set id.

        Walks the hierarchy to the leaf that owns ``vid`` and returns the
        exNodes registered there (none for an unknown view set).
        """
        self.queries += 1
        path = self._leaf_path(vid)
        levels_visited = 1 + len(path)
        table = self._exnode_tables.get(path, {})
        return DVSResult(
            viewset_id=vid,
            exnodes=list(table.get(vid, [])),
            levels_visited=levels_visited,
            lookup_delay=levels_visited * LEVEL_DELAY,
        )
