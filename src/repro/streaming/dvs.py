"""Dictionary of View Sets (DVS): the system's name service.

The DVS maps view-set identifiers to exNodes (one per replica) and, for view
sets that have never been rendered, to the server agent responsible for
generating them — "quite similar to the Domain Name Service" (Section 3.6).

It is implemented hierarchically: queries enter at the root level and recurse
toward leaves; each level that must be traversed adds a lookup delay, which
models the paper's "any query will go through all levels recursively until
the request is fulfilled".  The hierarchy is a radix partition of the
view-set id space, so lookups are deterministic.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..lon.exnode import ExNode

__all__ = ["DVSResult", "DVSServer"]


@dataclass
class DVSResult:
    """Outcome of a DVS query."""

    viewset_id: str
    exnodes: List[ExNode]
    server_agent: Optional[str]    # set when generation is required
    levels_visited: int
    lookup_delay: float            # seconds of simulated service time


class DVSServer:
    """Hierarchical exNode + server-agent tables.

    Parameters
    ----------
    node:
        Network node name the DVS runs at (callers pay the RPC to it).
    levels:
        Depth of the lookup hierarchy (>= 1).
    fanout:
        Children per level; a view-set id hashes to one leaf path.
    level_delay:
        Service time added per level traversed.
    """

    def __init__(
        self,
        node: str = "dvs",
        levels: int = 2,
        fanout: int = 8,
        level_delay: float = 0.0002,
    ) -> None:
        if levels < 1:
            raise ValueError("levels must be >= 1")
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.node = node
        self.levels = levels
        self.fanout = fanout
        self.level_delay = level_delay
        # leaf tables: path tuple -> {vid: [exnodes]}
        self._exnode_tables: Dict[Tuple[int, ...], Dict[str, List[ExNode]]] = {}
        self._agent_table: Dict[str, str] = {}
        self._default_agent: Optional[str] = None
        self.queries = 0
        self.generation_referrals = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _leaf_path(self, vid: str) -> Tuple[int, ...]:
        # crc32, not hash(): stable across processes (PYTHONHASHSEED)
        h = zlib.crc32(vid.encode("ascii")) & 0x7FFFFFFF
        path = []
        for _ in range(self.levels - 1):
            path.append(h % self.fanout)
            h //= self.fanout
        return tuple(path)

    def register_exnode(self, vid: str, exnode: ExNode) -> None:
        """Add a replica exNode for a view set."""
        table = self._exnode_tables.setdefault(self._leaf_path(vid), {})
        table.setdefault(vid, []).append(exnode)

    def register_server_agent(self, agent_node: str,
                              vids: Optional[List[str]] = None) -> None:
        """Route generation requests for ``vids`` (or all) to an agent."""
        if vids is None:
            self._default_agent = agent_node
        else:
            for vid in vids:
                self._agent_table[vid] = agent_node

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    def query(self, vid: str) -> DVSResult:
        """Resolve a view-set id.

        Walks the hierarchy to the leaf that owns ``vid``.  If exNodes exist
        there, they are returned; otherwise the server-agent table supplies
        the generation target (the caller forwards the request).
        """
        self.queries += 1
        path = self._leaf_path(vid)
        levels_visited = 1 + len(path)
        table = self._exnode_tables.get(path, {})
        exnodes = list(table.get(vid, []))
        agent = None
        if not exnodes:
            agent = self._agent_table.get(vid, self._default_agent)
            self.generation_referrals += 1
        return DVSResult(
            viewset_id=vid,
            exnodes=exnodes,
            server_agent=agent,
            levels_visited=levels_visited,
            lookup_delay=levels_visited * self.level_delay,
        )
