"""The Logistical Backbone (L-Bone): depot discovery and proximity.

The L-Bone "allows the user to find the closest set of IBP depots that can
satisfy the needs of an application".  Our registry holds live
:class:`~repro.lon.ibp.Depot` objects annotated with a location tag, and
answers one proximity query: the propagation latency from a node to a depot,
measured on the simulated topology (the real L-Bone used NWS measurements
and geographic hints the same way).  LoRS ranks replicas by it and the
client agent finds its LAN depots with it; the paper's general resource
query (size, lease length, location) is not reproduced, because every
depot the experiments use is placed by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .ibp import Depot
from .network import Network, NoRouteError

__all__ = ["DepotRecord", "LBone", "LBoneError"]


class LBoneError(RuntimeError):
    """Registry failure (unknown depot, unsatisfiable query...)."""


@dataclass
class DepotRecord:
    """Registry entry for one depot."""

    depot: Depot
    location: str = ""


class LBone:
    """Directory of depots over a simulated network.

    Parameters
    ----------
    network:
        Topology used to rank depots by proximity.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self._records: Dict[str, DepotRecord] = {}

    def register(self, depot: Depot, location: str = "") -> DepotRecord:
        """Add (or replace) a depot in the directory."""
        rec = DepotRecord(depot=depot, location=location)
        self._records[depot.name] = rec
        return rec

    def lookup(self, name: str) -> Depot:
        """Fetch a depot object by name."""
        try:
            return self._records[name].depot
        except KeyError:
            raise LBoneError(f"depot {name!r} not registered") from None

    def all_depots(self) -> Tuple[Depot, ...]:
        """Every registered depot, unordered."""
        return tuple(r.depot for r in self._records.values())

    def latency_from(self, client: str, depot_name: str) -> float:
        """One-way latency from ``client`` to the named depot, or +inf."""
        try:
            return self.network.path_latency(client, depot_name)
        except NoRouteError:
            return float("inf")

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records
