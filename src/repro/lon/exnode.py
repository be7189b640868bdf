"""The exNode: aggregation of IBP capabilities.

exNodes are to network storage what inodes are to a local filesystem, except
that they map the data extent of a logical file onto IBP *allocations on
depots* rather than onto disk blocks.  A single extent may be covered by
several mappings — replicas on different depots — and a file may be *striped*:
consecutive extents living on different depots.  The paper's streaming model
caches only exNodes at the client agent; the bytes stay in the network until
needed.

The paper's exNode is "an XML-encoded data structure for aggregation of
capabilities".  Here it lives in memory only: nothing in the simulated
system serializes one, so the XML encoding is not reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .ibp import Capability, CapType

__all__ = ["Extent", "Mapping", "ExNode", "ExNodeError"]


class ExNodeError(ValueError):
    """Malformed or inconsistent exNode."""


@dataclass(frozen=True)
class Extent:
    """A contiguous byte range of the logical file."""

    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length <= 0:
            raise ExNodeError(
                f"invalid extent offset={self.offset} length={self.length}"
            )

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.offset + self.length


@dataclass(frozen=True)
class Mapping:
    """One extent stored on one depot, addressed by its capabilities.

    ``write_cap`` and ``manage_cap`` may be withheld (None) when an exNode is
    handed to a party that should only read — capability-based security.
    """

    extent: Extent
    read_cap: Capability
    write_cap: Optional[Capability] = None
    manage_cap: Optional[Capability] = None

    def __post_init__(self) -> None:
        if self.read_cap.type is not CapType.READ:
            raise ExNodeError("read_cap must be a READ capability")
        if self.write_cap is not None and self.write_cap.type is not CapType.WRITE:
            raise ExNodeError("write_cap must be a WRITE capability")
        if (
            self.manage_cap is not None
            and self.manage_cap.type is not CapType.MANAGE
        ):
            raise ExNodeError("manage_cap must be a MANAGE capability")

    @property
    def depot(self) -> str:
        """Name of the depot holding this replica."""
        return self.read_cap.depot


class ExNode:
    """A logical file mapped onto IBP allocations.

    Parameters
    ----------
    name:
        Logical identifier (e.g. a view-set id).
    length:
        Total logical file size in bytes.
    mappings:
        Extent→capability mappings; replicas are simply multiple mappings
        over the same (or overlapping) extents.
    metadata:
        Free-form string key/values (checksums, codec...).
    """

    def __init__(
        self,
        name: str,
        length: int,
        mappings: Iterable[Mapping] = (),
        metadata: Optional[Dict[str, str]] = None,
    ) -> None:
        if length < 0:
            raise ExNodeError(f"negative length {length}")
        self.name = name
        self.length = int(length)
        self.mappings: List[Mapping] = list(mappings)
        self.metadata: Dict[str, str] = dict(metadata or {})
        for m in self.mappings:
            self._check_mapping(m)

    def _check_mapping(self, m: Mapping) -> None:
        if m.extent.end > self.length:
            raise ExNodeError(
                f"mapping extent {m.extent} exceeds file length {self.length}"
            )

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def add_mapping(self, m: Mapping) -> None:
        """Append a mapping (e.g. after replication via LoRS augment)."""
        self._check_mapping(m)
        self.mappings.append(m)

    def depots(self) -> Tuple[str, ...]:
        """Distinct depots referenced, in first-appearance order."""
        seen: Dict[str, None] = {}
        for m in self.mappings:
            seen.setdefault(m.depot, None)
        return tuple(seen)

    def is_fully_covered(self) -> bool:
        """True if every byte in [0, length) has at least one replica."""
        if self.length == 0:
            return True
        ivals = sorted(
            ((m.extent.offset, m.extent.end) for m in self.mappings)
        )
        covered_to = 0
        for start, end in ivals:
            if start > covered_to:
                return False
            covered_to = max(covered_to, end)
            if covered_to >= self.length:
                return True
        return covered_to >= self.length

    def read_only_view(self) -> ExNode:
        """A copy exposing only read capabilities (safe to hand to clients)."""
        return ExNode(
            name=self.name,
            length=self.length,
            mappings=[
                Mapping(extent=m.extent, read_cap=m.read_cap)
                for m in self.mappings
            ],
            metadata=dict(self.metadata),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExNode):
            return NotImplemented
        return (
            self.name == other.name
            and self.length == other.length
            and self.mappings == other.mappings
            and self.metadata == other.metadata
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExNode({self.name!r}, length={self.length}, "
            f"mappings={len(self.mappings)}, depots={self.depots()})"
        )
