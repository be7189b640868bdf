"""Internet Backplane Protocol (IBP) depots.

IBP is the bottom of the Network Storage Stack (Figure 1 of the paper): a
*best-effort* storage service exposed by intermediate nodes called **depots**.
This module reproduces the semantics the paper relies on:

* ``allocate`` — reserve a byte array with a **time-limited lease**; the depot
  may **refuse** on over-allocation ("admission decisions ... based on both
  size and duration");
* ``store`` / ``load`` — write/read the byte array through write/read
  **capabilities** (unforgeable strings, one per access mode);
* ``copy`` — **third-party transfer** from one depot directly to another,
  which powers the two-stage aggressive staging "without consuming resources
  on either the client or the client agent";
* ``manage`` — release an allocation, reclaiming its space at once;
* **soft allocations** — revocable at any time when a hard allocation needs
  the space, modelling the "sharing of idle resources".

A depot is a passive state machine living at a network node; the cost of
talking to it (RPC round-trips, bulk data movement) is charged by callers
through :class:`repro.lon.network.Network`.  Expired leases are reclaimed
lazily, on access and whenever capacity is counted.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .simtime import EventQueue

__all__ = [
    "CapType",
    "Capability",
    "Allocation",
    "Depot",
    "IBPError",
    "IBPRefusedError",
    "IBPNoSuchCapError",
    "IBPExpiredError",
    "IBPPermissionError",
    "IBP_MAX_DURATION",
]

#: longest lease a depot will grant, in seconds (24 h, as deployed L-Bone
#: depots commonly configured).
IBP_MAX_DURATION = 24 * 3600.0


class IBPError(RuntimeError):
    """Base class for IBP failures."""


class IBPRefusedError(IBPError):
    """Allocation refused (over-allocation / policy), like a dropped packet."""


class IBPNoSuchCapError(IBPError):
    """Capability does not name a live allocation on this depot."""


class IBPExpiredError(IBPNoSuchCapError):
    """The allocation's lease expired and the bytes were reclaimed."""


class IBPPermissionError(IBPError):
    """Capability type does not permit the requested operation."""


class CapType(str, Enum):
    """Access mode conveyed by a capability."""

    READ = "READ"
    WRITE = "WRITE"
    MANAGE = "MANAGE"


@dataclass(frozen=True)
class Capability:
    """An unforgeable reference to an allocation on a specific depot.

    Rendered as ``ibp://<depot>/<key>#<type>``, mirroring the textual caps
    returned by real IBP depots.
    """

    depot: str
    key: str
    type: CapType

    def __str__(self) -> str:
        return f"ibp://{self.depot}/{self.key}#{self.type.value}"


@dataclass
class Allocation:
    """A leased byte array on a depot.

    ``data`` is an immutable snapshot of the written extent.  Immutability
    is what lets the depot data plane move *references* instead of bytes:
    a full-cover store adopts the caller's buffer, and a full-extent
    load/copy_out hands the same object back.  Block-granular allocations
    (how LoRS stripes everything) hit those paths on every operation, so
    the simulator stops paying real memcpy time for simulated payloads.
    """

    key: str
    size: int
    expires_at: float
    soft: bool
    data: bytes = b""
    bytes_written: int = 0

    def live(self, now: float) -> bool:
        """Lease still valid."""
        return now < self.expires_at


@dataclass
class DepotStats:
    """Operation counters, for tests and benchmark reporting."""

    allocates: int = 0
    refusals: int = 0
    stores: int = 0
    loads: int = 0
    copies: int = 0
    revoked_soft: int = 0
    expired: int = 0
    bytes_stored: int = 0
    bytes_loaded: int = 0
    bytes_copied: int = 0  # bytes sourced for third-party copies


class Depot:
    """A simulated IBP depot.

    Parameters
    ----------
    name:
        Network node name this depot lives at.
    queue:
        Simulation event queue (for lease time).
    capacity:
        Total bytes of storage this depot will lease out.
    max_duration:
        Longest lease granted; longer requests are *refused*, not clamped,
        matching IBP's admission-decision semantics.
    """

    def __init__(
        self,
        name: str,
        queue: EventQueue,
        capacity: int = 1 << 30,
        max_duration: float = IBP_MAX_DURATION,
    ) -> None:
        if capacity <= 0:
            raise ValueError("depot capacity must be positive")
        self.name = name
        self.queue = queue
        self.capacity = int(capacity)
        self.max_duration = float(max_duration)
        self._allocs: Dict[str, Allocation] = {}
        # incremental capacity accounting: bytes committed to allocations
        # currently in _allocs, plus a lazy (expires_at, key) min-heap so
        # purging touches only actually-expired leases instead of sweeping
        # the whole table on every allocate/free (O(n) -> O(expired))
        self._committed: int = 0
        self._expiry_heap: List[Tuple[float, str]] = []
        self._keyseq = itertools.count(1)
        self.stats = DepotStats()

    # ------------------------------------------------------------------
    # capacity accounting
    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        """Bytes currently committed to live allocations."""
        self._purge_expired()
        return self._committed

    def _drop(self, key: str) -> None:
        """Remove an allocation and release its committed bytes."""
        alloc = self._allocs.pop(key)
        self._committed -= alloc.size

    def _purge_expired(self) -> None:
        now = self.queue.now
        heap = self._expiry_heap
        while heap and heap[0][0] <= now:
            _, key = heapq.heappop(heap)
            alloc = self._allocs.get(key)
            if alloc is None:
                continue  # already reclaimed; stale heap entry
            self._drop(key)
            self.stats.expired += 1

    def _revoke_soft(self, needed: int) -> int:
        """Revoke soft allocations (oldest lease first) to free ``needed``."""
        freed = 0
        soft = sorted(
            (a for a in self._allocs.values() if a.soft),
            key=lambda a: a.expires_at,
        )
        for a in soft:
            if freed >= needed:
                break
            self._drop(a.key)
            self.stats.revoked_soft += 1
            freed += a.size
        return freed

    # ------------------------------------------------------------------
    # the four IBP operations
    # ------------------------------------------------------------------
    def allocate(
        self, size: int, duration: float, soft: bool = False
    ) -> Tuple[Capability, Capability, Capability]:
        """Lease ``size`` bytes for ``duration`` seconds.

        Returns (read, write, manage) capabilities.  Raises
        :class:`IBPRefusedError` if the request exceeds policy or capacity —
        after attempting to reclaim expired and (for hard requests) soft
        allocations.
        """
        self.stats.allocates += 1
        if size <= 0:
            self.stats.refusals += 1
            raise IBPRefusedError(f"{self.name}: non-positive size {size}")
        if duration <= 0 or duration > self.max_duration:
            self.stats.refusals += 1
            raise IBPRefusedError(
                f"{self.name}: duration {duration}s outside (0, "
                f"{self.max_duration}]"
            )
        self._purge_expired()
        avail = self.capacity - self._committed
        if size > avail and not soft:
            avail += self._revoke_soft(size - avail)
        if size > avail:
            self.stats.refusals += 1
            raise IBPRefusedError(
                f"{self.name}: over-allocation ({size} > {avail} free)"
            )
        key = f"a{next(self._keyseq):08d}"
        expires_at = self.queue.now + duration
        self._allocs[key] = Allocation(
            key=key,
            size=size,
            expires_at=expires_at,
            soft=soft,
        )
        self._committed += size
        heapq.heappush(self._expiry_heap, (expires_at, key))
        return (
            Capability(self.name, key, CapType.READ),
            Capability(self.name, key, CapType.WRITE),
            Capability(self.name, key, CapType.MANAGE),
        )

    def _resolve(self, cap: Capability, required: CapType) -> Allocation:
        if cap.depot != self.name:
            raise IBPNoSuchCapError(
                f"capability for depot {cap.depot!r} presented to {self.name!r}"
            )
        if cap.type is not required:
            raise IBPPermissionError(
                f"{self.name}: {required.value} required, got {cap.type.value}"
            )
        alloc = self._allocs.get(cap.key)
        if alloc is None:
            raise IBPNoSuchCapError(f"{self.name}: no allocation {cap.key}")
        if not alloc.live(self.queue.now):
            self._drop(cap.key)
            self.stats.expired += 1
            raise IBPExpiredError(f"{self.name}: allocation {cap.key} expired")
        return alloc

    def store(self, cap: Capability, data: bytes, offset: int = 0) -> int:
        """Write ``data`` at ``offset``; returns bytes written.

        Writing past the leased size raises :class:`IBPRefusedError` (real
        depots return IBP_E_WOULD_EXCEED_LIMIT).
        """
        alloc = self._resolve(cap, CapType.WRITE)
        end = offset + len(data)
        if offset < 0 or end > alloc.size:
            raise IBPRefusedError(
                f"{self.name}: write [{offset}, {end}) exceeds allocation "
                f"size {alloc.size}"
            )
        if not isinstance(data, bytes):
            data = bytes(data)  # detach from caller-mutable buffers
        if offset == 0 and end >= len(alloc.data):
            # full-cover write (the LoRS block-store pattern): adopt the
            # caller's immutable buffer — no copy
            alloc.data = data
        else:
            buf = bytearray(alloc.data)
            if len(buf) < end:
                buf.extend(b"\x00" * (end - len(buf)))
            buf[offset:end] = data
            alloc.data = bytes(buf)
        alloc.bytes_written = max(alloc.bytes_written, end)
        self.stats.stores += 1
        self.stats.bytes_stored += len(data)
        return len(data)

    def load(
        self, cap: Capability, offset: int = 0, length: Optional[int] = None
    ) -> bytes:
        """Read ``length`` bytes from ``offset`` (default: to end of data)."""
        alloc = self._resolve(cap, CapType.READ)
        if length is None:
            length = alloc.bytes_written - offset
        end = offset + length
        if offset < 0 or length < 0 or end > alloc.size:
            raise IBPRefusedError(
                f"{self.name}: read [{offset}, {end}) exceeds allocation "
                f"size {alloc.size}"
            )
        data = alloc.data
        # full-extent read: hand back the stored snapshot itself — no copy
        chunk = data if offset == 0 and end == len(data) else data[offset:end]
        if len(chunk) < length:  # reading past written extent yields zeros
            chunk += b"\x00" * (length - len(chunk))
        self.stats.loads += 1
        self.stats.bytes_loaded += len(chunk)
        return chunk

    def copy_out(
        self, cap: Capability, offset: int = 0, length: Optional[int] = None
    ) -> bytes:
        """Source side of a third-party copy (counted as a copy, not a load)."""
        alloc = self._resolve(cap, CapType.READ)
        if length is None:
            length = alloc.bytes_written - offset
        self.stats.copies += 1
        data = alloc.data
        end = offset + length
        chunk = data if offset == 0 and end == len(data) else data[offset:end]
        if len(chunk) < length:
            chunk += b"\x00" * (length - len(chunk))
        self.stats.bytes_copied += len(chunk)
        return chunk

    def manage_decrement(self, cap: Capability) -> None:
        """Release the allocation; its space is reclaimed at once."""
        self._resolve(cap, CapType.MANAGE)
        self._drop(cap.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Depot({self.name!r}, used={self.used}/{self.capacity}, "
            f"allocs={len(self._allocs)})"
        )
