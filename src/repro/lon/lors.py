"""Logistical Runtime System (LoRS): upload, download, augment.

LoRS is the layer of the Network Storage Stack that composes raw IBP
operations into file-level tools.  The paper leans on three of its behaviours:

* **upload with striping + replication** — view sets "striped across three
  depots in California", replicas registered in one exNode;
* **multi-stream download** — "multi-threaded algorithms for high-performance
  downloads of wide-area, replicated data ... over 100Mb/s" [Plank et al.];
  here each block fetch is a concurrent simulated flow, so aggregate
  throughput genuinely rises with stream count until a shared link saturates;
* **augment (third-party copy)** — copying an exNode's blocks depot-to-depot
  without data touching the client, which implements the aggressive staging
  of Section 4.3.

All operations are asynchronous against the simulation event queue and report
through callbacks; :class:`Deferred` is a minimal result holder for callers
(and tests) that drive the queue to completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exnode import ExNode, Extent, Mapping
from .ibp import Capability, Depot, IBPError
from .lbone import LBone, LBoneError
from .network import Flow, Network, NetworkError
from .scheduler import (
    Priority,
    TransferHandle,
    TransferScheduler,
    TransferSpec,
)
from .simtime import EventQueue

__all__ = [
    "Deferred",
    "LoRS",
    "LoRSError",
    "DownloadJob",
    "CopyJob",
    "DEFAULT_BLOCK_SIZE",
]

#: default stripe block size (512 KiB — the LoRS tools' historical default).
DEFAULT_BLOCK_SIZE = 512 * 1024
#: lease on a staged copy's soft allocations
STAGED_LEASE_SECONDS = 3600.0


class LoRSError(RuntimeError):
    """Unrecoverable LoRS operation failure."""


class Deferred:
    """A write-once result slot for asynchronous LoRS operations."""

    def __init__(self) -> None:
        self._value: object = None
        self._error: Optional[Exception] = None
        self._done = False
        self._callbacks: List[Callable[["Deferred"], None]] = []

    @property
    def done(self) -> bool:
        """True once resolved or failed."""
        return self._done

    @property
    def failed(self) -> bool:
        """True if resolved with an error."""
        return self._done and self._error is not None

    def resolve(self, value: object) -> None:
        """Set the success value (idempotence violation raises)."""
        if self._done:
            raise LoRSError("Deferred already completed")
        self._value = value
        self._settle()

    def reject(self, error: Exception) -> None:
        """Set the failure (idempotence violation raises)."""
        if self._done:
            raise LoRSError("Deferred already completed")
        self._error = error
        self._settle()

    def _settle(self) -> None:
        # the list is let go before it runs: a callback added from now on
        # runs at once, and a caller's closure over this deferred must not
        # keep it alive in a reference cycle
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Deferred"], None]) -> None:
        """Run ``cb(self)`` on completion (immediately if already done)."""
        if self._done:
            cb(self)
        else:
            self._callbacks.append(cb)

    def result(self) -> object:
        """The value; raises the stored error, or if not yet complete."""
        if not self._done:
            raise LoRSError("Deferred not yet completed")
        if self._error is not None:
            raise self._error
        return self._value


@dataclass
class _Block:
    """One block of a cover: the replica in use, the rest, what it moved."""

    mapping: Mapping
    alternates: List[Mapping]
    handle: Optional[TransferHandle] = None
    data: bytes = b""
    #: read, write and manage capabilities of a copy's target allocation,
    #: held from ``allocate`` until the block is stored (or released)
    caps: Optional[Tuple[Capability, Capability, Capability]] = None


def _cover(lbone: LBone, exnode: ExNode, dest: str) -> List[_Block]:
    """Greedy minimal cover of [0, length) by mapping extents, in offset order.

    Replicas for each chosen extent are ranked by latency from ``dest``;
    ties by depot name for determinism.
    """
    by_extent: Dict[Tuple[int, int], List[Mapping]] = {}
    for m in exnode.mappings:
        by_extent.setdefault(
            (m.extent.offset, m.extent.length), []
        ).append(m)
    blocks: List[_Block] = []
    covered_to = 0
    for off, ln in sorted(by_extent):
        replicas = by_extent[(off, ln)]
        if off > covered_to:
            raise LoRSError(
                f"exNode {exnode.name!r} has a coverage hole at "
                f"byte {covered_to}"
            )
        if off + ln <= covered_to:
            continue  # fully shadowed by earlier extents
        ranked = sorted(
            replicas,
            key=lambda m: (lbone.latency_from(dest, m.depot), m.depot),
        )
        blocks.append(_Block(mapping=ranked[0], alternates=ranked[1:]))
        covered_to = off + ln
    if covered_to < exnode.length:
        raise LoRSError(
            f"exNode {exnode.name!r} covers only {covered_to} of "
            f"{exnode.length} bytes"
        )
    return blocks


class _BlockJob(Deferred):
    """Move an exNode's blocks to one node: the engine of both LoRS tools.

    Cover the file, rank each block's replicas by latency from ``dest``,
    keep ``max_streams`` block flows in flight, and fail a block over to its
    next replica on any depot or network error.  The job *is* the deferred
    its caller waits on.  A subclass says what a block does: the depot-side
    work and the delay before its flow (:meth:`_prepare`), what landing
    means (:meth:`_land`), what becomes of a block that does not land
    (:meth:`_release`) and the value the job resolves with (:meth:`_result`).
    """

    #: label prefix of every block flow / the operation in error messages
    tag = ""
    what = ""

    def __init__(
        self,
        lors: LoRS,
        exnode: ExNode,
        dest: str,
        max_streams: int,
        priority: Priority,
        span: object,
    ) -> None:
        super().__init__()
        self.lors = lors
        self.exnode = exnode
        self.dest = dest
        self.max_streams = max(1, max_streams)
        self.priority = Priority(priority)
        self.span = span  # parent span for every block flow
        #: sim time the first block flow was admitted (queue-wait boundary)
        self.t_first_flow: Optional[float] = None
        self._blocks: List[_Block] = []  # the cover, in offset order
        self._next = 0                   # first block not yet launched
        self._inflight = 0
        self._left = 0

    # -- what a block does ------------------------------------------------
    def _prepare(self, block: _Block) -> Optional[float]:
        """Depot-side work for one attempt at ``block``; raises to fail over.

        Returns the delay before its flow starts — blocks of one pump that
        share a delay become one ``lors-dl-rpc`` event and one batch — or
        None to admit it at once.
        """
        raise NotImplementedError

    def _land(self, block: _Block) -> None:
        """The block's flow delivered; raises :class:`IBPError` to fail over."""
        raise NotImplementedError

    def _release(self, block: _Block) -> None:
        """Give back what an attempt that will not land still holds."""

    def _result(self) -> object:
        raise NotImplementedError

    # -- the engine -------------------------------------------------------
    def start(self) -> None:
        """Choose a covering set of mappings and launch the first streams."""
        try:
            self._blocks = _cover(self.lors.lbone, self.exnode, self.dest)
        except LoRSError as exc:
            self.reject(exc)
            return
        self._left = len(self._blocks)
        if not self._blocks:
            self.resolve(self._result())
            return
        self._pump()

    def cancel(self) -> None:
        """Abort every outstanding block; the job is rejected."""
        if not self.done:
            self._abort(LoRSError(f"{self.what} cancelled"))

    def promote(self, priority: Priority) -> None:
        """Raise the urgency of every outstanding and future block flow."""
        priority = Priority(priority)
        if priority >= self.priority:
            return
        self.priority = priority
        for block in self._blocks:
            if block.handle is not None:
                block.handle.promote(priority)

    def _pump(self) -> None:
        """Launch blocks into the free stream slots.

        Blocks whose delays are identical (the common case: replicas striped
        across equidistant depots) arrive together and admit as one
        :meth:`TransferScheduler.submit_batch` — the flash-crowd batch the
        planned admission path is built for.
        """
        groups: Dict[Optional[float], List[_Block]] = {}
        while (
            self._next < len(self._blocks)
            and self._inflight < self.max_streams
            and not self.done
        ):
            block = self._blocks[self._next]
            self._next += 1
            self._launch(block, groups)
        if not self.done:
            for delay, blocks in groups.items():
                self._after(delay, blocks)

    def _launch(
        self,
        block: _Block,
        groups: Optional[Dict[Optional[float], List[_Block]]] = None,
    ) -> None:
        """One attempt at a block; a failover relaunch (no ``groups``) pays
        its own delay and admits as a batch of one."""
        self._inflight += 1
        try:
            delay = self._prepare(block)
        except (IBPError, LBoneError, NetworkError) as exc:
            # a lost, refusing or unroutable depot is a failed attempt like
            # any other, not a crashed run
            self._failover(block, exc)
        else:
            if groups is None:
                self._after(delay, [block])
            else:
                groups.setdefault(delay, []).append(block)

    def _after(self, delay: Optional[float], blocks: List[_Block]) -> None:
        if delay is None:
            self._admit(blocks)
        else:
            self.lors.queue.schedule_in(
                delay, lambda: self._admit(blocks), "lors-dl-rpc"
            )

    def _admit(self, blocks: List[_Block]) -> None:
        """Admit one group's block flows as a single batch."""
        live: List[_Block] = []
        specs: List[TransferSpec] = []
        for block in blocks:
            if self.done:
                return
            m = block.mapping
            try:
                self.lors.network.route(m.depot, self.dest)
            except NetworkError as exc:
                # the depot was partitioned while the request was out
                self._failover(block, exc)
                continue
            live.append(block)
            specs.append(TransferSpec(
                m.depot,
                self.dest,
                m.extent.length,
                on_complete=lambda fl, b=block: self._block_done(b),
                on_fail=lambda fl, exc, b=block: self._failover(b, exc),
                label=f"{self.tag}:{self.exnode.name}:{m.extent.offset}",
                priority=self.priority,
                span=self.span,
            ))
        if not specs or self.done:
            return
        for block, handle in zip(
            live, self.lors.scheduler.submit_batch(specs)
        ):
            block.handle = handle
        if self.t_first_flow is None:
            self.t_first_flow = self.lors.queue.now

    def _block_done(self, block: _Block) -> None:
        if self.done:
            return
        try:
            self._land(block)
        except IBPError as exc:
            self._failover(block, exc)
            return
        self._inflight -= 1
        self._left -= 1
        if self._left == 0:
            self.resolve(self._result())
        else:
            self._pump()

    def _failover(self, block: _Block, exc: Exception) -> None:
        """An attempt at ``block`` ended without landing: next replica."""
        if self.done:
            return
        self._inflight -= 1
        self._release(block)
        block.handle = None
        if block.alternates:
            block.mapping = block.alternates.pop(0)
            self._launch(block)
        else:
            self._abort(LoRSError(
                f"{self.what} of {self.exnode.name!r} failed at extent "
                f"{block.mapping.extent}: {exc}"
            ))

    def _abort(self, error: LoRSError) -> None:
        for block in self._blocks:
            if block.handle is not None:
                block.handle.cancel()
            self._release(block)
        self.reject(error)


class DownloadJob(_BlockJob):
    """Parallel, replica-aware download of an exNode to a network node.

    Resolves with the file's ``bytes``, assembled once when the last block
    lands — the depot's own object where one block covers the file — with no
    staging buffer: simulated time is charged for bytes on links, not copies.
    """

    tag = "dl"
    what = "download"

    def __init__(
        self,
        lors: LoRS,
        exnode: ExNode,
        dest: str,
        max_streams: int,
        priority: Priority = Priority.DEMAND,
        span: object = None,
    ) -> None:
        super().__init__(lors, exnode, dest, max_streams, priority, span)
        self.bytes_fetched = 0
        self.per_depot_bytes: Dict[str, int] = {}

    def _prepare(self, block: _Block) -> float:
        """Read the block at its depot; the flow follows the request RTT."""
        m = block.mapping
        depot = self.lors.lbone.lookup(m.depot)
        block.data = depot.load(m.read_cap, m.extent.length)
        return self.lors.network.rpc_delay(self.dest, m.depot)

    def _land(self, block: _Block) -> None:
        m = block.mapping
        self.bytes_fetched += m.extent.length
        self.per_depot_bytes[m.depot] = (
            self.per_depot_bytes.get(m.depot, 0) + m.extent.length
        )

    def _result(self) -> bytes:
        """The file from its fetched blocks: one join, or no copy at all.

        Where the cover's extents overlap they are replicas of one file cut
        at different offsets, so their bytes agree: a block gives only what
        the blocks before it did not.
        """
        parts: List[bytes] = []
        end = 0
        for block in self._blocks:
            extent = block.mapping.extent
            parts.append(block.data[end - extent.offset:]
                         if extent.offset < end else block.data)
            end = extent.end
        # a lone block is handed on as the very object the depot stored
        return parts[0] if len(parts) == 1 else b"".join(parts)


class CopyJob(_BlockJob):
    """Third-party copy of an exNode's blocks onto a target depot.

    Used by aggressive staging: data moves depot→depot; the initiating node
    only pays small manage RPCs.  Resolves with the list of new
    :class:`Mapping` objects (the caller augments its exNode or registers
    them with the DVS); a block copy that does not land gives its target
    allocation back.
    """

    tag = "copy"
    what = "third-party copy"

    def __init__(
        self,
        lors: LoRS,
        exnode: ExNode,
        target: Depot,
        max_streams: int = 4,
        priority: Priority = Priority.STAGING,
        span: object = None,
    ) -> None:
        super().__init__(lors, exnode, target.name, max_streams, priority,
                         span)
        self.target = target
        self.new_mappings: List[Mapping] = []

    def _prepare(self, block: _Block) -> None:
        """Source ``copy_out`` + target allocation; the flow starts at once."""
        m = block.mapping
        self.lors.network.route(m.depot, self.dest)
        source = self.lors.lbone.lookup(m.depot)
        block.data = source.copy_out(m.read_cap, m.extent.length)
        block.caps = self.target.allocate(
            m.extent.length, STAGED_LEASE_SECONDS, soft=True
        )

    def _land(self, block: _Block) -> None:
        assert block.caps is not None  # allocated by _prepare
        rcap, wcap, mcap = block.caps
        self.target.store(wcap, block.data)
        # the depot holds the bytes and the mapping owns the allocation now
        block.data, block.caps = b"", None
        self.new_mappings.append(Mapping(
            extent=block.mapping.extent,
            read_cap=rcap, write_cap=wcap, manage_cap=mcap,
        ))

    def _release(self, block: _Block) -> None:
        if block.caps is not None:
            self._give_back(block.caps[2])
            block.caps = None

    def _abort(self, error: LoRSError) -> None:
        # a failed copy resolves with no mappings, so the blocks that landed
        # are no one's: their allocations go back with the rest
        for m in self.new_mappings:
            assert m.manage_cap is not None  # made by _land
            self._give_back(m.manage_cap)
        self.new_mappings.clear()
        super()._abort(error)

    def _give_back(self, manage_cap: Capability) -> None:
        try:
            self.target.manage_decrement(manage_cap)
        except IBPError:
            pass  # already expired/reclaimed

    def _result(self) -> List[Mapping]:
        return list(self.new_mappings)


class LoRS:
    """Facade tying the network, L-Bone and depots into file operations.

    Every byte-moving operation issues its flows through a
    :class:`~repro.lon.scheduler.TransferScheduler`.  When the caller does
    not supply one, a private ``policy="off"`` scheduler reproduces the
    historical priority-blind behaviour exactly.
    """

    def __init__(
        self,
        queue: EventQueue,
        network: Network,
        lbone: LBone,
        scheduler: Optional[TransferScheduler] = None,
    ) -> None:
        self.queue = queue
        self.network = network
        self.lbone = lbone
        self.scheduler = (
            scheduler if scheduler is not None
            else TransferScheduler(network, policy="off")
        )

    # ------------------------------------------------------------------
    # placement (offline pre-distribution, as the paper's server does)
    # ------------------------------------------------------------------
    def place(
        self,
        name: str,
        data: bytes,
        depots: Sequence[Depot],
        stripe_width: int = 1,
        replicas: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        duration: float = 3600.0,
        metadata: Optional[Dict[str, str]] = None,
    ) -> ExNode:
        """Synchronously stripe + replicate ``data`` across ``depots``.

        This models the *offline* pre-distribution step ("the server
        generates the light field database ... then uploaded to IBP depots");
        no simulated network time elapses.  Blocks are laid out round-robin
        over the first ``stripe_width`` depots; replica ``r`` of block ``i``
        goes to depot ``(i + r) % stripe_width`` offset into the depot list,
        guaranteeing distinct depots per replica when enough are supplied.
        """
        if not depots:
            raise LoRSError("place() requires at least one depot")
        if stripe_width < 1:
            raise LoRSError("stripe_width must be >= 1")
        if replicas < 1:
            raise LoRSError("replicas must be >= 1")
        if replicas > len(depots):
            raise LoRSError(
                f"cannot place {replicas} distinct replicas on "
                f"{len(depots)} depots"
            )
        if block_size <= 0:
            raise LoRSError("block_size must be positive")
        stripe_width = min(stripe_width, len(depots))
        exnode = ExNode(name=name, length=len(data), metadata=metadata)
        n_blocks = (len(data) + block_size - 1) // block_size
        for i in range(n_blocks):
            off = i * block_size
            chunk = data[off:off + block_size]
            extent = Extent(off, len(chunk))
            for r in range(replicas):
                depot = depots[(i % stripe_width + r) % len(depots)]
                rcap, wcap, mcap = depot.allocate(len(chunk), duration)
                depot.store(wcap, chunk)
                exnode.add_mapping(
                    Mapping(
                        extent=extent,
                        read_cap=rcap,
                        write_cap=wcap,
                        manage_cap=mcap,
                    )
                )
        return exnode

    # ------------------------------------------------------------------
    # online operations
    # ------------------------------------------------------------------
    def upload(
        self,
        name: str,
        data: bytes,
        source: str,
        depots: Sequence[Depot],
        stripe_width: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        duration: float = 3600.0,
    ) -> Deferred:
        """Asynchronous upload from ``source``: place + pay for the flows.

        The layout matches :meth:`place`; the deferred resolves with the
        resulting :class:`ExNode` once every block flow has been delivered.
        Uploads run in the MAINTENANCE class: database upkeep should never
        crowd out a user-facing fetch.
        """
        deferred = Deferred()
        try:
            exnode = self.place(name, data, depots, stripe_width,
                                block_size=block_size, duration=duration)
        except (LoRSError, IBPError) as exc:
            deferred.reject(exc)
            return deferred
        remaining = len(exnode.mappings)
        if remaining == 0:
            deferred.resolve(exnode)
            return deferred
        state = {"left": remaining, "failed": False}

        def done(_fl: Flow) -> None:
            if state["failed"]:
                return
            state["left"] -= 1
            if state["left"] == 0:
                deferred.resolve(exnode)

        def fail(_fl: Flow, exc: Exception) -> None:
            if state["failed"]:
                return
            state["failed"] = True
            deferred.reject(LoRSError(f"upload of {name!r} failed: {exc}"))

        self.scheduler.submit_batch([
            TransferSpec(
                source, m.depot, m.extent.length,
                on_complete=done, on_fail=fail,
                label=f"ul:{name}:{m.extent.offset}",
                priority=Priority.MAINTENANCE,
            )
            for m in exnode.mappings
        ])
        return deferred

    def download(
        self,
        exnode: ExNode,
        dest: str,
        max_streams: int = 8,
        priority: Priority = Priority.DEMAND,
        span: object = None,
    ) -> DownloadJob:
        """Fetch a whole exNode to node ``dest``; resolves with ``bytes``.

        ``priority`` sets the scheduling class of every block flow (DEMAND
        for a waiting user, PREFETCH for speculative warm-up); the returned
        job is the deferred, and can be promoted or cancelled mid-flight.
        ``span`` (optional) parents every block-fetch transfer span.
        """
        job = DownloadJob(self, exnode, dest, max_streams,
                          priority=priority, span=span)
        job.start()
        return job

    def augment(
        self,
        exnode: ExNode,
        target: Depot,
        max_streams: int = 4,
        priority: Priority = Priority.STAGING,
        span: object = None,
    ) -> CopyJob:
        """Third-party copy onto ``target``; resolves with new mappings.

        Staged copies are *soft* allocations: the LAN depot may
        reclaim them under pressure, exactly the revocable idle-resource
        sharing LoN advertises.  ``max_streams`` bounds concurrent block
        flows (the staging aggressiveness knob).  Copies run in the STAGING
        class by default and can be promoted to DEMAND mid-flight.
        """
        job = CopyJob(self, exnode, target, max_streams=max_streams,
                      priority=priority, span=span)
        job.start()
        return job
