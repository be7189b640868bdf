"""Simulated network: topology, links, and max-min fair flow transfers.

This module stands in for the real Internet path between the client LAN at UT
Knoxville and the IBP depots in California.  It models exactly the properties
the paper's evaluation depends on:

* **propagation latency** per link (WAN ~tens of ms, LAN ~sub-ms), which
  dominates small control messages (DVS queries, IBP manage calls);
* **bandwidth** per link, shared **max-min fairly** among concurrent flows,
  which is what makes LoRS multi-stream downloads faster than a single socket
  and what makes aggressive staging slow down foreground misses (the
  "prefetching ... places a burden" observation in Section 4.3);
* **weighted sharing**: each flow carries a ``weight``; link capacity is
  divided by weighted max-min fairness (weight 1.0 everywhere reproduces the
  classic equal-share behaviour).  :class:`repro.lon.scheduler` maps transfer
  priority classes onto weights so a demand miss sharing the WAN with
  background staging still gets most of the pipe;
* **pause/resume**: a flow can be taken out of bandwidth contention without
  losing its progress (strict-preemption scheduling) and resumed later;
* **dynamic re-rating**: whenever a flow starts, finishes, pauses, resumes or
  changes weight, affected flow rates are recomputed and their drain
  deadlines with them.

Routing is shortest-path by latency over an adjacency dict.  Transfers
deliver their completion callback after ``path propagation latency +
serialization time at the allocated rate``.  :meth:`Network.transfer` is the
only way a flow is admitted: flows that start at one instant (a LoRS
download's streams) are that many calls, one flow at a time.

Re-rating is incremental.  Per-link flow membership is tracked; a change
marks its links dirty, triggers at the same timestamp coalesce into one
recompute (a flush event), and the flush hands only the connected component
of links/flows reachable from the dirty set to the rate kernel
(:func:`repro.lon.rates.maxmin_rates`: link capacities, per-flow row-id
paths, weights and TCP-window ceilings in, rates out — this class is the
flow table around it and computes no allocation itself).  A flow whose rate
moved beyond :data:`RATE_EPSILON` gets a new drain deadline, and the flush
puts the flows it rated on one **completion calendar**: only the member(s)
due first hold a queue event.  When it fires, the retire pokes the next
flush, which regroups the survivors — so a trigger in a bandwidth-limited
component, where every rate moves, costs one armed event instead of a
cancel and a re-issue per member.  A calendar left with members and nothing
armed (its armed member was cancelled, paused, failed, re-armed on its own,
or regrouped without them) arms its next member at once, or when the flush
pending at that instant ends.  A trigger whose links all keep TCP-window
cap-sum headroom skips the flush entirely (the quiet-link fast path) and
the flow it rates holds its own event.  Rates and deadlines are
authoritative once :meth:`Network.flush` has run — which happens
automatically before any event at a later timestamp fires; synchronous
callers inspecting ``Flow.rate`` right after a change should call
``flush()`` first.

The whole-network recompute this design is proven against lives test-side
(``tests/lon/reference_network.py``); there is no mode or threshold option.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from .rates import maxmin_rates
from .simtime import Event, EventQueue

__all__ = ["Link", "Flow", "Network", "NetworkError", "NoRouteError",
           "RebalanceStats", "RATE_EPSILON", "mbps", "gbps"]

#: relative rate change below which a flow keeps its drain deadline (the
#: drain check self-corrects sub-epsilon drift in either direction)
RATE_EPSILON = 1e-9


def mbps(x: float) -> float:
    """Convert megabits/second to bytes/second."""
    return x * 1e6 / 8.0


def gbps(x: float) -> float:
    """Convert gigabits/second to bytes/second."""
    return x * 1e9 / 8.0


class NetworkError(RuntimeError):
    """Base class for simulated-network failures."""


class NoRouteError(NetworkError):
    """No path exists between the requested endpoints."""


#: (path link keys, one-way propagation latency, link row ids)
_ResolvedPath = Tuple[Tuple[FrozenSet[str], ...], float, Tuple[int, ...]]


@dataclass
class Link:
    """A duplex link between two named nodes.

    ``bandwidth`` is in bytes/second, ``latency`` in seconds (one-way
    propagation).  ``up`` toggles availability for fault injection.
    """

    a: str
    b: str
    bandwidth: float
    latency: float
    up: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth < math.inf:
            raise ValueError(f"link bandwidth must be finite, > 0: {self}")
        if not 0 <= self.latency < math.inf:
            raise ValueError(f"link latency must be finite, >= 0: {self}")

    @property
    def key(self) -> FrozenSet[str]:
        """Unordered endpoint pair identifying this link."""
        return frozenset((self.a, self.b))


@dataclass(eq=False, slots=True)
class Flow:
    """An in-progress bulk transfer along a fixed path.

    Bookkeeping invariant: ``remaining`` is exact as of ``last_update``;
    between rate changes the flow drains linearly at ``rate`` bytes/second.

    ``eq=False``: flows compare (and hash) by identity.  The generated
    field-wise ``__eq__`` was never meaningful — two distinct transfers are
    never "equal" — and it made every admitted-set membership test an O(n)
    deep comparison over paths and callbacks on the hot trigger path.
    ``slots=True``: a flush reads and writes fields of every member.
    """

    src: str
    dst: str
    size: int
    path_links: Tuple[FrozenSet[str], ...]
    #: the callbacks (``on_rate_change`` below too) are dropped once the
    #: flow is delivered, failed or cancelled: they can never fire again,
    #: and they close over the caller, who holds the flow
    on_complete: Optional[Callable[["Flow"], None]]
    on_fail: Optional[Callable[["Flow", Exception], None]] = None
    label: str = ""
    #: stable per-network admission sequence number.  All rebalancer
    #: bookkeeping keys on this (never ``id(flow)``): memory addresses
    #: differ between runs, which would leak allocator state into set
    #: iteration order and break bit-reproducible replays.
    fid: int = field(default=-1, init=False)
    rate_cap: float = float("inf")  # TCP window / RTT ceiling
    weight: float = 1.0             # share of weighted max-min fairness
    #: ``path_links`` as stable rows of the network's link table: what the
    #: membership sets, the component walk and the rate kernel key on (int
    #: hashing beats frozenset hashing); ``path_links`` stays the public
    #: identity.  Immutable, like the path and the table rows themselves.
    link_row_ids: Tuple[int, ...] = field(default=(), repr=False)
    remaining: float = field(init=False)
    rate: float = field(default=0.0, init=False)
    last_update: float = field(default=0.0, init=False)
    start_time: float = field(default=0.0, init=False)
    finish_time: Optional[float] = field(default=None, init=False)
    prop_latency: float = field(default=0.0, init=False)
    drained_at: Optional[float] = field(default=None, init=False)
    #: the queue event this flow holds: its drain check while it contends
    #: (armed for it alone, or as the member of its calendar due first — a
    #: calendar member due later holds none), then its delivery
    _completion_event: Optional[Event] = field(default=None, init=False)
    #: when the last byte leaves the bottleneck at the current rate: the
    #: time of the drain check.  Meaningful while ``_calendar`` is set.
    deadline: float = field(default=0.0, init=False)
    #: order in which calendar deadlines were set: breaks an exact tie the
    #: way the queue's ``seq`` did when every flow held an event
    _due_seq: int = field(default=0, init=False, repr=False)
    #: the completion calendar the last flush put this flow on, if any
    _calendar: Optional["_Calendar"] = field(
        default=None, init=False, repr=False
    )
    done: bool = field(default=False, init=False)
    failed: bool = field(default=False, init=False)
    paused: bool = field(default=False, init=False)
    #: optional observer fired as ``hook(flow, old_rate)`` whenever a
    #: rebalance changes this flow's allocated rate.  Observers must only
    #: record — starting/cancelling flows from the hook is undefined.
    on_rate_change: Optional[Callable[["Flow", float], None]] = field(
        default=None, init=False
    )

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("flow size must be non-negative")
        if not 0 < self.weight < math.inf:
            raise ValueError("flow weight must be positive and finite")
        self.remaining = float(self.size)

    def _let_go(self) -> None:
        """Drop the callbacks of a flow that just became terminal, so it
        and its caller are freed by reference count, not by the collector."""
        self.on_complete = self.on_fail = self.on_rate_change = None


class _Calendar:
    """Drain deadlines of the flows one flush rated together.

    Only the member(s) due first hold a queue event.  When it fires, the
    retire pokes a flush that moves the survivors onto a fresh calendar, so
    a trigger costs one armed event rather than one per member; members a
    flush leaves behind are re-armed by :meth:`Network._rearm`.
    """

    __slots__ = ("members", "armed")

    def __init__(self) -> None:
        #: in the flush's component order; a flow that has since left is
        #: told apart by ``flow._calendar is not self``
        self.members: List[Flow] = []
        #: members currently holding a drain-check event
        self.armed: int = 0


#: live flows from which a flush counts as ``vectorized``.  The rates do not
#: depend on it; the count stays because ``perf/layers.py`` reads it by name,
#: CI perf-smoke pins it and ``BENCH_scale.json`` records it
_VECTORIZED_FLOWS = 24


@dataclass
class RebalanceStats:
    """Counters sizing the rebalancer's work (for benchmarks and tests)."""

    recomputes: int = 0          # flush passes that did work
    full_recomputes: int = 0     # whole-network recomputes: 0 in production,
                                 # counted by the test-side reference oracle
    coalesced: int = 0           # triggers absorbed into a pending flush
    component_flows: int = 0     # flows water-filled by flush passes
    flows_rerated: int = 0       # flows whose allocated rate changed
    events_rescheduled: int = 0  # drain checks armed on the queue (one per
                                 # ``schedule``, by a flush or for one flow)
    vectorized: int = 0          # recomputes of _VECTORIZED_FLOWS or more
                                 # live flows
    all_capped: int = 0          # always 0 (the all-capped pre-pass is gone);
                                 # perf/layers.py reads the field by name
    fast_rated: int = 0          # triggers absorbed without any flush: the
                                 # flow's links all had cap-sum headroom


class Network:
    """Topology container + flow scheduler.

    Nodes are plain strings.  Add links with :meth:`add_link`, then move bytes
    with :meth:`transfer` (bulk, bandwidth-shared) or ask for
    :meth:`rpc_delay` (small control messages that only pay propagation).
    """

    #: fixed per-message processing overhead applied to RPCs (seconds); stands
    #: in for kernel + daemon request handling on 2003-era hardware.
    RPC_OVERHEAD = 0.0005

    def __init__(self, queue: EventQueue,
                 tcp_window: Optional[float] = None) -> None:
        """``tcp_window`` (bytes) caps each flow at window/RTT — the
        single-stream TCP throughput ceiling that makes multi-stream LoRS
        downloads and third-party staging worthwhile.  None = uncapped.
        """
        self.queue = queue
        self.tcp_window = tcp_window
        self.stats = RebalanceStats()
        # node -> neighbour -> latency over the links that are up, both in
        # insertion order (a link brought back up goes to the end of each
        # row): the order route() breaks equal-latency ties by
        self._adj: Dict[str, Dict[str, float]] = {}
        self._links: Dict[FrozenSet[str], Link] = {}
        # admitted flows by stable fid (insertion order = admission order,
        # which the reference oracle's iteration depends on).  A dict
        # rather than a list: membership tests and removal on the trigger
        # path are O(1) int hashes instead of O(n) scans.
        self._flows: Dict[int, Flow] = {}
        self._fid_counter = itertools.count()
        self._route_cache: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        # (path links, propagation latency, link row ids) per endpoint
        # pair: transfer() and rpc_delay() resolve their whole path in one
        # dict hit instead of re-walking link objects per call.
        # Route-derived only, so it invalidates with the route cache.
        self._path_cache: Dict[Tuple[str, str], _ResolvedPath] = {}
        # rebalance state: link row -> ascending ids of *contending* flows
        # (admitted, not paused, not drained), the dirty row seeds,
        # and the pending same-timestamp flush.  Links are identified by
        # their stable int row from ``_row_of`` so the hot closure walk
        # hashes ints, not frozensets.
        self._members: Dict[int, List[int]] = {}
        self._dirty: Set[int] = set()
        self._flush_event: Optional[Event] = None
        # completion calendars: those whose last armed member left (others
        # may still sit on them), and the last ``Flow._due_seq`` handed out
        self._unarmed: List[_Calendar] = []
        self._due_seq = 0
        # stable global link rows: each link key gets a permanent row
        # index and an *effective* bandwidth slot (physical minus any
        # cross-shard remote load) — the capacity table the rate kernel
        # reads
        self._row_of: Dict[FrozenSet[str], int] = {}
        self._row_bw: List[float] = []
        # per-row admission accounting for the quiet fast path: the sum of
        # member TCP-window ceilings, the number of uncapped members, and
        # whether the row could possibly constrain anyone ("over": some
        # member is uncapped, or the ceilings alone oversubscribe it).  A
        # flow whose rows are all not-over is pinned at its own ceiling by
        # max-min fairness, and admitting/removing it cannot re-rate any
        # other flow — so those triggers skip the flush entirely.
        self._row_capload: List[float] = []
        self._row_unc: List[int] = []
        self._row_over: List[bool] = []
        # link_utilization's read order: the (a, b) pairs sorted, and each
        # row's slot in them with its link; rebuilt after add_link
        self._utilization_order: Optional[Tuple[
            Tuple[Tuple[str, str], ...], Dict[int, Tuple[int, Link]]]] = None

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> None:
        """Register a host (idempotent)."""
        self._adj.setdefault(name, {})

    def add_link(
        self, a: str, b: str, bandwidth: float, latency: float
    ) -> Link:
        """Create a duplex link; replaces any existing a<->b link."""
        link = Link(a=a, b=b, bandwidth=bandwidth, latency=latency)
        self._links[link.key] = link
        self._utilization_order = None
        self._join(a, b, latency)
        self._route_cache.clear()
        self._path_cache.clear()
        row = self._row_of.get(link.key)
        if row is None:
            self._row_of[link.key] = len(self._row_bw)
            self._row_bw.append(link.bandwidth)
            self._row_capload.append(0.0)
            self._row_unc.append(0)
            self._row_over.append(False)
        else:  # replaced link: keep the row, refresh its bandwidth
            self._row_bw[row] = link.bandwidth
            self._row_over[row] = (
                self._row_unc[row] > 0
                or self._row_capload[row] > link.bandwidth
            )
            if row in self._members:
                self._poke((row,))
        return link

    def _join(self, a: str, b: str, latency: float) -> None:
        self._adj.setdefault(a, {})[b] = latency
        self._adj.setdefault(b, {})[a] = latency

    def link_between(self, a: str, b: str) -> Link:
        """The link object joining two adjacent nodes."""
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise NoRouteError(f"no direct link {a} <-> {b}") from None

    def set_link_up(self, a: str, b: str, up: bool) -> None:
        """Fault injection: take a link down or bring it back.

        Downing a link fails every flow currently routed over it and
        invalidates the route cache.
        """
        link = self.link_between(a, b)
        if link.up == up:
            return
        link.up = up
        self._route_cache.clear()
        self._path_cache.clear()
        if up:
            self._join(a, b, link.latency)
        else:
            del self._adj[a][b], self._adj[b][a]
            doomed = [f for f in self._flows.values()
                      if link.key in f.path_links]
            for f in doomed:
                self._fail_flow(f, NetworkError(f"link {a}<->{b} went down"))

    def route(self, src: str, dst: str) -> Tuple[str, ...]:
        """Latency-shortest node path from src to dst (cached)."""
        if src == dst:
            return (src,)
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        path = self._shortest_path(src, dst)
        self._route_cache[key] = path
        return path

    def _shortest_path(self, src: str, dst: str) -> Tuple[str, ...]:
        """Bidirectional Dijkstra over ``_adj``.

        Searches alternate from ``src`` and ``dst`` (index 0 and 1 below);
        the heap orders equal distances by discovery, a node is relaxed only
        on strict improvement and the first meeting point of a given length
        wins — tie for tie the path of the graph library this replaced,
        which ``tests/lon/test_route_oracle.py`` keeps as the oracle.
        """
        adj = self._adj
        no_route = NoRouteError(f"no route {src} -> {dst}")
        if src not in adj or dst not in adj:
            raise no_route
        settled: Tuple[Dict[str, float], ...] = ({}, {})
        seen: Tuple[Dict[str, float], ...] = ({src: 0}, {dst: 0})
        prev: Tuple[Dict[str, Optional[str]], ...] = (
            {src: None}, {dst: None})
        fringe: Tuple[List[Tuple[float, int, str]], ...] = (
            [(0, 0, src)], [(0, 1, dst)])
        order = itertools.count(2)
        best = float("inf")
        meet: Optional[str] = None
        side = 1
        while fringe[0] and fringe[1]:
            side = 1 - side
            dist, _, v = heappop(fringe[side])
            if v in settled[side]:
                continue
            settled[side][v] = dist
            if v in settled[1 - side]:
                # settled from both ends: the best meeting is final
                path: List[str] = []
                node = meet
                while node is not None:
                    path.append(node)
                    node = prev[0][node]
                path.reverse()
                node = prev[1][path[-1]]
                while node is not None:
                    path.append(node)
                    node = prev[1][node]
                return tuple(path)
            for w, latency in adj[v].items():
                reach = dist + latency
                if w not in settled[side] and (
                    w not in seen[side] or reach < seen[side][w]
                ):
                    seen[side][w] = reach
                    heappush(fringe[side], (reach, next(order), w))
                    prev[side][w] = v
                    if w in seen[1 - side]:
                        total = reach + seen[1 - side][w]
                        if total < best:
                            best, meet = total, w
        raise no_route

    def _resolve_path(self, src: str, dst: str) -> _ResolvedPath:
        """(path link keys, one-way propagation latency, link row ids),
        cached.

        transfer() and rpc_delay() need the same facts about an endpoint
        pair; resolving them through one dict hit keeps the per-call cost
        off the hot path (the cache is invalidated with the route cache on
        any topology change).
        """
        key = (src, dst)
        hit = self._path_cache.get(key)
        if hit is not None:
            return hit
        path = self.route(src, dst)
        links = tuple(
            self._links[frozenset((u, v))].key
            for u, v in zip(path, path[1:])
        )
        # same accumulation order as summing along the path: parity with
        # the uncached computation matters for bit-reproducible replays
        latency = 0.0
        for lk in links:
            latency += self._links[lk].latency
        entry = (links, latency, tuple(self._row_of[lk] for lk in links))
        self._path_cache[key] = entry
        return entry

    def path_latency(self, src: str, dst: str) -> float:
        """One-way propagation latency along the current route."""
        if src == dst:
            return 0.0
        return self._resolve_path(src, dst)[1]

    def rpc_delay(self, src: str, dst: str) -> float:
        """Round-trip delay for a small request/response exchange."""
        if src == dst:
            return self.RPC_OVERHEAD
        return 2.0 * self.path_latency(src, dst) + self.RPC_OVERHEAD

    def link_utilization(
        self,
    ) -> Tuple[Tuple[Tuple[str, str], ...], Tuple[float, ...]]:
        """Instantaneous utilization (allocated rate / capacity) per link,
        as ``(links, values)``: every link's ``(a, b)`` pair, sorted, and
        its utilization at the same index.

        Served from the rebalancer's cached membership and rate map (after
        flushing any pending rebalance) instead of re-deriving fair shares,
        so obs samplers can tick cheaply.  Paused flows and flows in their
        propagation tail consume no bandwidth; a downed link reads 0.
        Values are clamped to [0, 1] (transient float excess from
        water-filling rounds down).  Only a link with contending members
        is summed; the rest read 0.0.  ``links`` is the same tuple object
        until :meth:`add_link` runs, so the obs link sampler, which calls
        this every tick, names its series once.
        """
        self.flush()
        order = self._utilization_order
        if order is None:
            ordered = sorted(self._links.values(),
                             key=lambda link: (link.a, link.b))
            order = self._utilization_order = (
                tuple((link.a, link.b) for link in ordered),
                {self._row_of[link.key]: (i, link)
                 for i, link in enumerate(ordered)},
            )
        links, slot_of = order
        values = [0.0] * len(links)
        for row in self._members:
            i, link = slot_of[row]
            if link.up:
                values[i] = min(1.0, self._row_load(row) / link.bandwidth)
        return links, tuple(values)

    def _row_load(self, row: int) -> float:
        """Allocated rate over one link row (bytes/s), as of the last
        flush."""
        inf = float("inf")
        load = 0.0
        # in fid order: float accumulation order must not depend on history
        for fid in self._members.get(row, ()):
            rate = self._flows[fid].rate
            if 0 < rate < inf:
                load += rate
        return load

    # ------------------------------------------------------------------
    # cross-shard boundary links
    # ------------------------------------------------------------------
    #: floor for a boundary link's effective bandwidth (bytes/s): even a
    #: fully oversubscribed boundary keeps draining so local flows cannot
    #: stall forever on remote load alone
    MIN_EFFECTIVE_BANDWIDTH = 1.0

    def link_load(self, a: str, b: str) -> float:
        """Locally allocated rate over one link (bytes/s), post-flush.

        This is the per-shard "rate summary" exchanged at the windowed
        barrier: each shard publishes its own allocation on a boundary
        link, and peers subtract the remote total from the link's
        effective capacity via :meth:`set_remote_load`.  Returns 0.0 when
        this network has no such link (a shard with no crossing clients).
        """
        key = frozenset((a, b))
        if key not in self._links:
            return 0.0
        self.flush()
        return self._row_load(self._row_of[key])

    def set_remote_load(self, a: str, b: str, load: float) -> None:
        """Reserve remote (cross-shard) load on a boundary link.

        The link's *effective* bandwidth seen by every water-fill path
        becomes ``max(physical - load, MIN_EFFECTIVE_BANDWIDTH)``; the
        physical capacity (and :meth:`link_utilization` denominators) are
        unchanged.  Local flows over the link are re-rated when the
        effective value moves.  The remote figure is one barrier window
        stale by construction — the bounded-staleness contract measured by
        :mod:`repro.lon.shard`.
        """
        if not 0 <= load < math.inf:
            raise ValueError("remote load must be non-negative and finite")
        key = frozenset((a, b))
        link = self._links.get(key)
        if link is None:
            raise NoRouteError(f"no direct link {a} <-> {b}")
        row = self._row_of[key]
        eff = max(link.bandwidth - load, self.MIN_EFFECTIVE_BANDWIDTH)
        if eff == self._row_bw[row]:
            return
        self._row_bw[row] = eff
        self._row_over[row] = (
            self._row_unc[row] > 0 or self._row_capload[row] > eff
        )
        if row in self._members:
            self._poke((row,))

    def has_link(self, a: str, b: str) -> bool:
        """Whether a direct link ``a <-> b`` exists in this topology."""
        return frozenset((a, b)) in self._links

    def link_capacity(self, a: str, b: str) -> float:
        """Physical bandwidth of a direct link (0.0 when absent)."""
        link = self._links.get(frozenset((a, b)))
        return link.bandwidth if link is not None else 0.0

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> Tuple[Flow, ...]:
        """Currently in-flight transfers."""
        return tuple(self._flows.values())

    def transfer(
        self,
        src: str,
        dst: str,
        size: int,
        on_complete: Callable[[Flow], None],
        on_fail: Optional[Callable[[Flow, Exception], None]] = None,
        label: str = "",
        weight: float = 1.0,
    ) -> Flow:
        """Start a bulk transfer of ``size`` bytes from src to dst.

        ``on_complete(flow)`` fires at simulated delivery time.  Same-node
        transfers complete after a nominal memcpy delay.  ``weight`` scales
        this flow's share under weighted max-min fairness (1.0 = classic
        equal share).  Raises :class:`NoRouteError` immediately if the
        endpoints are partitioned.
        """
        now = self.queue.now
        if src == dst:
            flow = Flow(src, dst, size, (), on_complete, on_fail, label,
                        weight=weight)
            flow.fid = next(self._fid_counter)
            flow.start_time = now
            memcpy = 1e-4 + size / gbps(8.0)  # local copy at ~8 Gb/s
            flow.finish_time = now + memcpy
            flow._completion_event = self.queue.schedule_in(
                memcpy, lambda: self._finish_flow(flow), f"flow:{label}"
            )
            return flow

        links, prop_latency, rows = self._resolve_path(src, dst)
        flow = Flow(src, dst, size, links, on_complete, on_fail, label,
                    weight=weight, link_row_ids=rows)
        flow.fid = next(self._fid_counter)
        flow.start_time = now
        flow.last_update = now
        flow.prop_latency = prop_latency
        if self.tcp_window is not None:
            rtt = max(2.0 * flow.prop_latency, 1e-6)
            flow.rate_cap = self.tcp_window / rtt
        self._flows[flow.fid] = flow
        self._admit(flow)
        if flow.rate_cap != float("inf") and self._quiet(flow):
            # every link keeps cap-sum headroom even with this flow at its
            # window ceiling: pin it there and leave everyone else alone
            flow.rate = flow.rate_cap
            self.stats.flows_rerated += 1
            self.stats.fast_rated += 1
            self._reschedule(flow, now)
        else:
            self._poke(rows)
        return flow

    # kept because perf/ reads it by name; goes with ROADMAP 1(b)
    def admission_plan(self, items: Sequence[Tuple[str, str, int]]) -> None:
        """No-op with no caller: every flow is admitted by :meth:`transfer`."""

    def cancel_flow(self, flow: Flow) -> None:
        """Abort an in-flight transfer without invoking callbacks."""
        if flow.done or flow.failed:
            return
        flow.failed = True
        flow._let_go()
        self._disarm(flow)
        if flow.fid in self._flows:
            self._released(flow, self._remove(flow))

    def pause_flow(self, flow: Flow) -> None:
        """Take a flow out of bandwidth contention, keeping its progress.

        A paused flow stops draining (rate 0) but stays admitted; survivors
        sharing its links are re-rated.  Used by the transfer scheduler's
        strict-preemption policy.  No-op on finished flows.
        """
        if flow.done or flow.failed or flow.paused:
            return
        flow.paused = True
        if flow.fid not in self._flows:
            return
        self._settle_flow(flow, self.queue.now)
        if flow.drained_at is not None:
            return  # propagation tail: already out of contention
        quiet = self._expel(flow)
        old_rate = flow.rate
        flow.rate = 0.0
        self._disarm(flow)
        if flow.on_rate_change is not None and old_rate != 0.0:
            flow.on_rate_change(flow, old_rate)
        self._released(flow, quiet)

    def resume_flow(self, flow: Flow) -> None:
        """Re-admit a paused flow to bandwidth contention."""
        if flow.done or flow.failed or not flow.paused:
            return
        flow.paused = False
        if flow.fid not in self._flows or flow.drained_at is not None:
            return
        flow.last_update = self.queue.now  # no progress while paused
        self._admit(flow)
        if flow.rate_cap != float("inf") and self._quiet(flow):
            flow.rate = flow.rate_cap
            self.stats.flows_rerated += 1
            self.stats.fast_rated += 1
            if flow.on_rate_change is not None:
                flow.on_rate_change(flow, 0.0)
            self._reschedule(flow, self.queue.now)
        else:
            self._poke(flow.link_row_ids)

    def set_flow_weight(self, flow: Flow, weight: float) -> None:
        """Change a flow's fair-share weight mid-transfer (re-rates peers)."""
        if not 0 < weight < math.inf:
            raise ValueError("flow weight must be positive and finite")
        if flow.weight == weight:
            return
        flow.weight = weight
        if flow.fid in self._flows and not (flow.done or flow.failed):
            if self._quiet(flow):
                # every member sits at its own window ceiling regardless of
                # weight: nothing to re-rate
                self.stats.fast_rated += 1
            else:
                self._poke(flow.link_row_ids)

    # -- rebalance bookkeeping -------------------------------------------
    def _admit(self, flow: Flow) -> None:
        """Add a contending flow to its links' membership lists."""
        fid = flow.fid
        cap = flow.rate_cap
        finite = cap != float("inf")
        capload, unc, over, bw = (
            self._row_capload, self._row_unc, self._row_over, self._row_bw,
        )
        for row in flow.link_row_ids:
            # appends, unless a paused flow resumes
            insort(self._members.setdefault(row, []), fid)
            if finite:
                capload[row] += cap
            else:
                unc[row] += 1
            over[row] = unc[row] > 0 or capload[row] > bw[row]

    def _expel(self, flow: Flow) -> bool:
        """Drop a flow from membership (paused, drained or gone), and say
        whether it left quietly: :meth:`_quiet` as it stood just before.

        Only rows the flow is actually a member of are touched: a paused
        flow was expelled when it paused, and cancelling or failing it
        must not take its ceiling off the row accounting a second time.
        (Membership, not ``flow.paused``: a flow paused in the instant it
        drained is still a member until it retires.)
        """
        fid = flow.fid
        cap = flow.rate_cap
        finite = cap != float("inf")
        members = self._members
        capload, unc, over, bw = (
            self._row_capload, self._row_unc, self._row_over, self._row_bw,
        )
        quiet = True
        for row in flow.link_row_ids:  # a path never repeats a row
            quiet = quiet and not over[row]
            fids = members.get(row, [])
            i = bisect_left(fids, fid)
            if i == len(fids) or fids[i] != fid:
                continue
            del fids[i]
            if not fids:
                del members[row]
                capload[row] = 0.0  # idle row: shed any float drift
                unc[row] = 0
            elif finite:
                capload[row] -= cap
            else:
                unc[row] -= 1
            over[row] = unc[row] > 0 or capload[row] > bw[row]
        return quiet

    def _quiet(self, flow: Flow) -> bool:
        """True when none of the flow's links can constrain any flow.

        On every not-over row the member ceilings sum below bandwidth, so
        the row is not a bottleneck for anyone: every member (this flow
        included, once admitted) sits at its own TCP-window ceiling, and
        adding or removing this flow cannot re-rate the others.  Read it
        *after* an admit; an expel returns it as it stood *before* (the
        rows' pre-removal state is what proves nobody was constrained).
        """
        row_over = self._row_over
        for row in flow.link_row_ids:
            if row_over[row]:
                return False
        return True

    def _remove(self, flow: Flow) -> bool:
        """Take a flow out of the admitted set entirely (quiet or not)."""
        del self._flows[flow.fid]
        return self._expel(flow)

    def _poke(self, rows: Iterable[int]) -> None:
        """Register a rebalance trigger for the given link rows.

        Marks the links dirty and arms one flush event at the current
        timestamp, coalescing every further trigger at this instant into a
        single recompute.
        """
        self._dirty.update(rows)
        if self._flush_event is None:
            self._flush_event = self.queue.schedule(
                self.queue.now, self._run_flush, "net-rebalance"
            )
        else:
            self.stats.coalesced += 1

    def _run_flush(self) -> None:
        self._flush_event = None
        self.flush()

    def flush(self) -> None:
        """Apply any pending rebalance now (no-op when nothing is dirty).

        Runs automatically (via a same-timestamp event) before simulation
        time can advance past a trigger; call it directly before reading
        ``Flow.rate`` synchronously after starting or altering flows.
        """
        if self._flush_event is not None:
            self.queue.cancel(self._flush_event)
            self._flush_event = None
        if self._dirty:
            self._rebalance(self.queue.now)
        self._rearm()

    def _rebalance(self, now: float) -> None:
        """Re-rate the component(s) reachable from the dirty rows and put
        their flows on one calendar: the closure walk splits drained from
        live flows, the kernel's input is gathered from the live ones after
        it, and the rating pass settles, re-rates, dates and seats each live
        flow and tracks who is due first."""
        # closure: the component is closed, so water-filling it alone
        # matches a global pass.  Sorted seeds, fid-sorted members: the
        # visit order is the order deadlines are set, so exact ties fire in.
        # Only a row's topmost copy on the stack is visited, so pushing
        # whole paths keeps the order of pushing only unvisited rows.
        members = self._members
        flow_by_id = self._flows
        comp_rows: Set[int] = set()
        seen: Set[int] = set()
        drained: List[Flow] = []
        live: List[Flow] = []
        stack = sorted(row for row in self._dirty if row in members)
        self._dirty.clear()
        while stack:
            row = stack.pop()
            if row in comp_rows:
                continue
            comp_rows.add(row)
            for fid in members[row]:
                if fid in seen:
                    continue
                seen.add(fid)
                f = flow_by_id[fid]
                stack.extend(f.link_row_ids)
                # lazy settling: ``remaining`` is exact at ``last_update``
                if (f.drained_at is not None or f.remaining
                        - f.rate * (now - f.last_update) <= 1e-9):
                    drained.append(f)
                else:
                    live.append(f)
        if not seen:
            return
        stats = self.stats
        stats.recomputes += 1
        stats.component_flows += len(seen)
        for f in drained:
            self._settle_flow(f, now)
            self._retire(f)
        if len(live) >= _VECTORIZED_FLOWS:
            stats.vectorized += 1
        rates = maxmin_rates(
            self._row_bw, [f.link_row_ids for f in live],
            [f.weight for f in live], [f.rate_cap for f in live])
        eps = RATE_EPSILON
        inf = first = float("inf")
        cal = _Calendar()
        joined = cal.members
        tied: List[Flow] = []
        due_seq = self._due_seq
        rerated = 0
        for f, new in zip(live, rates):
            old = f.rate
            if new != old:
                # _settle_flow inlined (a live flow has not drained): the
                # call alone costs half again this loop's time
                last = f.last_update
                if old > 0.0 and now > last:
                    t_drain = last + f.remaining / old
                    if t_drain <= now + 1e-12:
                        f.drained_at, f.remaining = t_drain, 0.0
                    else:
                        left = f.remaining - old * (now - last)
                        f.remaining = left if left > 0.0 else 0.0
                f.last_update = now
                f.rate = new
                rerated += 1
                if f.on_rate_change is not None:
                    f.on_rate_change(f, old)
            ev = f._completion_event
            moved = new - old  # rates are >= 0; inf - inf is nan: moved
            if (ev is not None or f._calendar is not None) and (
                    moved <= eps * new if moved > 0.0
                    else -moved <= eps * old if moved < 0.0
                    else moved == 0.0):
                # epsilon gate: the drain check self-corrects sub-epsilon
                # drift.  A flow holding an event keeps it and its seat:
                # whoever stays behind on that calendar is due no earlier
                if ev is not None:
                    continue
            else:
                if ev is not None:
                    self._disarm(f)
                if new <= 0.0:
                    f._calendar = None
                    continue  # stalled; due once a flush frees bandwidth
                # remaining >= 0: never before now
                f.deadline = now if new == inf else now + f.remaining / new
                due_seq += 1
                f._due_seq = due_seq
            f._calendar = cal
            joined.append(f)
            if f.deadline < first:
                first, tied = f.deadline, [f]
            elif f.deadline == first:
                tied.append(f)
        self._due_seq = due_seq
        stats.flows_rerated += rerated
        self._arm(cal, first, tied)

    def _arm(self, cal: _Calendar, first: float, tied: List[Flow]) -> None:
        """Arm ``cal``'s members due at ``first`` (exact on purpose): each
        fires its own event, in the order its deadline was set."""
        if len(tied) > 1:
            tied.sort(key=lambda f: f._due_seq)
        for f in tied:
            self._schedule_drain_check(f, first)
        cal.armed = len(tied)

    def _schedule_drain_check(self, f: Flow, at: float) -> None:
        """Put ``f``'s drain check on the queue: the event fires when the
        last byte leaves the bottleneck; the flow then stops consuming
        bandwidth and delivery happens one propagation delay later."""
        f._completion_event = self.queue.schedule(
            at, lambda fl=f: self._drain_check(fl), f"flow:{f.label}"
        )
        self.stats.events_rescheduled += 1

    def _rearm(self) -> None:
        """Re-arm the calendars left with members but no armed event (the
        armed one was retired, cancelled, paused, failed, re-armed on its
        own or regrouped without them).  Waits for a flush pending at this
        instant: it may regroup those members first, and ends here."""
        if self._unarmed and self._flush_event is None:
            unarmed, self._unarmed = self._unarmed, []
            for cal in unarmed:
                cal.members = left = [
                    f for f in cal.members if f._calendar is cal]
                if left:
                    first = min([f.deadline for f in left])
                    self._arm(cal, first,
                              [f for f in left if f.deadline == first])

    def _disarm(self, f: Flow) -> None:
        """Cancel the event ``f`` holds, if any, and take it off its
        calendar."""
        cal, f._calendar = f._calendar, None
        ev = f._completion_event
        if ev is not None:
            self.queue.cancel(ev)
            f._completion_event = None
            if cal is not None:
                cal.armed -= 1
                if cal.armed == 0:
                    self._unarmed.append(cal)

    def _released(self, flow: Flow, quiet: bool) -> None:
        """A flow just left contention: re-rate the survivors on its rows
        unless none of them was constrained (``quiet``, read before it
        left), and re-arm a calendar it left without an armed member."""
        if quiet:
            self.stats.fast_rated += 1
        else:
            self._poke(flow.link_row_ids)
        self._rearm()

    def _settle_flow(self, f: Flow, now: float) -> None:
        """Drain one flow's progress up to ``now`` at its current rate."""
        dt = now - f.last_update
        if dt > 0:
            if f.rate > 0 and f.drained_at is None:
                t_drain = f.last_update + f.remaining / f.rate
                if t_drain <= now + 1e-12:
                    f.drained_at = t_drain
            if f.drained_at is not None:
                f.remaining = 0.0  # exact: no float residue
            else:
                f.remaining = max(0.0, f.remaining - f.rate * dt)
            f.last_update = now

    def _reschedule(self, f: Flow, now: float) -> None:
        """Arm one flow's own drain check from its current rate (a flow
        rated without a flush sits on no calendar)."""
        self._disarm(f)
        if f.rate <= 0:
            return  # stalled; re-armed when a trigger frees bandwidth
        serialization = (
            0.0 if f.rate == float("inf") else f.remaining / f.rate
        )
        self._schedule_drain_check(f, max(now + serialization, now))

    # -- drain / delivery --------------------------------------------------
    def _drain_check(self, flow: Flow) -> None:
        if flow.done or flow.failed:
            return
        if flow.fid not in self._flows:
            return
        now = self.queue.now
        self._settle_flow(flow, now)
        if flow.drained_at is None and flow.remaining > 1e-6:
            # sub-epsilon rate drift left the old event slightly early;
            # re-arm from the exact remaining bytes
            self._reschedule(flow, now)
            self._rearm()
            return
        self._released(flow, self._retire(flow))

    def _retire(self, flow: Flow) -> bool:
        """Remove a drained flow, schedule its delivery; quiet or not."""
        now = self.queue.now
        if flow.drained_at is None:
            flow.drained_at = now
        quiet = self._remove(flow)
        self._disarm(flow)
        # keep the delivery event on the flow so a late cancel_flow() during
        # the propagation tail still suppresses on_complete
        flow._completion_event = self.queue.schedule(
            max(now, flow.drained_at + flow.prop_latency),
            lambda: self._finish_flow(flow),
            f"deliver:{flow.label}",
        )
        return quiet

    def _finish_flow(self, flow: Flow) -> None:
        flow.done = True
        flow.finish_time = self.queue.now
        flow._completion_event = None
        on_complete = flow.on_complete
        flow._let_go()
        if on_complete is not None:
            on_complete(flow)

    def _fail_flow(self, flow: Flow, exc: Exception) -> None:
        if flow.done or flow.failed:
            return
        flow.failed = True
        on_fail = flow.on_fail
        flow._let_go()
        self._disarm(flow)
        if flow.fid in self._flows:
            self._released(flow, self._remove(flow))
        if on_fail is not None:
            on_fail(flow, exc)
