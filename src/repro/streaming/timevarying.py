"""Time-varying datasets (Section 5 future work).

"We will continue to develop remote visualization systems for flow fields
and time-varying simulations as well."  This module implements that
extension on the existing stack: each simulation timestep has its own light
field database; view-set ids are namespaced per timestep
(``t{k}:vs-{vi}-{vj}``), so the DVS, depots, LoRS and the client agent all
work unchanged.  The client plays time forward while the user browses, and
the prefetch policy gains a **temporal dimension**: alongside the spatial
quadrant neighbors of the current view, the *next timestep's* current view
set is prefetched — the analogue of double-buffering animation frames.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from ..lightfield.lattice import CameraLattice, ViewSetKey, parse_viewset_id
from ..lightfield.source import ViewSetSource
from ..lon.ibp import Depot
from ..lon.lors import LoRS
from ..lon.network import Network
from ..lon.scheduler import Priority
from ..lon.simtime import EventQueue
from .agent import ClientAgent
from .client import CPU_SECONDS_PER_BYTE, RESIDENT_SWAP_LATENCY
from .dvs import DVSServer
from .metrics import AccessRecord, AccessSource, SessionMetrics
from .trace import CursorTrace

__all__ = ["TimeVaryingSource", "temporal_vid", "parse_temporal_vid",
           "TemporalClient"]

_TVID_RE = re.compile(r"^t(\d+):(vs-\d+-\d+)$")


def temporal_vid(t: int, lattice: CameraLattice, key: ViewSetKey) -> str:
    """The namespaced id of view set ``key`` at timestep ``t``."""
    if t < 0:
        raise ValueError("timestep must be non-negative")
    return f"t{t}:{lattice.viewset_id(key)}"


def parse_temporal_vid(vid: str) -> Tuple[int, ViewSetKey]:
    """Inverse of :func:`temporal_vid`."""
    m = _TVID_RE.match(vid)
    if not m:
        raise ValueError(f"not a temporal view-set id: {vid!r}")
    return int(m.group(1)), parse_viewset_id(m.group(2))


class TimeVaryingSource:
    """A sequence of per-timestep view-set sources.

    All timesteps must share lattice geometry and resolution (the camera
    rig does not move between simulation dumps).
    """

    def __init__(self, sources: Sequence[ViewSetSource]) -> None:
        if not sources:
            raise ValueError("need at least one timestep")
        first = sources[0]
        for s in sources[1:]:
            if s.lattice != first.lattice or s.resolution != first.resolution:
                raise ValueError(
                    "all timesteps must share lattice and resolution"
                )
        self.sources: List[ViewSetSource] = list(sources)
        self.lattice = first.lattice
        self.spheres = first.spheres
        self.resolution = first.resolution

    @property
    def n_timesteps(self) -> int:
        """Number of simulation dumps."""
        return len(self.sources)

    def payload(self, t: int, key: ViewSetKey) -> bytes:
        """Compressed payload for (timestep, view set)."""
        if not 0 <= t < len(self.sources):
            raise IndexError(f"timestep {t} out of range")
        return self.sources[t].payload(key)

    def payload_for_vid(self, vid: str) -> bytes:
        """Payload lookup by namespaced id (used by server distribution)."""
        t, key = parse_temporal_vid(vid)
        return self.payload(t, key)

    def distribute(
        self, lors: LoRS, depots: Sequence[Depot], dvs: DVSServer,
        stripe_width: int = 3,
        block_size: int = 1 << 20, duration: float = 24 * 3600.0,
    ) -> int:
        """Pre-distribute every (timestep, view set) to depots + DVS.

        Returns the number of objects placed.  Offline, like
        :meth:`ServerAgent.pre_distribute`.
        """
        count = 0
        for t in range(self.n_timesteps):
            for key in self.lattice.all_viewsets():
                vid = temporal_vid(t, self.lattice, key)
                exnode = lors.place(
                    vid, self.payload(t, key), depots,
                    stripe_width=stripe_width, block_size=block_size,
                    duration=duration,
                    metadata={"timestep": str(t)},
                )
                dvs.register_exnode(vid, exnode)
                count += 1
        return count


class TemporalClient:
    """A playback client: the dataset animates while the user browses.

    Every ``playback_period`` simulated seconds the timestep advances; a
    view-set *access* happens whenever the (timestep, view set) pair the
    display needs changes — either because the user crossed a boundary or
    because the animation advanced.  Prefetch covers both axes: the spatial
    quadrant neighbors at the current timestep, plus the current view set
    at the next timestep.  Arriving bytes are priced as
    :class:`~repro.streaming.client.Client` prices them:
    ``len(payload) * CPU_SECONDS_PER_BYTE`` simulated seconds of inflation.
    """

    def __init__(
        self,
        node: str,
        queue: EventQueue,
        network: Network,
        agent: ClientAgent,
        source: TimeVaryingSource,
        metrics: SessionMetrics,
        playback_period: float = 2.0,
        resident_capacity: int = 4,
        prefetch_spatial: bool = True,
        prefetch_temporal: bool = True,
    ) -> None:
        if playback_period <= 0:
            raise ValueError("playback_period must be positive")
        self.node = node
        self.queue = queue
        self.network = network
        self.agent = agent
        self.source = source
        self.metrics = metrics
        self.playback_period = playback_period
        self.resident_capacity = max(1, resident_capacity)
        self.prefetch_spatial = prefetch_spatial
        self.prefetch_temporal = prefetch_temporal
        self.timestep = 0
        self._theta: Optional[float] = None
        self._phi: Optional[float] = None
        self._current_vid: Optional[str] = None
        self._resident: Dict[str, bytes] = {}
        self._resident_order: List[str] = []
        self._outstanding: Dict[str, List[Tuple[int, float]]] = {}
        self._access_index = 0
        self._playing = False

    # ------------------------------------------------------------------
    def start_playback(self) -> None:
        """Begin advancing timesteps every ``playback_period`` seconds."""
        if self._playing:
            return
        self._playing = True
        self.queue.schedule_in(self.playback_period, self._tick, "playback")

    def _tick(self) -> None:
        if not self._playing:
            return
        if self.timestep + 1 < self.source.n_timesteps:
            self.timestep += 1
            self._refresh()
            self.queue.schedule_in(
                self.playback_period, self._tick, "playback"
            )
        else:
            self._playing = False  # animation finished

    def schedule_trace(self, trace: CursorTrace) -> None:
        """Drive the spatial cursor from a trace (as the base client)."""
        for s in trace:
            self.queue.schedule(
                s.time,
                lambda ss=s: self.handle_cursor(ss.theta, ss.phi),
                "cursor",
            )

    def handle_cursor(self, theta: float, phi: float) -> None:
        """Process a cursor move at the current timestep."""
        self._theta, self._phi = theta, phi
        self._refresh()

    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        if self._theta is None:
            return
        key = self.source.lattice.viewset_containing(self._theta, self._phi)
        vid = temporal_vid(self.timestep, self.source.lattice, key)
        if vid != self._current_vid:
            self._current_vid = vid
            self._access(vid)
        self._issue_prefetch(key)

    def _issue_prefetch(self, key: ViewSetKey) -> None:
        wanted: List[str] = []
        if self.prefetch_spatial:
            for nb in self.source.lattice.quadrant_neighbors(
                self._theta, self._phi
            ):
                wanted.append(
                    temporal_vid(self.timestep, self.source.lattice, nb)
                )
        if self.prefetch_temporal and (
            self.timestep + 1 < self.source.n_timesteps
        ):
            wanted.append(
                temporal_vid(self.timestep + 1, self.source.lattice, key)
            )
        fresh = [v for v in wanted
                 if v not in self._resident and v not in self._outstanding]
        if not fresh:
            return
        self.metrics.prefetch_issued += len(fresh)
        delay = self.network.path_latency(self.node, self.agent.node)
        for v in fresh:
            self.queue.schedule_in(
                delay,
                lambda vv=v: self.agent.request(
                    vv, lambda *a: None, prefetch=True
                ),
                "temporal-prefetch",
            )

    def _keep(self, vid: str, payload: bytes) -> None:
        if vid in self._resident:
            self._resident_order.remove(vid)
        self._resident[vid] = payload
        self._resident_order.append(vid)
        while len(self._resident_order) > self.resident_capacity:
            old = self._resident_order.pop(0)
            del self._resident[old]

    def _access(self, vid: str) -> None:
        self._access_index += 1
        index = self._access_index
        t0 = self.queue.now
        if vid in self._resident:
            self._resident_order.remove(vid)
            self._resident_order.append(vid)
            self.metrics.record(AccessRecord(
                index=index, viewset_id=vid,
                source=AccessSource.CLIENT_RESIDENT,
                request_time=t0, comm_latency=0.0,
                decompress_seconds=0.0,
                total_latency=RESIDENT_SWAP_LATENCY,
            ))
            return
        pending = self._outstanding.get(vid)
        if pending is not None:
            pending.append((index, t0))
            return
        self._outstanding[vid] = [(index, t0)]
        delay = self.network.path_latency(self.node, self.agent.node)

        def on_payload(payload: bytes, source: AccessSource,
                       comm: float) -> None:
            self.agent.lors.scheduler.submit(
                self.agent.node, self.node, len(payload),
                on_complete=lambda fl: finish(payload, source, comm),
                label=f"to-client:{vid}",
                priority=Priority.DEMAND,
            )

        def finish(payload: bytes, source: AccessSource,
                   comm: float) -> None:
            decompress = len(payload) * CPU_SECONDS_PER_BYTE
            self.queue.schedule_in(
                decompress,
                lambda: complete(payload, source, comm, decompress),
                f"decompress:{vid}",
            )

        def complete(payload: bytes, source: AccessSource,
                     comm: float, decompress: float) -> None:
            waiters = self._outstanding.pop(vid, [(index, t0)])
            self._keep(vid, payload)
            now = self.queue.now
            for w_index, w_t0 in waiters:
                self.metrics.record(AccessRecord(
                    index=w_index, viewset_id=vid, source=source,
                    request_time=w_t0, comm_latency=comm,
                    decompress_seconds=decompress,
                    total_latency=now - w_t0,
                ))

        self.queue.schedule_in(
            delay, lambda: self.agent.request(vid, on_payload),
            f"client-req:{vid}",
        )
