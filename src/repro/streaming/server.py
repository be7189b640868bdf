"""Server and server agent: database generation and distribution.

Two roles from Section 3.4:

* **offline pre-distribution** — the generator renders the whole light field
  database, uploads view sets to the server depots (striped, optionally
  replicated) and registers every exNode with the DVS.  This happens before
  a session starts and costs no simulated time.
* **runtime generation** — when the DVS has no exNode for a view set (e.g. a
  zoomed-in close-up region), the request is forwarded to the server agent.
  The *scheduler chooses the latest request* (LIFO — the user has moved on,
  so the newest request is the relevant one), the generator renders it
  (simulated service time), a copy goes directly to the requesting client
  agent, the view set is uploaded to the depot pool, and the DVS is updated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..lightfield.lattice import parse_viewset_id
from ..lightfield.source import ViewSetSource
from ..lon.exnode import ExNode
from ..lon.ibp import Depot
from ..lon.lors import Deferred, LoRS
from ..lon.network import Network
from ..lon.simtime import EventQueue
from ..obs.tracer import NOOP_SPAN, NULL_TRACER, Tracer
from .dvs import DVSServer

__all__ = ["GenerationRequest", "ServerAgent"]

#: simulated generation service time of one view set: the paper generates
#: the full database (288 view sets) in 2-4.5 h on 32 CPUs, i.e. ~25-56 s
#: per view set; this is the 200² end of that band
RENDER_SECONDS_PER_VIEWSET = 25.0
#: lease on a view set's server-depot blocks: a day, the session's span
LEASE_SECONDS = 24 * 3600.0
#: network node the server agent (and its generator) lives at
SERVER_NODE = "server"


@dataclass
class GenerationRequest:
    """A pending runtime render, with its reply route."""

    vid: str
    reply_node: str
    on_payload: Callable[[bytes], None]
    arrival: float
    span: object = NOOP_SPAN
    #: fires with the sim time the reply flow is submitted (tracing hook)
    on_first_flow: Optional[Callable[[float], None]] = None


class ServerAgent:
    """Front end for one or more generation servers.

    It lives at :data:`SERVER_NODE`.

    Parameters
    ----------
    source:
        Where view-set payloads come from (rendered database or synthetic).
    depots:
        Server depot pool for uploads.
    """

    def __init__(
        self,
        queue: EventQueue,
        network: Network,
        lors: LoRS,
        dvs: DVSServer,
        source: ViewSetSource,
        depots: Sequence[Depot],
        stripe_width: int = 3,
        block_size: int = 1 << 20,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.queue = queue
        self.network = network
        self.lors = lors
        self.dvs = dvs
        self.source = source
        self.depots = list(depots)
        self.stripe_width = stripe_width
        self.block_size = int(block_size)
        self._pending: List[GenerationRequest] = []
        self._busy = False
        self.generated = 0
        self.predistributed = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    # offline path
    # ------------------------------------------------------------------
    def pre_distribute(self) -> Dict[str, ExNode]:
        """Upload every view set to the depot pool and register with the DVS.

        Offline: no simulated time elapses (the paper renders and uploads
        the database before the visualization session).  Returns the exNode
        per view-set id.
        """
        lattice = self.source.lattice
        out: Dict[str, ExNode] = {}
        for key in lattice.all_viewsets():
            vid = lattice.viewset_id(key)
            payload = self.source.payload(key)
            exnode = self.lors.place(
                vid,
                payload,
                self.depots,
                stripe_width=self.stripe_width,
                block_size=self.block_size,
                duration=LEASE_SECONDS,
                metadata={"resolution": str(self.source.resolution)},
            )
            self.dvs.register_exnode(vid, exnode)
            out[vid] = exnode
            self.predistributed += 1
        self.dvs.register_server_agent(SERVER_NODE)
        return out

    # ------------------------------------------------------------------
    # runtime path
    # ------------------------------------------------------------------
    def request_viewset(
        self,
        vid: str,
        reply_node: str,
        on_payload: Callable[[bytes], None],
        span: object = None,
        on_first_flow: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Queue a runtime generation request (invoked at arrival time).

        ``span`` parents the render's trace spans; ``on_first_flow`` fires
        with the sim time the reply transfer is admitted (the requesting
        agent uses it as its queue-wait/transfer boundary).
        """
        self._pending.append(
            GenerationRequest(
                vid=vid,
                reply_node=reply_node,
                on_payload=on_payload,
                arrival=self.queue.now,
                span=span if span is not None else NOOP_SPAN,
                on_first_flow=on_first_flow,
            )
        )
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._pending:
            self._busy = False
            return
        self._busy = True
        # the scheduler chooses the LATEST request (Section 3.4)
        req = self._pending.pop()
        t_started = self.queue.now
        self.queue.schedule_in(
            RENDER_SECONDS_PER_VIEWSET,
            lambda: self._finish_render(req, t_started),
            f"render:{req.vid}",
        )

    def _finish_render(self, req: GenerationRequest,
                       t_started: float) -> None:
        payload = self.source.payload(parse_viewset_id(req.vid))
        self.generated += 1
        now = self.queue.now
        if self.tracer.enabled:
            self.tracer.record("gen-queue-wait", req.arrival, t_started,
                               parent=req.span, viewset=req.vid)
            self.tracer.record("render", t_started, now,
                               parent=req.span, viewset=req.vid,
                               bytes=len(payload))
        if req.on_first_flow is not None:
            req.on_first_flow(now)
        # 1. direct copy to the requesting client agent (a user waits on it)
        self.lors.scheduler.submit(
            SERVER_NODE,
            req.reply_node,
            len(payload),
            on_complete=lambda fl: req.on_payload(payload),
            label=f"gen:{req.vid}",
            span=req.span,
        )
        # 2. upload to the server depot pool + DVS update; MAINTENANCE class
        # so database upkeep never crowds out the reply
        up = self.lors.upload(
            req.vid,
            payload,
            SERVER_NODE,
            self.depots,
            stripe_width=self.stripe_width,
            block_size=self.block_size,
            duration=LEASE_SECONDS,
        )

        def register(dfd: Deferred) -> None:
            if not dfd.failed:
                self.dvs.register_exnode(req.vid, dfd.result())

        up.add_callback(register)
        self._start_next()
