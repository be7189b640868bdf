"""Fault injection for the LoN substrate.

IBP is explicitly a *best effort* service: allocations expire, depots vanish,
links flap.  The paper's argument for replication and exNode-level failover
only holds if the system tolerates these events, so we make them injectable:

* :class:`DepotOutage` — take a depot off the network for a window;
* :class:`LeaseStorm` — slash lease durations so allocations expire under the
  application (exercising re-staging and DVS fallback).

An outage is driven by the shared event queue, so it lands at a
deterministic simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .ibp import Depot
from .network import Network
from .simtime import EventQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.flightrec import FlightRecorder

__all__ = ["DepotOutage", "LeaseStorm"]


@dataclass
class DepotOutage:
    """Severs the link between a depot and its neighbor for a time window."""

    network: Network
    depot_name: str
    neighbor: str

    def schedule(
        self,
        queue: EventQueue,
        start: float,
        duration: float,
        recorder: Optional["FlightRecorder"] = None,
    ) -> None:
        """Arrange the outage at absolute sim time ``start``.

        When a :class:`~repro.obs.flightrec.FlightRecorder` is wired, the
        outage onset triggers a flight dump — the recorder freezes the
        spans and samples that preceded the fault, which is the
        post-mortem's raw material.
        """
        if duration <= 0:
            raise ValueError("outage duration must be positive")

        def down() -> None:
            if recorder is not None:
                recorder.trigger(
                    f"depot-outage:{self.depot_name}", t=queue.now
                )
            self.network.set_link_up(self.depot_name, self.neighbor, False)

        queue.schedule(start, down, f"outage-start:{self.depot_name}")
        queue.schedule(
            start + duration,
            lambda: self.network.set_link_up(
                self.depot_name, self.neighbor, True
            ),
            f"outage-end:{self.depot_name}",
        )


@dataclass
class LeaseStorm:
    """Shrinks a depot's max lease so new allocations expire quickly."""

    depot: Depot

    def apply(self, max_duration: float) -> float:
        """Set the cap; returns the previous value for restoration."""
        if max_duration <= 0:
            raise ValueError("max_duration must be positive")
        previous = self.depot.max_duration
        self.depot.max_duration = max_duration
        return previous
