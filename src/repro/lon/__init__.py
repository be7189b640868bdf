"""Logistical Networking substrate: simulated IBP depots, exNodes, L-Bone,
LoRS runtime and the event-driven network they run over.

This subpackage is a from-scratch functional model of the infrastructure the
paper builds on (Section 2.2): the Network Storage Stack with IBP at the
bottom, exNodes aggregating capabilities, the L-Bone for depot discovery and
LoRS for striped/replicated/multi-stream data movement.
"""

from .exnode import ExNode, ExNodeError, Extent, Mapping
from .ibp import (
    Allocation,
    Capability,
    CapType,
    Depot,
    IBPError,
    IBPExpiredError,
    IBPNoSuchCapError,
    IBPPermissionError,
    IBPRefusedError,
)
from .lbone import DepotRecord, LBone, LBoneError
from .lors import Deferred, DEFAULT_BLOCK_SIZE, LoRS, LoRSError
from .network import Flow, Link, Network, NetworkError, NoRouteError, gbps, mbps
from .scheduler import (
    DEFAULT_CLASS_WEIGHTS,
    InFlightRegistry,
    Priority,
    SCHEDULING_POLICIES,
    TransferEvent,
    TransferHandle,
    TransferScheduler,
)
from .simtime import (
    Event,
    EventQueue,
    Process,
    SimClock,
    SimulationError,
)

__all__ = [
    "Allocation",
    "Capability",
    "CapType",
    "Deferred",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CLASS_WEIGHTS",
    "Depot",
    "DepotRecord",
    "Event",
    "EventQueue",
    "ExNode",
    "ExNodeError",
    "Extent",
    "Flow",
    "IBPError",
    "IBPExpiredError",
    "IBPNoSuchCapError",
    "IBPPermissionError",
    "IBPRefusedError",
    "InFlightRegistry",
    "LBone",
    "LBoneError",
    "Link",
    "LoRS",
    "LoRSError",
    "Mapping",
    "Network",
    "NetworkError",
    "NoRouteError",
    "Priority",
    "Process",
    "SCHEDULING_POLICIES",
    "SimClock",
    "SimulationError",
    "TransferEvent",
    "TransferHandle",
    "TransferScheduler",
    "gbps",
    "mbps",
]
