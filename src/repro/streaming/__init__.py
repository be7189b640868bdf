"""The LoN-Enabled Browser of Image Based Databases: streaming model,
client/agent roles over a pre-distributed database, DVS name service, prefetching and aggressive
two-stage staging, plus the session harness for the paper's Cases 1-3.
"""

from .agent import AgentStats, ClientAgent, HIT_LATENCY
from .client import Client
from .dvs import DVSResult, DVSServer
from .metrics import AccessRecord, AccessSource, SessionMetrics
from .multiclient import (
    MultiClientConfig,
    MultiClientResult,
    MultiClientRig,
    build_multiclient_rig,
    run_multiclient_session,
)
from .prefetch import (
    AllNeighborsPolicy,
    NoPrefetchPolicy,
    PrefetchPolicy,
    QuadrantPolicy,
    policy_by_name,
)
from .session import SessionConfig, SessionRig, build_rig, run_session
from .staging import StagingPump, StagingStats
from .trace import CursorSample, CursorTrace, standard_trace

__all__ = [
    "AccessRecord",
    "AccessSource",
    "AgentStats",
    "AllNeighborsPolicy",
    "Client",
    "ClientAgent",
    "CursorSample",
    "CursorTrace",
    "DVSResult",
    "DVSServer",
    "HIT_LATENCY",
    "MultiClientConfig",
    "MultiClientResult",
    "MultiClientRig",
    "NoPrefetchPolicy",
    "PrefetchPolicy",
    "QuadrantPolicy",
    "SessionConfig",
    "SessionMetrics",
    "SessionRig",
    "StagingPump",
    "StagingStats",
    "build_multiclient_rig",
    "build_rig",
    "run_multiclient_session",
    "policy_by_name",
    "run_session",
    "standard_trace",
]
