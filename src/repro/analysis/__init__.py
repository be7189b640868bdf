"""Simulation-correctness static analysis for the LoN reproduction.

The paper's latency claims are only as trustworthy as the simulator's
determinism: a discrete-event substitution for the real WAN must produce
bit-identical event streams for identical seeds, or the millisecond-level
latency attributions in Figures 9-12 are artifacts of the host machine.
This package mechanically enforces the invariants the simulator otherwise
follows only by convention:

* :mod:`repro.analysis.lint` — project-specific AST passes (rules
  ``SIM001``-``SIM005``) that flag wall-clock leaks, unsorted set
  iteration feeding the scheduler, event-queue bypasses, mutable default
  arguments and float ``==`` on sim-time values;
* :mod:`repro.analysis.concurrency` — the sharded core's rules
  (``SIM006``-``SIM010``): shared-array writes outside publish helpers,
  unpicklable worker captures, unordered float accumulation feeding
  fingerprints, barrier-phase violations and unstable identity keys,
  backed by the inter-procedural call graph in
  :mod:`repro.analysis.dataflow`;
* :mod:`repro.analysis.determinism` — the dynamic backstop: run a seeded
  session (or an N-client rig) twice, hash the ordered event stream,
  per-transfer rate trajectories and the latency breakdown, and pinpoint
  the first divergent event on mismatch;
* :mod:`repro.analysis.races` — the dynamic happens-before verifier:
  instrument the boundary exchange with barrier-window vector clocks,
  record every shared-cell access per worker, and report the first
  conflicting pair with stack context.

Run them from the command line::

    python -m repro.analysis lint src
    python -m repro.analysis determinism --clients 8
    python -m repro.analysis races --shards 8
"""

from __future__ import annotations

from .concurrency import CONCURRENCY_RULES, check_concurrency
from .dataflow import ProjectIndex
from .determinism import (
    DeterminismReport,
    Divergence,
    RunFingerprint,
    check_determinism,
    multiclient_fingerprint,
    session_fingerprint,
)
from .lint import Finding, RULES, lint_paths, lint_source
from .races import (
    Conflict,
    ExchangeMonitor,
    RaceReport,
    analyze_log,
    check_races,
)

__all__ = [
    "Finding",
    "RULES",
    "CONCURRENCY_RULES",
    "ProjectIndex",
    "check_concurrency",
    "lint_paths",
    "lint_source",
    "RunFingerprint",
    "Divergence",
    "DeterminismReport",
    "check_determinism",
    "session_fingerprint",
    "multiclient_fingerprint",
    "Conflict",
    "ExchangeMonitor",
    "RaceReport",
    "analyze_log",
    "check_races",
]
