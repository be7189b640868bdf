"""A traced run's store is pinned byte for byte: the sha256 of
``Tracer.span_dicts()``, of ``Tracer.rows`` and of ``Tracer.instants``.

Two rigs, recorded before the tracer's hot paths were made cheaper:

* a three-client traced fleet on one rig, whose ``CacheSampler`` reads
  several agents (per-agent and ``agents.*`` series);
* a two-shard traced fleet, whose series carry the ``shard<k>.``
  namespace and whose spans cross a worker export.

``json.dumps`` writes a float by ``repr`` and an int without a point, so a
changed bit, or an int sample turned float, moves a sha.
"""

import hashlib
import json

from repro.lightfield import CameraLattice, SyntheticSource
from repro.lon.shard import run_sharded_session
from repro.streaming import (
    MultiClientConfig,
    SessionConfig,
    run_multiclient_session,
)


def _source():
    return SyntheticSource(CameraLattice(n_theta=9, n_phi=18, l=3), 32)


def _config(n_clients):
    return MultiClientConfig(
        base=SessionConfig(case=3, n_accesses=6, trace_seed=11,
                           tracing=True),
        n_clients=n_clients, seed_stride=101, start_stagger=0.25,
    )


def _sha(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _shas(spans, rows, instants):
    return (_sha(spans),
            _sha([[t, list(names), list(values)]
                  for t, names, values in rows]),
            _sha(instants))


def test_multi_agent_fleet_store_equals_the_parents():
    result = run_multiclient_session(_source(), _config(3))
    tracer = result.per_client[0].tracer
    assert all(m.tracer is tracer for m in result.per_client)
    assert any(name.startswith("agents.")
               for _, names, _ in tracer.rows for name in names)
    assert _shas(tracer.span_dicts(), tracer.rows, tracer.instants) == (
        "61c809c99176151946a4f9f436a0e6d4d19a1d752ef909517392f29558180c3e",
        "183827270dec893dad28899c17e085157a71166e3d7efa80b1dfcad83e132394",
        "d2f814e5157c736d5d28fc42094c04255de5880a85ef331fdbb29d6ed3064f78",
    )


def test_two_shard_fleet_store_equals_the_parents():
    result = run_sharded_session(_source(), _config(4), n_shards=2,
                                 workers=1)
    shas = [_shas(t.spans, t.rows, t.instants)
            for t in result.telemetries()]
    assert all(name.startswith(f"shard{k}.")
               for k, t in enumerate(result.telemetries())
               for _, names, _ in t.rows for name in names)
    assert shas == [
        ("f8d86ed65c7f4dca3728a84c9356cdd42966c9a9d310935a03480c2edb4c43ef",
         "08b7032c4a156384c934d9299f3542f527de90853feeaefb6ce4c906487528fa",
         "5169f545e4d89554feafcc7fe48e0f8e4543511f5bbd5f3f66069a3cf7e00b88"),
        ("96ee344321259e31c341a56049d1ffc4508294abc9d9dc4e14b96ad952ce1e34",
         "ee076e3c0ce1616402ca4a8f1cad9150cb94ce35b2e586f1cf8da097862fe54d",
         "68762b20f9750e95685ba21a5312d0f80a5f520114f86d83858d530663f2df9c"),
    ]
