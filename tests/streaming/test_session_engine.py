"""One session engine, three entry points.

``run_session`` is the N = 1 case of the fleet and the fleet is the
one-window, no-exchange case of the shard coroutine: all three call the
same wiring and the same lifecycle, so on the same workload they must fire
the same events and deliver every access with the same latency, bit for
bit.  The entry points differ only in what the issue lets them add — node
names, the ``config.trace`` override, per-console scheduler counts.
"""

import pytest

from repro.lightfield import CameraLattice, SyntheticSource
from repro.lon.shard import run_sharded_session
from repro.streaming import (
    MultiClientConfig,
    SessionConfig,
    build_multiclient_rig,
    build_rig,
    run_multiclient_session,
    run_session,
    standard_trace,
)

LATTICE = CameraLattice(n_theta=12, n_phi=24, l=3)


def _source():
    return SyntheticSource(LATTICE, resolution=32)


def _config(case, **kw):
    return SessionConfig(case=case, n_accesses=10, **kw)


def _observed(events_fired, metrics):
    return events_fired, [a.total_latency.hex() for a in metrics.accesses]


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("case", [1, 2, 3])
def test_three_entry_points_run_the_same_session(case, traced):
    config = _config(case, tracing=traced)
    fleet_of_one = MultiClientConfig(
        base=config, n_clients=1, start_stagger=0.0)

    rigs = []
    single = run_session(_source(), config, rig_hook=rigs.append)
    fleet = run_multiclient_session(_source(), fleet_of_one)
    sharded = run_sharded_session(
        _source(), fleet_of_one, n_shards=1, workers=1)

    reference = _observed(rigs[0].queue.fired_total, single)
    assert len(single.accesses) == config.n_accesses
    assert _observed(fleet.events_fired, fleet.per_client[0]) == reference
    assert _observed(
        sharded.events_fired, sharded.per_client[0]) == reference
    # a shard's metrics are stripped of their tracer to cross the process
    # boundary, so only the fleet has a breakdown to compare
    assert fleet.per_client[0].breakdown() == single.breakdown()
    assert bool(single.breakdown()) == traced


def test_single_rig_keeps_its_names():
    rig = build_rig(_source(), _config(3))
    assert (rig.client.node, rig.client_agent.node) == ("client", "agent")
    assert rig.metrics.case_name == "case3"
    assert rig.staging is not None
    assert build_rig(_source(), _config(2)).staging is None


def test_fleet_rig_names_consoles_by_global_index():
    rig = build_multiclient_rig(_source(), MultiClientConfig(
        base=_config(3), n_clients=2, client_index_base=5))
    assert [c.node for c in rig.clients] == ["client-5", "client-6"]
    assert [a.node for a in rig.client_agents] == ["agent-5", "agent-6"]
    assert [m.case_name for m in rig.metrics] == [
        "case3-client5", "case3-client6"]


class CountingSource(SyntheticSource):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = {}

    def payload(self, key):
        self.calls[key] = self.calls.get(key, 0) + 1
        return super().payload(key)


@pytest.mark.parametrize("run", [
    lambda s, c: run_multiclient_session(s, c),
    lambda s, c: run_sharded_session(s, c, n_shards=1, workers=1),
], ids=["fleet", "shard"])
def test_a_run_asks_the_source_for_each_payload_once(run):
    """``pre_distribute`` synthesizes every payload while wiring; no run
    function asks for them again."""
    source = CountingSource(LATTICE, resolution=32)
    run(source, MultiClientConfig(base=_config(3), n_clients=2))
    assert source.calls == dict.fromkeys(LATTICE.all_viewsets(), 1)


def test_trace_override_is_a_single_console_setting():
    trace = standard_trace(LATTICE, n_accesses=5, seed=99)
    config = _config(2, trace=trace)
    with pytest.raises(ValueError, match="base.trace"):
        MultiClientConfig(base=config, n_clients=2)
    # run_session keeps honouring it: the walk is the override's, not the
    # 10-access standard trace of the config
    metrics = run_session(_source(), config)
    walked = [LATTICE.viewset_id(k) for k in trace.viewset_accesses(LATTICE)]
    assert [a.viewset_id for a in metrics.accesses] == walked
