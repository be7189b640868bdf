"""Cross-shard traffic: boundary links, the exchange table, staleness.

The disjoint-fleet guarantees (``tests/lon/test_shard.py``) are the
baseline; this module covers what ``cross_shard_fraction > 0`` adds:

* the :class:`BoundaryExchange` table itself (fixed-order summation,
  other-shards-only totals, one store shared across processes) and the
  driver's two-phase protocol around it;
* the deterministic crossing-client assignment and its config guard;
* the backbone topology (``xs-switch`` ↔ ``wan-router``) and the
  effective-bandwidth reservation (:meth:`Network.set_remote_load`);
* the headline equivalences: crossing ``workers=N`` is bit-identical to
  the sequential lockstep reference, and disjoint fleets keep reporting
  no boundary measurements at all.
"""

import multiprocessing as mp
import time

import pytest

from repro.lightfield import CameraLattice, SyntheticSource
from repro.lon import shard
from repro.lon.network import Network, NoRouteError, mbps
from repro.lon.shard import (
    BOUNDARY_LINKS,
    BoundaryExchange,
    run_shard,
    run_sharded_session,
)
from repro.lon.simtime import EventQueue
from repro.streaming.multiclient import (
    MultiClientConfig,
    build_multiclient_rig,
)
from repro.streaming.session import SessionConfig

from .test_shard import assert_same_run, sharded_run

LINKS2 = (("xs-switch", "wan-router"), ("xs-switch", "lan-switch"))


def _publish(exchange, shard_id, loads):
    exchange.publish(shard_id, loads)


class TestBoundaryExchange:
    def test_remote_sums_other_shards_only(self):
        ex = BoundaryExchange(3)
        lk = BOUNDARY_LINKS[0]
        ex.publish(0, {lk: 10.0})
        ex.publish(1, {lk: 20.0})
        ex.publish(2, {lk: 40.0})
        assert ex.remote(0)[lk] == 60.0
        assert ex.remote(1)[lk] == 50.0
        assert ex.remote(2)[lk] == 30.0

    def test_missing_links_publish_zero(self):
        ex = BoundaryExchange(2, links=LINKS2)
        ex.publish(0, {LINKS2[0]: 5.0})  # no entry for the second link
        assert ex.remote(1) == {LINKS2[0]: 5.0, LINKS2[1]: 0.0}

    def test_republish_overwrites_the_window(self):
        ex = BoundaryExchange(2)
        lk = BOUNDARY_LINKS[0]
        ex.publish(0, {lk: 9.0})
        ex.publish(0, {lk: 2.0})
        assert ex.remote(1)[lk] == 2.0

    def test_summation_order_is_ascending_shard_order(self):
        """The float accumulation order is pinned: sequential and parallel
        drivers must produce bit-identical remote totals."""
        vals = [0.1, 0.2, 0.3, 0.4, 0.5]
        ex = BoundaryExchange(5)
        lk = BOUNDARY_LINKS[0]
        for sid, v in enumerate(vals):
            ex.publish(sid, {lk: v})
        expected = 0.0
        for sid, v in enumerate(vals):
            if sid != 2:
                expected += v
        assert ex.remote(2)[lk] == expected

    def test_multiprocessing_array_backend(self):
        """Workers inherit the table through Process args: what a child
        process publishes is what the parent reads, because the sequential
        and the parallel driver share one shared-memory store."""
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        ex = BoundaryExchange(2)
        lk = BOUNDARY_LINKS[0]
        ex.publish(0, {lk: 7.5})
        child = ctx.Process(target=_publish, args=(ex, 1, {lk: 2.5}))
        child.start()
        child.join(60)
        assert child.exitcode == 0  # None while it still runs
        assert ex.remote(0)[lk] == 2.5
        assert ex.remote(1)[lk] == 7.5

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            BoundaryExchange(0)


class TestCrossingAssignment:
    def test_fraction_selects_leading_tenths(self):
        config = MultiClientConfig(
            base=SessionConfig(case=3), n_clients=1,
            cross_shard_fraction=0.3)
        crossing = [g for g in range(20) if config.crosses(g)]
        assert crossing == [0, 1, 2, 10, 11, 12]

    def test_fraction_extremes(self):
        base = SessionConfig(case=3)
        none = MultiClientConfig(base=base, n_clients=1,
                                 cross_shard_fraction=0.0)
        allc = MultiClientConfig(base=base, n_clients=1,
                                 cross_shard_fraction=1.0)
        assert not any(none.crosses(g) for g in range(10))
        assert all(allc.crosses(g) for g in range(10))

    def test_assignment_depends_on_global_index_only(self):
        """A shard sees the same crossing split as the whole fleet: the
        predicate reads the global index, not the shard-local one."""
        whole = MultiClientConfig(
            base=SessionConfig(case=3), n_clients=8,
            cross_shard_fraction=0.3)
        shard = MultiClientConfig(
            base=SessionConfig(case=3), n_clients=4, client_index_base=4,
            cross_shard_fraction=0.3)
        for g in range(4, 8):
            assert shard.crosses(g) == whole.crosses(g)

    def test_out_of_range_fraction_rejected(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                MultiClientConfig(base=SessionConfig(case=3), n_clients=1,
                                  cross_shard_fraction=bad)


def _source():
    return SyntheticSource(CameraLattice(n_theta=9, n_phi=18, l=3),
                           resolution=32)


def _config(n_clients, cross, **kw):
    return MultiClientConfig(
        base=SessionConfig(case=3, n_accesses=6, trace_seed=11),
        n_clients=n_clients, seed_stride=101, start_stagger=0.25,
        cross_shard_fraction=cross, **kw)


class TestBackboneTopology:
    def test_crossing_fraction_adds_the_backbone(self):
        rig = build_multiclient_rig(_source(), _config(4, 0.3))
        assert rig.network.has_link("xs-switch", "wan-router")
        assert rig.network.has_link("xs-switch", "lan-switch")
        assert rig.network.link_capacity("xs-switch", "wan-router") > 0.0

    def test_disjoint_topology_has_no_backbone(self):
        rig = build_multiclient_rig(_source(), _config(4, 0.0))
        assert not rig.network.has_link("xs-switch", "wan-router")
        assert rig.network.link_capacity("xs-switch", "wan-router") == 0.0

    def test_shard_without_crossing_clients_lacks_the_link(self):
        """Clients 4..7 of a 0.3-crossing fleet all have g % 10 >= 3, so
        this shard's rig builds the classic topology and its published
        boundary load reads 0.0."""
        rig = build_multiclient_rig(
            _source(), _config(4, 0.3, client_index_base=4))
        assert not rig.network.has_link("xs-switch", "wan-router")
        assert rig.network.link_load("xs-switch", "wan-router") == 0.0


class TestRemoteLoadReservation:
    def _pair(self):
        q = EventQueue()
        net = Network(q)
        net.add_link("a", "b", mbps(10), 0.001)
        return q, net

    def test_remote_load_shrinks_effective_bandwidth(self):
        _, net = self._pair()
        f = net.transfer("a", "b", 10_000_000, lambda fl: None)
        net.flush()
        assert f.rate == pytest.approx(mbps(10))
        net.set_remote_load("a", "b", mbps(4))
        net.flush()
        assert f.rate == pytest.approx(mbps(6))
        net.cancel_flow(f)

    def test_clearing_remote_load_restores_capacity(self):
        _, net = self._pair()
        f = net.transfer("a", "b", 10_000_000, lambda fl: None)
        net.set_remote_load("a", "b", mbps(4))
        net.set_remote_load("a", "b", 0.0)
        net.flush()
        assert f.rate == pytest.approx(mbps(10))
        net.cancel_flow(f)

    def test_oversubscribed_boundary_keeps_draining(self):
        q, net = self._pair()
        f = net.transfer("a", "b", 1_000, lambda fl: None)
        net.set_remote_load("a", "b", mbps(100))  # remote > physical
        net.flush()
        assert f.rate >= Network.MIN_EFFECTIVE_BANDWIDTH
        q.run()
        assert f.done

    def test_physical_capacity_is_unchanged(self):
        _, net = self._pair()
        net.set_remote_load("a", "b", mbps(4))
        assert net.link_capacity("a", "b") == pytest.approx(mbps(10))

    def test_negative_and_unknown_links_rejected(self):
        _, net = self._pair()
        with pytest.raises(ValueError):
            net.set_remote_load("a", "b", -1.0)
        with pytest.raises(NoRouteError):
            net.set_remote_load("a", "nowhere", 1.0)


class TestCrossingRuns:
    def test_crossing_run_measures_the_boundary(self):
        result = run_sharded_session(
            _source(), _config(4, 0.3), n_shards=2, workers=1)
        agg = result.aggregate()
        assert agg["boundary_windows"] > 0
        assert agg["boundary_staleness_bound"] == result.window
        assert agg["boundary_max_oversubscription"] >= 0.0
        # only the shard holding crossing clients measures a boundary
        measured = [s for s in result.shards if s.boundary is not None]
        assert measured
        assert agg["accesses"] == 4 * 6

    def test_disjoint_run_reports_no_boundary(self):
        result = run_sharded_session(
            _source(), _config(4, 0.0), n_shards=2, workers=1)
        assert all(s.boundary is None for s in result.shards)
        agg = result.aggregate()
        assert "boundary_windows" not in agg
        assert "boundary_staleness_bound" not in agg

    def test_lockstep_shard_walls_do_not_count_the_siblings(self):
        """Regression: each shard's wall interval stayed open across the
        lockstep driver's yields, so it spanned every sibling's turn and
        ``cpu_seconds`` read n_shards times the run (2.8x the outside
        wall on this rig, 0.6x once fixed)."""
        source = _source()
        t0 = time.perf_counter()
        result = run_sharded_session(
            source, _config(16, 0.1), n_shards=8, workers=1)
        outside = time.perf_counter() - t0
        assert any(s.boundary is not None for s in result.shards)
        assert result.cpu_seconds <= 1.1 * outside

    def test_crossing_workers_bit_equal_to_lockstep(self):
        """The headline: with 30% of clients on the shared backbone the
        barrier-synchronized workers still fire the exact event stream of
        the sequential lockstep reference (same publish/read order, same
        float totals, same staleness)."""
        assert_same_run(sharded_run(workers=1, cross_shard_fraction=0.3),
                        sharded_run(workers=2, cross_shard_fraction=0.3))


class RecordingExchange(BoundaryExchange):
    """An exchange that logs every publish and read, in call order."""

    def __init__(self, n_shards, log):
        super().__init__(n_shards)
        self.log = log

    def publish(self, shard_id, loads):
        self.log.append(f"publish{shard_id}")
        super().publish(shard_id, loads)

    def remote(self, shard_id):
        self.log.append(f"read{shard_id}")
        return super().remote(shard_id)


class RecordingBarrier:
    def __init__(self, log):
        self.log = log

    def wait(self, timeout=None):
        self.log.append("wait")


class TestDriveProtocol:
    """The round as the drivers run it: every publish of a window, then
    every read.  A worker waits at the barrier after each phase.  A read in
    the publish phase, or a dropped wait, lets a sibling overwrite a cell
    while it is read; in a ``workers=2`` run that race needs a sibling to
    finish a whole window inside another's read, so it almost never
    fires, and the order is checked here instead."""

    def test_worker_waits_after_each_phase(self):
        log = []
        result = run_shard(_source(), _config(2, 0.3), shard_id=0,
                           barrier=RecordingBarrier(log),
                           exchange=RecordingExchange(2, log))
        windows = int(result.boundary["windows"])
        assert windows > 1
        assert log == ["publish0", "wait", "read0", "wait"] * windows

    def test_lockstep_reads_after_every_shard_published(self, monkeypatch):
        log = []
        monkeypatch.setattr(shard, "BoundaryExchange",
                            lambda n: RecordingExchange(n, log))
        result = run_sharded_session(
            _source(), _config(6, 0.3), n_shards=3, workers=1)
        windows = int(result.shards[0].boundary["windows"])
        assert windows > 1
        assert log == ["publish0", "publish1", "publish2",
                       "read0", "read1", "read2"] * windows
