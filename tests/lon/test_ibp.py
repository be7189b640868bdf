"""Tests for IBP depot semantics: leases, refusal, soft allocations, caps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lon.ibp import (
    CapType,
    Depot,
    IBPExpiredError,
    IBPNoSuchCapError,
    IBPPermissionError,
    IBPRefusedError,
)
from repro.lon.simtime import EventQueue


@pytest.fixture()
def queue():
    return EventQueue()


@pytest.fixture()
def depot(queue):
    return Depot("d1", queue, capacity=1000)


class TestAllocate:
    def test_returns_three_caps(self, depot):
        r, w, m = depot.allocate(100, 60.0)
        assert r.type is CapType.READ
        assert w.type is CapType.WRITE
        assert m.type is CapType.MANAGE
        assert r.key == w.key == m.key
        assert r.depot == "d1"

    def test_capacity_accounting(self, depot):
        depot.allocate(400, 60.0)
        assert depot.used == 400
        assert depot.capacity - depot.used == 600

    def test_over_allocation_refused(self, depot):
        depot.allocate(900, 60.0)
        with pytest.raises(IBPRefusedError):
            depot.allocate(200, 60.0)
        assert depot.stats.refusals == 1

    def test_zero_size_refused(self, depot):
        with pytest.raises(IBPRefusedError):
            depot.allocate(0, 60.0)

    def test_excessive_duration_refused(self, queue):
        d = Depot("d", queue, capacity=1000, max_duration=100.0)
        with pytest.raises(IBPRefusedError):
            d.allocate(10, 101.0)

    def test_nonpositive_duration_refused(self, depot):
        with pytest.raises(IBPRefusedError):
            depot.allocate(10, 0.0)


class TestLeases:
    def test_expired_allocation_is_gone(self, queue, depot):
        r, w, m = depot.allocate(100, duration=10.0)
        depot.store(w, b"x" * 100)
        queue.schedule(11.0, lambda: None)
        queue.run()
        with pytest.raises(IBPExpiredError):
            depot.load(r)

    def test_expiry_frees_capacity(self, queue, depot):
        depot.allocate(900, duration=10.0)
        queue.schedule(11.0, lambda: None)
        queue.run()
        # the expired lease no longer blocks a new allocation
        r, w, m = depot.allocate(900, duration=10.0)
        assert depot.stats.refusals == 0


class TestSoftAllocations:
    def test_soft_revoked_for_hard(self, depot):
        rs, ws, ms = depot.allocate(800, 60.0, soft=True)
        depot.store(ws, b"s" * 800)
        # a hard allocation that needs the space revokes the soft one
        depot.allocate(900, 60.0, soft=False)
        assert depot.stats.revoked_soft == 1
        with pytest.raises(IBPNoSuchCapError):
            depot.load(rs)

    def test_soft_not_revoked_for_soft(self, depot):
        depot.allocate(800, 60.0, soft=True)
        with pytest.raises(IBPRefusedError):
            depot.allocate(900, 60.0, soft=True)

    def test_soft_survives_when_space_suffices(self, depot):
        rs, ws, _ = depot.allocate(100, 60.0, soft=True)
        depot.store(ws, b"ok")
        depot.allocate(800, 60.0, soft=False)
        assert depot.load(rs, 0, 2) == b"ok"


class TestStoreLoad:
    def test_roundtrip(self, depot):
        r, w, _ = depot.allocate(100, 60.0)
        depot.store(w, b"hello world")
        assert depot.load(r) == b"hello world"

    def test_offset_write_and_read(self, depot):
        r, w, _ = depot.allocate(100, 60.0)
        depot.store(w, b"abc", offset=10)
        assert depot.load(r, offset=10, length=3) == b"abc"

    def test_store_past_allocation_refused(self, depot):
        _, w, _ = depot.allocate(10, 60.0)
        with pytest.raises(IBPRefusedError):
            depot.store(w, b"x" * 11)

    def test_load_past_allocation_refused(self, depot):
        r, w, _ = depot.allocate(10, 60.0)
        depot.store(w, b"x" * 10)
        with pytest.raises(IBPRefusedError):
            depot.load(r, 0, 11)

    def test_load_with_wrong_cap_type(self, depot):
        r, w, m = depot.allocate(10, 60.0)
        with pytest.raises(IBPPermissionError):
            depot.load(w)  # write cap cannot read
        with pytest.raises(IBPPermissionError):
            depot.store(r, b"x")  # read cap cannot write

    def test_cap_for_other_depot_rejected(self, queue, depot):
        other = Depot("d2", queue, capacity=100)
        r, _, _ = other.allocate(10, 60.0)
        with pytest.raises(IBPNoSuchCapError):
            depot.load(r)

    def test_unwritten_bytes_read_as_zeros(self, depot):
        r, w, _ = depot.allocate(10, 60.0)
        depot.store(w, b"ab")
        assert depot.load(r, 0, 4) == b"ab\x00\x00"

    @given(data=st.binary(min_size=0, max_size=512))
    @settings(max_examples=50, deadline=None)
    def test_any_bytes_roundtrip(self, data):
        q = EventQueue()
        d = Depot("d", q, capacity=1024)
        r, w, _ = d.allocate(max(1, len(data)), 60.0)
        if data:
            d.store(w, data)
        assert d.load(r, 0, len(data)) == data


class TestRefcounts:
    def test_decrement_to_zero_reclaims(self, depot):
        r, w, m = depot.allocate(100, 60.0)
        depot.manage_decrement(m)
        with pytest.raises(IBPNoSuchCapError):
            depot.load(r)
        assert depot.used == 0


class TestDepotValidation:
    def test_nonpositive_capacity_rejected(self, queue):
        with pytest.raises(ValueError):
            Depot("bad", queue, capacity=0)
