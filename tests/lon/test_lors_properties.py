"""Property tests: LoRS placement/download invariants over random inputs."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lon.ibp import Depot
from repro.lon.lbone import LBone
from repro.lon.lors import LoRS
from repro.lon.network import Network, gbps, mbps
from repro.lon.simtime import EventQueue


def make_rig(n_depots=4):
    q = EventQueue()
    net = Network(q)
    net.add_link("client", "hub", gbps(1), 0.0005)
    for i in range(n_depots):
        net.add_link(f"d{i}", "hub", mbps(200), 0.002)
    lbone = LBone(net)
    depots = []
    for i in range(n_depots):
        d = Depot(f"d{i}", q, capacity=1 << 26)
        lbone.register(d)
        depots.append(d)
    return q, LoRS(q, net, lbone), depots


@given(
    size=st.integers(min_value=0, max_value=200_000),
    stripe=st.integers(min_value=1, max_value=4),
    replicas=st.integers(min_value=1, max_value=3),
    block_kb=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_place_download_roundtrip(size, stripe, replicas, block_kb, seed):
    """Any placement layout must reproduce the original bytes exactly."""
    q, lors, depots = make_rig()
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
    ex = lors.place(
        "f", data, depots, stripe_width=stripe, replicas=replicas,
        block_size=block_kb * 1024,
    )
    assert ex.is_fully_covered()
    copies = Counter(m.extent for m in ex.mappings)
    assert set(copies.values()) == ({replicas} if size else set())
    deferred = lors.download(ex, "client")
    q.run()
    assert deferred.result() == data


@given(
    size=st.integers(min_value=1, max_value=100_000),
    stripe=st.integers(min_value=1, max_value=4),
    block_kb=st.integers(min_value=4, max_value=64),
)
@settings(max_examples=30, deadline=None)
def test_striping_balances_depot_usage(size, stripe, block_kb):
    """Across a stripe, depot byte loads differ by at most one block."""
    q, lors, depots = make_rig()
    data = b"q" * size
    lors.place("f", data, depots, stripe_width=stripe,
               block_size=block_kb * 1024)
    block = block_kb * 1024
    used = sorted(d.used for d in depots[:stripe])
    assert used[-1] - used[0] <= block


@given(
    size=st.integers(min_value=1, max_value=50_000),
    replicas=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=20, deadline=None)
def test_any_single_depot_loss_is_survivable(size, replicas):
    """With r >= 2 replicas, losing any one depot never loses data."""
    q, lors, depots = make_rig()
    data = b"r" * size
    ex = lors.place("f", data, depots, stripe_width=len(depots),
                    replicas=replicas, block_size=8192)
    for victim in {m.depot for m in ex.mappings}:
        trimmed = type(ex)(
            name=ex.name, length=ex.length,
            mappings=[m for m in ex.mappings if m.depot != victim],
        )
        assert trimmed.is_fully_covered(), (
            f"losing {victim} leaves a hole with {replicas} replicas"
        )


@given(
    size=st.integers(min_value=1, max_value=60_000),
    streams=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=20, deadline=None)
def test_stream_count_never_corrupts(size, streams):
    q, lors, depots = make_rig()
    rng = np.random.default_rng(size)
    data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
    ex = lors.place("f", data, depots, stripe_width=3, block_size=4096)
    deferred = lors.download(ex, "client", max_streams=streams)
    q.run()
    assert deferred.result() == data


@given(size=st.integers(min_value=1, max_value=50_000))
@settings(max_examples=20, deadline=None)
def test_augment_produces_complete_lan_copy(size):
    q, lors, depots = make_rig()
    from repro.lon.exnode import ExNode

    data = b"a" * size
    ex = lors.place("f", data, depots[:2], stripe_width=2, block_size=4096)
    deferred = lors.augment(ex, depots[3])
    q.run()
    mappings = deferred.result()
    lan_only = ExNode(name="f", length=len(data), mappings=mappings)
    assert lan_only.is_fully_covered()
    # the copy holds identical bytes
    d2 = lors.download(lan_only, "client")
    q.run()
    assert d2.result() == data
