"""``Network.route`` against the graph library it replaced.

``repro`` routes over its own adjacency dict; ``networkx`` (a test-only
dependency since then) stays as the oracle: on random topologies with tied
latencies, through random link down/up sequences, the two must return the
same path — not merely one of equal length, because which of two equally
short paths a flow takes decides which links it loads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lon.network import Network, NoRouteError, mbps
from repro.lon.simtime import EventQueue

nx = pytest.importorskip("networkx")

N_NODES = 7
#: few distinct values, so equal-length alternatives are the common case
LATENCIES = (0.0, 0.001, 0.002, 0.005)

pair_st = st.tuples(
    st.integers(min_value=0, max_value=N_NODES - 1),
    st.integers(min_value=0, max_value=N_NODES - 1),
).filter(lambda p: p[0] != p[1])

scenario_st = st.tuples(
    # links as drawn, in order; a repeated pair replaces the earlier link
    st.lists(st.tuples(pair_st, st.sampled_from(LATENCIES)),
             min_size=1, max_size=16),
    # (index into the links, up?) toggles, applied in order
    st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                       st.booleans()), max_size=10),
)


def name(i):
    return f"n{i}"


class Oracle:
    """The topology calls ``Network`` makes, replayed onto an ``nx.Graph``."""

    def __init__(self):
        self.graph = nx.Graph()

    def add_link(self, a, b, latency):
        self.graph.add_edge(a, b, latency=latency)

    def set_link_up(self, a, b, latency, up):
        if up:
            self.graph.add_edge(a, b, latency=latency)
        else:
            self.graph.remove_edge(a, b)

    def route(self, src, dst):
        try:
            return tuple(
                nx.shortest_path(self.graph, src, dst, weight="latency"))
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None


def routes(net, oracle):
    """Every ordered pair's (ours, oracle's) answer; None is no route."""
    out = []
    for i in range(N_NODES):
        for j in range(N_NODES):
            if i == j:
                continue
            try:
                mine = net.route(name(i), name(j))
            except NoRouteError:
                mine = None
            out.append(((i, j), mine, oracle.route(name(i), name(j))))
    return out


class TestRouteMatchesOracle:
    @given(drawn=scenario_st)
    @settings(max_examples=60, deadline=None)
    def test_same_path_through_ties_and_outages(self, drawn):
        links, toggles = drawn
        net, oracle = Network(EventQueue()), Oracle()
        for (i, j), latency in links:
            net.add_link(name(i), name(j), mbps(10), latency)
            oracle.add_link(name(i), name(j), latency)
        for pair, mine, theirs in routes(net, oracle):
            assert mine == theirs, pair
        for index, up in toggles:
            (i, j), _ = links[index % len(links)]
            link = net.link_between(name(i), name(j))
            if link.up != up:
                oracle.set_link_up(name(i), name(j), link.latency, up)
            net.set_link_up(name(i), name(j), up)
            for pair, mine, theirs in routes(net, oracle):
                assert mine == theirs, (pair, index, up)


class TestNoRoute:
    def test_unknown_node(self):
        net = Network(EventQueue())
        net.add_link("a", "b", mbps(10), 0.001)
        with pytest.raises(NoRouteError):
            net.route("a", "nowhere")
        with pytest.raises(NoRouteError):
            net.route("nowhere", "a")

    def test_partition_and_heal(self):
        net = Network(EventQueue())
        net.add_link("a", "b", mbps(10), 0.001)
        net.add_link("b", "c", mbps(10), 0.001)
        net.add_node("island")
        with pytest.raises(NoRouteError):
            net.route("a", "island")
        net.set_link_up("b", "c", False)
        with pytest.raises(NoRouteError):
            net.route("a", "c")
        net.set_link_up("b", "c", True)
        assert net.route("a", "c") == ("a", "b", "c")
