"""Test-side fixture: the dumbbell topology the LoN tests run on.

Only tests build it (the streaming rigs wire their own in
``repro.streaming.session``).  The fault-stream shas in
``test_lors_fault_streams.py`` are pinned on it, so its links must not
change.
"""

from typing import Iterable

from repro.lon.network import Network, gbps, mbps
from repro.lon.simtime import EventQueue


def build_dumbbell(
    queue: EventQueue,
    lan_hosts: Iterable[str],
    wan_hosts: Iterable[str],
    lan_bandwidth: float = gbps(1.0),
    lan_latency: float = 0.0002,
    wan_bandwidth: float = mbps(100.0),
    wan_latency: float = 0.035,
) -> Network:
    """A client LAN and a remote site joined by a WAN.

    Matches the paper's setup: client + client agent + LAN depots on a 1 Gb/s
    LAN in Knoxville; server depots behind an Abilene-class WAN path (~70 ms
    RTT Knoxville-California, ~100 Mb/s achievable).
    """
    net = Network(queue)
    lan = list(lan_hosts)
    wan = list(wan_hosts)
    net.add_node("lan-switch")
    net.add_node("wan-router")
    for h in lan:
        net.add_link(h, "lan-switch", lan_bandwidth, lan_latency)
    net.add_link("lan-switch", "wan-router", wan_bandwidth, wan_latency)
    for h in wan:
        net.add_link(h, "wan-router", wan_bandwidth, 0.002)
    return net
