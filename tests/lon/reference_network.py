"""Test-side oracle: the whole-network recompute the rebalancer is proven against.

:class:`ReferenceNetwork` is the seed's re-rating strategy, kept out of the
production class: every trigger synchronously settles *all* flows, runs the
scalar water-fill over *all* contending flows and reschedules *every*
completion event — O(flows x links) per change, no dirty rows, no coalesced
flush, no quiet-link fast path, no epsilon gate, no closed form.  It
shares topology, routing and membership accounting with
:class:`~repro.lon.network.Network` and overrides the trigger and drain
hooks, so a property that holds between the two (rates to 1e-9, equal finish
times — ``test_network_properties.py``) is a statement about the incremental
machinery *and* the rate kernel: the oracle's fill is
:func:`reference_maxmin_rates`, the production scalar fill as it stood
before ``repro.lon.rates`` existed (TCP ceilings as ``("cap", fid)`` virtual
links in the same three dicts as the physical rows), which production never
imports.  ``stats.full_recomputes`` counts the oracle's passes.
"""

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.lon.network import Flow, Network
from repro.lon.simtime import EventQueue


def reference_maxmin_rates(
    capacity: Sequence[float],
    paths: Sequence[Tuple[int, ...]],
    weights: Sequence[float],
    caps: Sequence[float],
) -> List[float]:
    """Water-filling over an explicit flow set (the oracle's fill).

    Same input form as :func:`repro.lon.rates.maxmin_rates`; otherwise the
    old ``Network._rates_scalar`` line for line.  Each bottleneck link's
    capacity is split proportionally to flow weights; with all weights 1.0
    this is the classic equal-share max-min allocation.
    """
    weight = dict(enumerate(weights))
    room: Dict[object, float] = {}
    members: Dict[object, List[int]] = {}
    # per-link sum of still-unassigned member weights, maintained
    # decrementally so level selection is O(links) per round instead
    # of O(links x members)
    live_weight: Dict[object, float] = {}
    for fid, path in enumerate(paths):
        w = weight[fid]
        for lk in path:
            if lk not in room:
                room[lk] = capacity[lk]
                members[lk] = []
                live_weight[lk] = 0.0
            members[lk].append(fid)
            live_weight[lk] += w
        if caps[fid] != float("inf"):
            # a flow's TCP-window ceiling is a virtual single-flow link
            # (level = cap/weight, share = level*weight = rate_cap)
            cap_key = ("cap", fid)
            room[cap_key] = caps[fid]
            members[cap_key] = [fid]
            live_weight[cap_key] = w
    rates: Dict[int, float] = {}
    unassigned = set(weight)
    while unassigned:
        # water level currently offered by each constrained link: the
        # per-unit-weight rate if the link alone were the bottleneck
        best_level = None
        for lk, lw in live_weight.items():
            if lw <= 1e-15:
                continue
            level = room[lk] / lw
            if best_level is None or level < best_level:
                best_level = level
        if best_level is None:
            # remaining flows traverse no capacity-constrained link
            for fid in unassigned:
                rates[fid] = float("inf")
            break
        # saturate every link sitting exactly at the water level in one
        # round: uniform-window uncongested fleets (all levels equal)
        # then finish in a single pass instead of one round per flow
        best_links = [
            lk for lk, lw in live_weight.items()
            if lw > 1e-15 and room[lk] / lw == best_level
        ]
        for best_link in best_links:
            for fid in members[best_link]:
                if fid not in unassigned:
                    continue
                w = weight[fid]
                share = best_level * w
                rates[fid] = share
                unassigned.discard(fid)
                for lk in paths[fid]:
                    if lk != best_link:
                        room[lk] = max(0.0, room[lk] - share)
                        if lk in live_weight:
                            live_weight[lk] -= w
                cap_key = ("cap", fid)
                if cap_key != best_link and cap_key in live_weight:
                    live_weight[cap_key] = 0.0
            room[best_link] = 0.0
            live_weight.pop(best_link, None)
            members.pop(best_link, None)
    return [rates[fid] for fid in range(len(paths))]


def accounting_matches_membership(net: Network) -> bool:
    """The quiet-link row accounting, recomputed from first principles.

    ``_row_capload`` / ``_row_unc`` / ``_row_over`` are maintained
    incrementally by ``_admit`` / ``_expel``; here they are rebuilt from the
    membership sets and the live flows.  Asserts (with the offending row in
    the message) and returns True, so callers can ``assert`` it.
    """
    inf = float("inf")
    for row, bw in enumerate(net._row_bw):
        flows = [net._flows[fid] for fid in sorted(net._members.get(row, ()))]
        capload = sum(f.rate_cap for f in flows if f.rate_cap != inf)
        unc = sum(1 for f in flows if f.rate_cap == inf)
        got = net._row_capload[row]
        # +cap / -cap in admission order leaves float residue, not drift
        assert abs(got - capload) <= 1e-9 * max(capload, 1.0), (
            f"row {row}: capload {got} != {capload} over members")
        assert net._row_unc[row] == unc, (
            f"row {row}: {net._row_unc[row]} uncapped counted, {unc} present")
        assert net._row_over[row] == (unc > 0 or got > bw), f"row {row}: over"
    return True


def step(queue: EventQueue) -> bool:
    """Fire the next due event, if any: the one place tests single-step the
    queue's private dispatch loop (production only runs it to a horizon)."""
    return queue._dispatch(float("inf"), 1) == 1


class ReferenceNetwork(Network):
    """``Network`` with every trigger answered by a full recompute."""

    def _quiet(self, flow: Flow) -> bool:
        return False

    def _expel(self, flow: Flow) -> bool:
        super()._expel(flow)
        return False  # never quiet: every release recomputes

    def _poke(self, rows: Iterable[int]) -> None:
        self._rebalance_full()

    def _settle(self, now: float) -> None:
        """Drain every flow's progress up to ``now`` at its current rate."""
        for f in self._flows.values():
            self._settle_flow(f, now)

    def _maxmin_rates(self) -> Dict[int, float]:
        """Weighted max-min fair rate for every contending flow."""
        flows = [f for f in self._flows.values()
                 if f.drained_at is None and not f.paused]
        rates = reference_maxmin_rates(
            self._row_bw,
            [f.link_row_ids for f in flows],
            [f.weight for f in flows],
            [f.rate_cap for f in flows],
        )
        return {f.fid: rate for f, rate in zip(flows, rates)}

    def _rebalance_full(self) -> None:
        """Recompute all rates and reschedule every completion event."""
        now = self.queue.now
        self.stats.full_recomputes += 1
        self._settle(now)
        # retire any flow whose bytes drained since the last event; its
        # delivery is pinned at drained_at + propagation.
        for f in [f for f in self._flows.values()
                  if f.drained_at is not None or f.remaining <= 1e-9]:
            self._retire(f)
        rates = self._maxmin_rates()
        for f in list(self._flows.values()):
            old_rate = f.rate
            f.rate = rates.get(f.fid, 0.0)
            if f.on_rate_change is not None and f.rate != old_rate:
                f.on_rate_change(f, old_rate)
            if f._completion_event is not None:
                self.queue.cancel(f._completion_event)
                f._completion_event = None
            if f.rate <= 0:
                continue  # stalled; will be rescheduled on next rebalance
            serialization = (
                0.0 if f.rate == float("inf") else f.remaining / f.rate
            )
            f._completion_event = self.queue.schedule(
                max(now + serialization, now),
                lambda fl=f: self._drain_check(fl),
                f"flow:{f.label}",
            )

    def _drain_check(self, flow: Flow) -> None:
        if flow.done or flow.failed:
            return
        self._settle(self.queue.now)
        if flow.fid in self._flows and flow.remaining > 1e-6:
            # rates changed since this event was scheduled; re-arm
            self._rebalance_full()
            return
        if flow.fid in self._flows:
            self._retire(flow)
            self._rebalance_full()

    def _fail_flow(self, flow: Flow, exc: Exception) -> None:
        if not (flow.done or flow.failed) and flow.fid not in self._flows:
            # seed parity: a flow failing in its propagation tail (already
            # out of the admitted set) recomputes anyway
            self._rebalance_full()
        super()._fail_flow(flow, exc)
