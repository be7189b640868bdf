"""Test-side oracle: the whole-network recompute the rebalancer is proven against.

:class:`ReferenceNetwork` is the seed's re-rating strategy, kept out of the
production class: every trigger synchronously settles *all* flows, runs the
scalar water-fill over *all* contending flows and reschedules *every*
completion event — O(flows x links) per change, no dirty rows, no coalesced
flush, no quiet-link fast path, no epsilon gate, no vectorized fill.  It
shares topology, routing, membership accounting and the scalar fill with
:class:`~repro.lon.network.Network` and overrides only the trigger and drain
hooks, so a property that holds between the two (rates to 1e-9, equal finish
times — ``test_network_properties.py``) is a statement about the incremental
machinery alone.  ``stats.full_recomputes`` counts its passes.
"""

from typing import Dict, Iterable, Sequence, Tuple

from repro.lon.network import AdmissionPlan, Flow, Network


class ReferenceNetwork(Network):
    """``Network`` with every trigger answered by a full recompute."""

    def admission_plan(
        self, items: Sequence[Tuple[str, str, int]]
    ) -> AdmissionPlan:
        # never planned (vector_ok stays False): admit() delegates to
        # scalar transfer(), one synchronous recompute per item
        return AdmissionPlan(self, list(items))

    def _quiet(self, flow: Flow) -> bool:
        return False

    def _poke(self, rows: Iterable[int]) -> None:
        self._rebalance_full()

    def _settle(self, now: float) -> None:
        """Drain every flow's progress up to ``now`` at its current rate."""
        for f in self._flows.values():
            self._settle_flow(f, now)

    def _maxmin_rates(self) -> Dict[int, float]:
        """Weighted max-min fair rate for every contending flow."""
        return self._rates_scalar(
            f for f in self._flows.values()
            if f.drained_at is None and not f.paused
        )

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
