"""The rate kernel against an oracle that is not itself.

``repro.lon.rates`` is checked here on bare rate problems — capacities,
row-id paths, weights, ceilings; no ``Network``, no ``Flow`` — against
``reference_maxmin_rates`` (the old production scalar fill, test-side
since the kernel was extracted) and against the max-min conditions
themselves.  Components are drawn through a seeded generator so that 200
flows stay cheap to build: capacities and ceilings come from small pools,
which makes same-level ties (several rows, several ceilings in one round)
the common case rather than the rare one.
"""

from math import isclose
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lon import rates
from repro.lon.rates import fill_loop, maxmin_rates
from repro.lon.scheduler import DEFAULT_CLASS_WEIGHTS

from .reference_network import reference_maxmin_rates

INF = float("inf")
CLASS_WEIGHTS = tuple(DEFAULT_CLASS_WEIGHTS.values())   # 8, 2, 1, 0.5


def component(seed, n_flows, n_rows, weights, caps):
    """One random rate problem ``(capacity, paths, weights, caps)``."""
    rng = np.random.default_rng(seed)
    pool = rng.uniform(1e5, 1e7, size=3)
    capacity = [float(pool[i]) for i in rng.integers(0, 3, size=n_rows)]
    paths = []
    for _ in range(n_flows):
        hops = int(rng.integers(0, min(4, n_rows) + 1))  # 0: an empty path
        paths.append(tuple(
            int(r) for r in rng.choice(n_rows, size=hops, replace=False)))
    if weights == "class":
        w = [float(x) for x in rng.choice(CLASS_WEIGHTS, size=n_flows)]
    else:
        w = [float(x) for x in rng.uniform(0.1, 9.0, size=n_flows)]
    ceilings = [float(x) for x in rng.uniform(1e4, 3e6, size=3)]
    if caps != "finite":
        ceilings.append(INF)
    if caps == "inf":
        c = [INF] * n_flows
    else:
        c = [ceilings[i]
             for i in rng.integers(0, len(ceilings), size=n_flows)]
    return capacity, paths, w, c


sizes = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_flows=st.integers(min_value=1, max_value=200),
    n_rows=st.integers(min_value=1, max_value=30),
)
components = dict(caps=st.sampled_from(["finite", "inf", "mixed"]), **sizes)


class TestAgainstTheOracle:
    @given(weights=st.sampled_from(["class", "any"]), **components)
    @settings(max_examples=60, deadline=None)
    def test_loop_fill_is_the_oracle_bit_for_bit(
            self, seed, n_flows, n_rows, caps, weights):
        """Ceilings as a per-flow level instead of ``("cap", fid)`` dict
        entries is a change of representation, not of arithmetic."""
        problem = component(seed, n_flows, n_rows, weights, caps)
        assert ([r.hex() for r in fill_loop(*problem)]
                == [r.hex() for r in reference_maxmin_rates(*problem)])

    @given(weights=st.sampled_from(["class", "any"]), **components)
    @settings(max_examples=60, deadline=None)
    def test_maxmin_rates_matches_the_oracle(
            self, seed, n_flows, n_rows, caps, weights):
        """The entry point, closed forms included, at every size."""
        problem = component(seed, n_flows, n_rows, weights, caps)
        assert ([r.hex() for r in maxmin_rates(*problem)]
                == [r.hex() for r in reference_maxmin_rates(*problem)])


def hexes(rates_):
    return [r.hex() for r in rates_]


class TestMaxMinConditions:
    @given(weights=st.sampled_from(["class", "any"]),
           fill=st.sampled_from([fill_loop, maxmin_rates]), **components)
    @settings(max_examples=80, deadline=None)
    def test_feasible_and_every_flow_bottlenecked(
            self, seed, n_flows, n_rows, caps, weights, fill):
        """No row over capacity, and each flow is at its ceiling or crosses
        a saturated row on which nobody has a higher ``rate / weight``."""
        capacity, paths, w, c = component(seed, n_flows, n_rows, weights,
                                          caps)
        got = fill(capacity, paths, w, c)
        load = {}
        for path, rate in zip(paths, got):
            for row in path:
                load[row] = load.get(row, 0.0) + rate
        for row, total in load.items():
            assert total <= capacity[row] * (1 + 1e-9)
        saturated = {row for row, total in load.items()
                     if total >= capacity[row] * (1 - 1e-9)}
        top = {}   # row -> highest rate / weight among its members
        for i, path in enumerate(paths):
            for row in path:
                top[row] = max(top.get(row, 0.0), got[i] / w[i])
        for i, path in enumerate(paths):
            if not path:
                # nothing but the flow's own ceiling can hold it
                assert isclose(got[i], c[i], rel_tol=1e-12)
                continue
            assert 0.0 < got[i] <= c[i] * (1 + 1e-12)
            if isclose(got[i], c[i], rel_tol=1e-9):
                continue
            level = got[i] / w[i]
            assert any(row in saturated and top[row] <= level * (1 + 1e-9)
                       for row in path), f"flow {i} has no bottleneck"

    @given(fill=st.sampled_from([fill_loop, maxmin_rates]), **sizes)
    @settings(max_examples=60, deadline=None)
    def test_all_capped_component_gets_exactly_its_ceilings(
            self, seed, n_flows, n_rows, fill):
        """Ceilings that fit under every row are the fill's cheap case —
        what the deleted all-capped pre-pass used to answer."""
        _, paths, w, c = component(seed, n_flows, n_rows, "class", "finite")
        capacity = [1.0] * n_rows
        for path, cap in zip(paths, c):
            for row in path:
                capacity[row] += cap * 1.001
        assert fill(capacity, paths, w, c) == c


class TestEdges:
    def test_empty_component(self):
        assert maxmin_rates([5.0], [], [], []) == []
        assert fill_loop([5.0], [], [], []) == []

    @pytest.mark.parametrize("fill", [fill_loop, maxmin_rates])
    def test_empty_paths_are_unconstrained(self, fill):
        assert fill([5.0], [(), (0,), ()], [1.0, 2.0, 1.0],
                    [INF, INF, 3.0]) == [INF, 5.0, 3.0]

    @pytest.mark.parametrize("fill", [fill_loop, maxmin_rates])
    def test_row_and_ceiling_tie_in_one_round(self, fill):
        """Row 0 (capacity 8 over weights 1 + 1) and flow 2's ceiling both
        sit at level 4: one round saturates both, and flow 1 — fixed by
        the row — is not fixed again by its own (also level-4) ceiling."""
        problem = ([8.0, 100.0], [(0, 1), (0, 1), (1,)],
                   [1.0, 1.0, 2.0], [INF, 4.0, 8.0])
        assert fill(*problem) == [4.0, 4.0, 8.0]
        assert fill(*problem) == reference_maxmin_rates(*problem)

    @pytest.mark.parametrize("fill", [fill_loop, maxmin_rates])
    def test_rows_outside_the_component_are_never_read(self, fill):
        capacity = [float("nan")] * 5 + [6.0]
        assert fill(capacity, [(5,), (5,)], [1.0, 2.0],
                    [INF, INF]) == [2.0, 4.0]


class TestOneFlowClosedForm:
    """A one-flow component is answered without the fill: the lowest of
    the ceiling and each row's ``capacity / weight``, times the weight."""

    @given(
        capacity=st.lists(st.floats(min_value=1e-3, max_value=1e12),
                          min_size=6, max_size=6),
        path=st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                      max_size=4, unique=True),
        weight=st.one_of(
            st.sampled_from(CLASS_WEIGHTS),
            # too little weight to offer a level: ceiling or ``inf``
            st.floats(min_value=5e-324, max_value=1e-15)),
        cap=st.one_of(st.just(INF),
                      st.floats(min_value=1e-3, max_value=1e12)),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_is_the_fill_bit_for_bit(
            self, capacity, path, weight, cap):
        problem = (capacity, [tuple(path)], [weight], [cap])
        got = maxmin_rates(*problem)
        assert hexes(got) == hexes(fill_loop(*problem))
        if weight > 1e-15 or cap == INF:
            # the oracle's ceiling is a one-member virtual row, so on a
            # weight too small to offer it is silent like the real rows
            assert hexes(got) == hexes(reference_maxmin_rates(*problem))

    @pytest.mark.parametrize("problem,want", [
        (([4.0, 9.0], [(0, 1)], [2.0], [INF]), 4.0),     # row-bound
        (([4.0, 9.0], [(0, 1)], [2.0], [3.0]), 3.0),     # ceiling-bound
        (([4.0], [()], [1.0], [INF]), INF),              # unconstrained
        (([4.0], [(0,)], [1e-16], [INF]), INF),          # no row offers
        (([4.0], [(0,)], [1e-16], [2.0]), 2.0),          # ceiling only
    ], ids=["row", "ceiling", "no-rows", "no-offer", "no-offer-capped"])
    def test_edges(self, problem, want):
        assert maxmin_rates(*problem) == [want]
        assert fill_loop(*problem) == [want]


def one_level(n):
    """``n`` class-weight flows that row 0 fixes in one round, the last one
    by its ceiling alone (an empty path, capped exactly at the level)."""
    capacity = [1e6, 5e7, 5e7]
    paths = [(0, 1 + i % 2) for i in range(n - 1)] + [()]
    weights = [CLASS_WEIGHTS[i % 3] for i in range(n)]   # 8, 2, 1
    level = capacity[0] / sum(weights[:-1])
    return capacity, paths, weights, [INF] * (n - 1) + [level * weights[-1]]


class TestOneLevelClosedForm:
    """A component its first water level fixes is answered without a fill,
    float for float what :func:`fill_loop` returns; anything else falls
    back to it."""

    @pytest.mark.parametrize("n", [3, 31])
    def test_closed_form_is_the_loop_fill_bit_for_bit(self, n):
        problem = one_level(n)
        with mock.patch.object(rates, "fill_loop",
                               side_effect=AssertionError("fill ran")):
            got = maxmin_rates(*problem)
        assert hexes(got) == hexes(fill_loop(*problem))

    @pytest.mark.parametrize("n", [3, 31])
    @pytest.mark.parametrize("case", ["weight-0.3", "two-levels"])
    def test_anything_else_is_the_fill(self, case, n):
        capacity, paths, weights, caps = problem = one_level(n)
        if case == "weight-0.3":
            weights[0] = 0.3    # off the exact grid
        else:
            capacity[1] = 1e3   # row 1 fixes its flows first, row 0 the rest
        with mock.patch.object(rates, "fill_loop", wraps=fill_loop) as spy:
            got = maxmin_rates(*problem)
        assert spy.call_count == 1
        assert hexes(got) == hexes(fill_loop(*problem))

    def test_one_flow_is_the_smallest_instance_at_any_weight(self):
        problem = ([1e6, 5e7], [(0, 1)], [0.3], [INF])
        with mock.patch.object(rates, "fill_loop",
                               side_effect=AssertionError("fill ran")):
            got = maxmin_rates(*problem)
        assert hexes(got) == hexes(fill_loop(*problem))
