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
from repro.lon.rates import fill_loop, fill_numpy, maxmin_rates
from repro.lon.scheduler import DEFAULT_CLASS_WEIGHTS

from .reference_network import reference_fill_numpy, reference_maxmin_rates

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
        """Whichever fill the entry point picks by size: bit-equal to the
        oracle below the crossover, float summation order from it up
        (1e-12 on class weights — see ``test_loop_and_numpy_fills_agree``
        — and 1e-9 on arbitrary ones)."""
        problem = component(seed, n_flows, n_rows, weights, caps)
        got, vectorized = maxmin_rates(*problem)
        want = reference_maxmin_rates(*problem)
        assert vectorized == (n_flows >= rates.VECTORIZE_MIN_FLOWS)
        if not vectorized:
            assert got == want
        rel = 1e-12 if weights == "class" else 1e-9
        assert all(isclose(g, w, rel_tol=rel) for g, w in zip(got, want))

    @given(**components)
    @settings(max_examples=60, deadline=None)
    def test_loop_and_numpy_fills_agree(self, seed, n_flows, n_rows, caps):
        """To 1e-12 on class weights — *not* bit for bit.  The loop takes
        each fixed share off a surviving row one at a time, numpy takes
        their sum off at once: ``capacity=[10, 30]``,
        ``paths=[(0, 1), (0, 1), (1,)]``, ``weights=[8, 0.5, 8]``, no
        ceilings — row 0 fixes flows 0 and 1 at 9.411764705882353 and
        0.5882352941176471, and flow 2 then gets
        ``(30 - 9.41...) - 0.588... = 19.999999999999996`` from the loop
        but ``30 - (9.41... + 0.588...) = 20.0`` from numpy."""
        problem = component(seed, n_flows, n_rows, "class", caps)
        assert all(isclose(a, b, rel_tol=1e-12) for a, b in
                   zip(fill_loop(*problem), fill_numpy(*problem)))

    def test_the_recorded_bit_difference_still_stands(self):
        problem = ([10.0, 30.0], [(0, 1), (0, 1), (1,)],
                   [8.0, 0.5, 8.0], [INF] * 3)
        assert fill_loop(*problem)[2] == 19.999999999999996
        assert fill_numpy(*problem)[2] == 20.0


def hexes(rates_):
    return [r.hex() for r in rates_]


class TestAgainstTheOldNumpyFill:
    """The numpy fill builds its matrix from a dense row table and stops at
    the round that fixes the last flow; neither changes its arithmetic, so
    it and the entry point stay bit-equal to the fill they replaced."""

    @given(weights=st.sampled_from(["class", "any"]), **components)
    @settings(max_examples=60, deadline=None)
    def test_numpy_fill_is_the_old_one_bit_for_bit(
            self, seed, n_flows, n_rows, caps, weights):
        problem = component(seed, n_flows, n_rows, weights, caps)
        assert (hexes(fill_numpy(*problem))
                == hexes(reference_fill_numpy(*problem)))

    @given(weights=st.sampled_from(["class", "any"]), **components)
    @settings(max_examples=60, deadline=None)
    def test_maxmin_rates_is_the_old_dispatch_bit_for_bit(
            self, seed, n_flows, n_rows, caps, weights):
        problem = component(seed, n_flows, n_rows, weights, caps)
        got, vectorized = maxmin_rates(*problem)
        old = reference_fill_numpy if vectorized else reference_maxmin_rates
        assert hexes(got) == hexes(old(*problem))

    @pytest.mark.parametrize("problem", [
        ([5.0], [], [], []),                                    # empty
        ([5.0], [(), (), ()], [1.0, 2.0, 1.0], [INF, 3.0, INF]),  # no rows
        ([5.0, 7.0], [(0, 1)], [2.0], [INF]),                   # one flow
        ([10.0, 30.0], [(0, 1), (0, 1), (1,)],                  # two rounds
         [8.0, 0.5, 8.0], [INF] * 3),
        ([8.0, 100.0], [(0, 1), (0, 1), (1,)],                  # row + cap tie
         [1.0, 1.0, 2.0], [INF, 4.0, 8.0]),
    ], ids=["empty", "no-rows", "one-flow", "multi-round", "tie"])
    def test_edges_bit_for_bit(self, problem):
        assert (hexes(fill_numpy(*problem))
                == hexes(reference_fill_numpy(*problem)))


class TestMaxMinConditions:
    @given(weights=st.sampled_from(["class", "any"]),
           fill=st.sampled_from([fill_loop, fill_numpy]), **components)
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

    @given(fill=st.sampled_from([fill_loop, fill_numpy]), **sizes)
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
        assert maxmin_rates([5.0], [], [], []) == ([], False)
        assert fill_numpy([5.0], [], [], []) == []

    @pytest.mark.parametrize("fill", [fill_loop, fill_numpy])
    def test_empty_paths_are_unconstrained(self, fill):
        assert fill([5.0], [(), (0,), ()], [1.0, 2.0, 1.0],
                    [INF, INF, 3.0]) == [INF, 5.0, 3.0]

    @pytest.mark.parametrize("fill", [fill_loop, fill_numpy])
    def test_row_and_ceiling_tie_in_one_round(self, fill):
        """Row 0 (capacity 8 over weights 1 + 1) and flow 2's ceiling both
        sit at level 4: one round saturates both, and flow 1 — fixed by
        the row — is not fixed again by its own (also level-4) ceiling."""
        problem = ([8.0, 100.0], [(0, 1), (0, 1), (1,)],
                   [1.0, 1.0, 2.0], [INF, 4.0, 8.0])
        assert fill(*problem) == [4.0, 4.0, 8.0]
        assert fill(*problem) == reference_maxmin_rates(*problem)

    @pytest.mark.parametrize("fill", [fill_loop, fill_numpy])
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
        got, vectorized = maxmin_rates(*problem)
        assert not vectorized
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
        assert maxmin_rates(*problem) == ([want], False)
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
    float for float what the fill of its size returns; anything else falls
    back to that fill."""

    def test_numpy_size_is_the_numpy_fill_bit_for_bit(self):
        problem = one_level(rates.VECTORIZE_MIN_FLOWS + 7)
        with mock.patch.object(rates, "fill_numpy",
                               side_effect=AssertionError("fill ran")):
            got, vectorized = maxmin_rates(*problem)
        assert vectorized
        assert hexes(got) == hexes(fill_numpy(*problem))

    @pytest.mark.parametrize("n", [3, rates.VECTORIZE_MIN_FLOWS + 7])
    @pytest.mark.parametrize("case", ["weight-0.3", "two-levels"])
    def test_anything_else_is_the_fill(self, case, n):
        capacity, paths, weights, caps = problem = one_level(n)
        if case == "weight-0.3":
            weights[0] = 0.3    # off the exact grid
        else:
            capacity[1] = 1e3   # row 1 fixes its flows first, row 0 the rest
        fill = fill_numpy if n >= rates.VECTORIZE_MIN_FLOWS else fill_loop
        with mock.patch.object(rates, fill.__name__, wraps=fill) as spy:
            got, vectorized = maxmin_rates(*problem)
        assert spy.call_count == 1
        assert vectorized == (fill is fill_numpy)
        assert hexes(got) == hexes(fill(*problem))

    def test_one_flow_is_the_smallest_instance_at_any_weight(self):
        problem = ([1e6, 5e7], [(0, 1)], [0.3], [INF])
        with mock.patch.object(rates, "fill_loop",
                               side_effect=AssertionError("fill ran")):
            got, vectorized = maxmin_rates(*problem)
        assert not vectorized
        assert hexes(got) == hexes(fill_loop(*problem))
