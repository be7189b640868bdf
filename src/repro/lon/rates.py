"""Weighted max-min fair rates: the rate problem with no simulator in it.

One input form.  ``capacity`` is a table of bandwidths (bytes/second)
indexed by row id, ``paths`` holds one tuple of row ids per flow,
``weights`` one positive fair-share weight per flow and ``caps`` one rate
ceiling per flow (``inf`` = none; in the simulator the TCP window / RTT
limit).  :func:`maxmin_rates` returns the allocation in flow order.  The
flows are expected to form a closed component — rows they do not touch are
never read — but nothing here knows what a flow, a link or an event is.

The fill runs water-filling rounds.  Every unsaturated row offers a
*level*: its remaining capacity per unit of still-unassigned member
weight.  Every unassigned capped flow offers ``cap / weight``.  The
lowest offer is the round's water level; every row and ceiling sitting
exactly on it saturates, their flows are fixed at ``level * weight``, that
share comes off the other rows they cross, and the next round runs on what
is left.  Flows nothing constrains end at ``inf``.  A component whose
ceilings all fit under its rows is simply the cheap case: one round per
distinct ``cap / weight``, no row ever saturates.  A component whose first
level fixes every flow needs no fill at all: :func:`maxmin_rates` answers it
in closed form, bit for bit (most of a contended fleet's flushes).

:func:`fill_loop` runs the rounds at every component size, with per-row
state in dicts updated decrementally and the ceilings as one per-flow
level.  Only the standard library is imported, so no result depends on a
BLAS build.
"""

from __future__ import annotations

from itertools import chain
from operator import truediv
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["maxmin_rates", "fill_loop"]

#: unassigned member weight at or below which a row offers no level (the
#: decremental sum of a fully assigned row is float residue, not zero)
_NO_WEIGHT = 1e-15

_INF = float("inf")

#: weights on this grid sum exactly in any order (see :func:`_one_level`)
_EXACT_STEP = 2.0 ** -10
_EXACT_MAX = 2.0 ** 20

Paths = Sequence[Tuple[int, ...]]


def maxmin_rates(
    capacity: Sequence[float],
    paths: Paths,
    weights: Sequence[float],
    caps: Sequence[float],
) -> List[float]:
    """Weighted max-min fair rates in flow order.

    When the fill's first water level fixes every flow, the rates are
    ``level * w`` in closed form (:func:`_one_level`), float for float what
    :func:`fill_loop` returns; otherwise the fill runs.  A lone flow is
    the smallest instance, for any weight: its path crosses a row once, so
    a row's weight is ``w``, and round 1 always fixes it.
    """
    if len(paths) == 1:
        w = weights[0]
        level = caps[0] / w
        if w > _NO_WEIGHT:
            for row in paths[0]:
                offer = capacity[row] / w
                if offer < level:
                    level = offer
        return [level * w]
    level = _one_level(capacity, paths, weights, caps)
    if level is not None:
        return [level * w for w in weights]
    return fill_loop(capacity, paths, weights, caps)


def _one_level(
    capacity: Sequence[float],
    paths: Paths,
    weights: Sequence[float],
    caps: Sequence[float],
) -> Optional[float]:
    """The fill's first water level when it fixes every flow, else None.

    The level is the lowest of each row's ``capacity / load`` and each
    ``cap / w``; it fixes every flow when each crosses a row offering it or
    has its ceiling there.  Taken only when every weight is a multiple of
    ``2**-10`` no larger than ``2**20`` (class weights are): every partial
    sum of weights is then exact, so summing them per path first gives
    the row loads of the fill's flow order, and the same level to the bit.
    """
    if not all(0.0 < w <= _EXACT_MAX and w % _EXACT_STEP == 0.0
               for w in set(weights)):
        return None
    by_path: Dict[Tuple[int, ...], float] = {}
    for path, w in zip(paths, weights):
        by_path[path] = by_path.get(path, 0.0) + w
    load: Dict[int, float] = {}
    for path, w in by_path.items():
        for row in path:
            load[row] = load.get(row, 0.0) + w
    offers = {row: capacity[row] / lw for row, lw in load.items()}
    ceilings: List[float] = list(map(truediv, caps, weights))
    level = min(chain(offers.values(), ceilings), default=_INF)
    at = {row for row, offer in offers.items() if offer == level}
    stray = {path for path in by_path if at.isdisjoint(path)}
    if stray and any(ceiling != level for path, ceiling
                     in zip(paths, ceilings) if path in stray):
        return None
    return level


def fill_loop(
    capacity: Sequence[float],
    paths: Paths,
    weights: Sequence[float],
    caps: Sequence[float],
) -> List[float]:
    """Water-filling with dict state.

    Within a round, saturated rows are taken in first-seen order (their
    members in flow order), then ceilings in flow order: shares come off
    the surviving rows in that order, which fixes the float result.
    """
    room: Dict[int, float] = {}          # row -> capacity not yet handed out
    live: Dict[int, float] = {}          # unsaturated row -> unassigned weight
    members: Dict[int, List[int]] = {}
    ceiling: Dict[int, float] = {}       # unassigned capped flow -> cap / weight
    for i, path in enumerate(paths):
        w = weights[i]
        for row in path:
            if row not in room:
                room[row] = capacity[row]
                members[row] = []
                live[row] = 0.0
            members[row].append(i)
            live[row] += w
        if caps[i] != _INF:
            ceiling[i] = caps[i] / w
    rates = [_INF] * len(paths)
    fixed = [False] * len(paths)

    def fix(i: int, level: float, at: int) -> None:
        """Pin flow ``i`` at the water level reached on row ``at``."""
        w = weights[i]
        share = level * w
        rates[i] = share
        fixed[i] = True
        ceiling.pop(i, None)
        for row in paths[i]:
            if row != at and row in live:
                room[row] = max(0.0, room[row] - share)
                live[row] -= w

    left = len(paths)
    while left:
        offers = [(room[row] / lw, row)
                  for row, lw in live.items() if lw > _NO_WEIGHT]
        level = min(chain((lv for lv, _ in offers), ceiling.values()),
                    default=_INF)
        if level == _INF:
            break  # the rest cross no constrained row and have no ceiling
        rows_at = [row for lv, row in offers if lv == level]
        flows_at = [i for i, lv in ceiling.items() if lv == level]
        for row in rows_at:
            for i in members[row]:
                if not fixed[i]:
                    fix(i, level, row)
                    left -= 1
            del live[row]
        for i in flows_at:
            if not fixed[i]:
                fix(i, level, -1)
                left -= 1
    return rates

