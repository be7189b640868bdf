"""Rate-kernel micro-benchmark: both fills of ``repro.lon.rates`` by size.

The kernel takes bare lists, so this builds the contended fleet's rate
problem directly — 7 depots behind 50 Mb/s access links, one 40 Mb/s WAN,
16 consoles on a 1 Gb/s LAN, every flow depot -> WAN -> console under a
256 KiB TCP window, scheduler class weights — and times ``fill_loop`` and
``fill_numpy`` on it from 10 to 5 000 flows, in two shapes:

* **one round** — the WAN saturates before any ceiling binds and fixes
  every flow at once (what a bandwidth-limited flush looks like);
* **multi-level** — ceilings spread over eight levels under the WAN's
  share, so the fill runs one round per level and then the WAN's (the
  rounds are counted from the result, not assumed).

Asserted: from 1 000 flows up the numpy fill is no slower than 1.5x the
loop fill on either shape.  With TCP ceilings held as one dense matrix row
per capped flow it was 3-8x *slower* than the loop there (quadratic in the
component; CHANGES.md, PR 18, has the columns) and nothing noticed; this
keeps it from coming back.  The table goes to
``benchmarks/results/rate_kernel.txt``, its ratios to DESIGN.md section 10;
nothing here writes a ``BENCH_*.json``.
"""

from time import perf_counter

import numpy as np

from repro.experiments import md_table
from repro.lon.network import mbps
from repro.lon.rates import VECTORIZE_MIN_FLOWS, fill_loop, fill_numpy
from repro.lon.scheduler import DEFAULT_CLASS_WEIGHTS

SIZES = (10, 24, 100, 300, 1000, 3000, 5000)
CLASS_WEIGHTS = tuple(DEFAULT_CLASS_WEIGHTS.values())
N_DEPOTS, N_CONSOLES = 7, 16
WAN = N_DEPOTS                       # row ids: depots, then WAN, then LAN
WINDOW_CAP = 256 * 1024 / (2 * (0.002 + 0.08 + 0.0002))
INF = float("inf")


def dumbbell(n_flows, multi_level):
    """The contended rig's rate problem for ``n_flows`` flows."""
    rng = np.random.default_rng(n_flows)
    capacity = ([mbps(50.0)] * N_DEPOTS + [mbps(40.0)]
                + [mbps(1000.0)] * N_CONSOLES)
    depots = rng.integers(0, N_DEPOTS, size=n_flows)
    consoles = rng.integers(0, N_CONSOLES, size=n_flows)
    paths = [(int(d), WAN, WAN + 1 + int(c))
             for d, c in zip(depots, consoles)]
    weights = [float(w) for w in rng.choice(CLASS_WEIGHTS, size=n_flows)]
    if not multi_level:
        return capacity, paths, weights, [WINDOW_CAP] * n_flows
    # ceilings at 0.2 ... 0.9 of the WAN's per-weight share bind first, one
    # level each; the 3x and 6x ones leave their flows to the WAN
    share = capacity[WAN] / sum(weights)
    factors = rng.choice((0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 3.0, 6.0),
                         size=n_flows)
    caps = [w * share * float(f) for w, f in zip(weights, factors)]
    return capacity, paths, weights, caps


def best_ms(fill, problem, repeats):
    best = INF
    for _ in range(repeats):
        t0 = perf_counter()
        fill(*problem)
        best = min(best, perf_counter() - t0)
    return best * 1e3


def test_rate_kernel(benchmark, report):
    rows = []
    ratios = {}
    for multi_level in (False, True):
        for n in SIZES:
            problem = dumbbell(n, multi_level)
            rates = fill_numpy(*problem)
            levels = {round(r / w, 6) for r, w in zip(rates, problem[2])}
            loop = best_ms(fill_loop, problem, repeats=5)
            vec = best_ms(fill_numpy, problem, repeats=5)
            ratios[multi_level, n] = vec / loop
            rows.append(["multi-level" if multi_level else "one round", n,
                         len(levels), round(loop, 3), round(vec, 3),
                         round(vec / loop, 2)])
            if multi_level and n >= 100:
                assert len(levels) >= 8, f"{n} flows: {len(levels)} rounds"
    report("rate_kernel", md_table(
        ["shape", "flows", "rounds", "loop ms", "numpy ms", "numpy / loop"],
        rows))

    for (multi_level, n), ratio in ratios.items():
        if n >= 1000:
            assert ratio <= 1.5, (
                f"numpy fill {ratio:.1f}x the loop fill at {n} flows "
                f"({'multi-level' if multi_level else 'one round'})")
    assert VECTORIZE_MIN_FLOWS in SIZES  # the crossover is a measured row

    problem = dumbbell(1000, multi_level=False)
    benchmark.pedantic(lambda: fill_numpy(*problem), rounds=5, iterations=1)
