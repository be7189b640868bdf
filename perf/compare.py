#!/usr/bin/env python3
"""Compare two result sets of ``perf/run.py``: ``compare.py A.json B.json``.

A is the parent, B the change (or a second set of the same commit).  Each
(workload, end-to-end metric) gets one verdict, from the bound fixed in
``BENCHMARK.json`` and the quartile-spread rule of the choosing-metrics
guide:

* ``improved``   — B wins at least nine tenths of the run pairs (ties count
  for neither) and the medians differ by more than A's own quartile spread;
* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — not regressed, but A's quartile spread is wider than the
  bound (or a side has fewer than four runs, so there are no quartiles) and
  B's runs are not all better than all of A's;
* ``unchanged``  — everything else, and any metric that reads identically.

Per-layer metrics have no bound: exact ones (counts, simulated clock) are
reported when they differ at all, host timings as a plain ratio.  Exit
status is 1 when anything regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: per-layer units whose values are host timings; all others repeat exactly
HOST_UNITS = {"s", "ms", "us", "MB/s", "x"}


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (needs four values)."""
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    if list(a) == list(b) or len(set(a) | set(b)) == 1:
        return "unchanged"
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = median(a), median(b)
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    if worse_by > bound:
        return "regressed"
    resolved = min(len(a), len(b)) >= 4
    if resolved:
        pairs = [(x, y) for x, y in zip(a, b) if x != y]
        wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
        if (pairs and wins >= 0.9 * len(pairs)
                and abs(mb - ma) > spread(a) * abs(ma)):
            return "improved"
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if (not resolved or spread(a) > bound) and not all_better:
        return "unresolved"
    return "unchanged"


def values(runs: List[Dict], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def main(argv: Sequence[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(argv[1]) as fh:
        a_set = json.load(fh)["workloads"]
    with open(argv[2]) as fh:
        b_set = json.load(fh)["workloads"]
    regressed = 0
    print(f"{'workload':16s} {'metric':44s} {'A median':>12s} {'B median':>12s}"
          f" {'B/A':>7s}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a_set or name not in b_set:
            continue
        for m in spec["end_to_end"]:
            a = values(a_set[name]["end_to_end"], m["name"])
            b = values(b_set[name]["end_to_end"], m["name"])
            if not a or not b:
                continue
            v = verdict(a, b, m["better"], m["bound"])
            regressed += v == "regressed"
            ma, mb = median(a), median(b)
            print(f"{name:16s} {m['name']:44s} {ma:12.5g} {mb:12.5g}"
                  f" {mb / ma if ma else 0.0:7.3f}  {v} (n={len(a)}/{len(b)},"
                  f" bound {m['bound']})")
        for m in spec["per_layer"]:
            a = values(a_set[name].get("per_layer", []), m["name"])
            b = values(b_set[name].get("per_layer", []), m["name"])
            if not a or not b or (not any(a) and not any(b)):
                continue
            ma, mb = median(a), median(b)
            exact = m["unit"] not in HOST_UNITS
            if exact and ma == mb:
                continue
            note = "count differs" if exact else "host timing, no bound"
            print(f"{name:16s} {m['name']:44s} {ma:12.5g} {mb:12.5g}"
                  f" {mb / ma if ma else 0.0:7.3f}  {note}")
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
