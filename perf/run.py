#!/usr/bin/env python3
"""One outside-timed benchmark: seven workloads, end to end and per layer.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py [--seed 7] [--scale reference]      # every workload

With ``--workload`` this process *is* the workload: it sets up three times
(``setup_s`` is the median), runs one untimed warm-up unit, then timed units
until ``--seconds`` have passed, checks the outputs, and prints every metric
by name with its unit; the last line of standard output is one JSON object.
End-to-end times are host ``perf_counter`` seconds scaled by how fast this
machine ran a fixed calibration kernel right before and after the timed
interval (see ``calibrate``): the shared boxes this runs on change speed by
15 % and more from one minute to the next, and raw seconds move with them.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer ones
(spans recorded by ``perf/trace.py``, raw host seconds, never used for
end-to-end numbers).
Without ``--workload`` each workload runs in a fresh subprocess, untraced
then traced, and the collected numbers are written for ``perf/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

SETUPS = 3          # set-ups per run at bench scale; setup_s is their median
MIN_UNITS = 3       # timed units per run, however short --seconds is
TRACE_UNITS = 3     # units in one traced pass
#: what the calibration kernel takes on the reference box when it is quiet;
#: end-to-end times are reported at this nominal machine speed
CAL_NOMINAL_S = 0.0070


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Speed:
    """Machine speed around a timed interval, relative to nominal.

    The calibration kernel is a fixed mix of the three kinds of work the
    workloads do — an interpreter loop, a zlib round trip, a numpy gather —
    and touches nothing of ``repro``, so no change to the program moves it.
    """

    def __init__(self) -> None:
        import numpy as np

        self._bytes = bytes(range(256)) * 2000
        self._values = np.arange(1 << 18, dtype=np.float32)
        self._index = np.random.default_rng(0).integers(0, 1 << 18, 1 << 18)
        self.calibrate()                        # warm the kernel itself
        self._before = self.calibrate()

    def calibrate(self) -> float:
        """Host seconds the kernel takes right now."""
        t0 = perf_counter()
        total = 0
        for i in range(60000):
            total += i * i
        zlib.decompress(zlib.compress(self._bytes, 1))
        (self._values[self._index] * 1.5).sum()
        return perf_counter() - t0

    def factor(self) -> float:
        """Multiply a host time measured since the last call by this."""
        after = self.calibrate()
        factor = CAL_NOMINAL_S / ((self._before + after) / 2.0)
        self._before = after
        return factor


class Gates:
    """Operations attempted and failed: the units' own, plus one per output
    check, every miss of which is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def count(self, unit: Any) -> None:
        self.attempted += unit.attempted
        self.failed += unit.failed

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"GATE MISSED: {what}", file=sys.stderr)

    def extend(self, checks: List[Tuple[str, bool]]) -> None:
        for what, ok in checks:
            self.check(what, ok)


def run_end_to_end(workload: Any, seed: int, seconds: float,
                   gates: Gates) -> Dict[str, float]:
    speed = Speed()
    setups = []
    for _ in range(SETUPS if workload.scale == "bench" else 1):
        t0 = perf_counter()
        state = workload.setup(seed)
        raw = perf_counter() - t0
        setups.append(raw * speed.factor())
    warm = workload.unit(state, seed, 0)
    raw, walls, rates, factors = [], [], [], []
    speed.factor()                              # restart from after warm-up
    deadline = perf_counter() + seconds
    while len(raw) < MIN_UNITS or perf_counter() < deadline:
        gc.collect()        # each unit starts from the same collector state
        unit = workload.unit(state, seed, len(raw))
        factor = speed.factor()
        if not raw:
            gates.check(
                "unit 0 repeats bit-equal (simulated metrics, event counts, "
                "payload and frame checksums)", warm.digest == unit.digest)
            if seed == 7 and workload.scale == "reference":
                gates.extend(workload.reference_gate(unit))
        # keep the numbers and let the results go: retained sessions grow
        # the heap, and later units would pay for collecting it
        raw.append(unit.wall_s)
        walls.append(unit.wall_s * factor)
        rates.append(unit.work / (unit.work_s * factor))
        factors.append(factor)
        gates.count(unit)
    gates.extend(workload.checks(state))
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "work_per_s": median(rates),
        "peak_rss_mb": peak_rss_mb(),
    }
    q1, _, q3 = quantiles(walls, n=4)
    print(f"# {workload.name}: {len(raw)} timed units of "
          f"{workload.work_unit}; wall_s quartiles {q1:.4f}/{q3:.4f}; "
          f"raw host median {median(raw):.4f} s at "
          f"{1 / median(factors):.2f}x the nominal calibration time")
    return metrics


def run_per_layer(workload: Any, seed: int, seconds: float, gates: Gates,
                  spec: Dict[str, Any]) -> Dict[str, float]:
    from perf.compare import HOST_UNITS
    from perf.layers import layer_metrics, median_of_passes
    from perf.trace import Instrumentation, SpanTracer

    exact = {m["name"] for m in spec["per_layer"]
             if m["unit"] not in HOST_UNITS}
    # the whole traced run fits --seconds (plus the pass in flight): it
    # needs no more samples than that, and writes a trace file at the end
    deadline = perf_counter() + seconds
    state = workload.setup(seed)
    indices = range(TRACE_UNITS)
    workload.unit(state, seed, 0)                              # warm-up
    extras = workload.layer_extras(state, seed)
    tracer = SpanTracer()
    instrumentation = Instrumentation(tracer)
    passes: List[Dict[str, float]] = []
    while not passes or perf_counter() < deadline:
        # the same units untraced, then traced: their ratio is what the
        # instrumentation costs, taken minutes apart it would be noise
        untraced = sum(workload.unit(state, seed, i).wall_s for i in indices)
        tracer.reset()
        with instrumentation:
            units = [workload.unit(state, seed, i, span=tracer.span)
                     for i in indices]
        row = layer_metrics(tracer, units)
        row["harness.traced_wall_s"] = tracer.root_s
        row["harness.trace_overhead_ratio"] = tracer.root_s / untraced
        gates.check(
            "per-layer self times sum to the traced wall within 2 %",
            abs(sum(tracer.self_s.values()) - tracer.root_s)
            <= 0.02 * tracer.root_s)
        passes.append(row)
    for row in passes[1:]:
        drift = sorted(k for k in exact if row.get(k) != passes[0].get(k))
        gates.check(f"counts repeat exactly across traced passes {drift}",
                    not drift)
    metrics = median_of_passes(passes, exact)
    metrics.update(extras)
    out_dir = ROOT / "perf" / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_chrome(
        str(out_dir / f"{workload.name}.trace.json"),
        {"workload": workload.name, "seed": seed, "passes": len(passes)})
    print(f"# {workload.name}: {len(passes)} traced passes of "
          f"{TRACE_UNITS} units; largest self time of the last pass: "
          + max(tracer.self_s, key=tracer.self_s.__getitem__))
    for unit in units:
        gates.count(unit)
    return metrics


def run_workload(args: argparse.Namespace) -> int:
    from perf.workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[args.workload](args.scale)
    gates = Gates()
    if args.trace:
        measured = run_per_layer(workload, args.seed, args.seconds, gates,
                                 spec)
        declared = spec["per_layer"]
        stray = sorted(set(measured) - {m["name"] for m in declared})
        if stray:
            raise SystemExit(f"metrics not declared in BENCHMARK.json: {stray}")
    else:
        measured = run_end_to_end(workload, args.seed, args.seconds, gates)
        declared = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in declared
    }
    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": gates.failed == 0,
                      "attempted": gates.attempted, "failed": gates.failed,
                      "metrics": metrics}))
    return 0 if gates.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a subprocess of its own: ``--runs`` untraced runs
    (seeds ``--seed``, ``--seed`` + 1, ...) and one traced run each."""
    spec = load_spec()
    results: Dict[str, Dict[str, List[Any]]] = {}
    status = 0
    for w in spec["workloads"]:
        row: Dict[str, List[Any]] = {"end_to_end": [], "per_layer": []}
        jobs = [(args.seed + r, 0) for r in range(args.runs)]
        jobs.append((args.seed, 1))
        for seed, trace in jobs:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", w["name"], "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--scale", args.scale]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            status = status or proc.returncode
            if not lines or not lines[-1].startswith("{"):
                continue                       # died before a result
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            result = json.loads(lines[-1])
            print(f"# {w['name']} seed {seed} trace {trace}: correct="
                  f"{result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            row["per_layer" if trace else "end_to_end"].append(
                {"seed": seed, **result})
        results[w["name"]] = row
    out = Path(args.json) if args.json else (
        ROOT / "perf" / "out" / f"results-seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"seed": args.seed, "scale": args.scale,
                   "seconds": args.seconds, "workloads": results}, fh,
                  indent=1)
    print(f"# results written to {out}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--scale", choices=("bench", "reference"),
                        default="bench",
                        help="reference: the input sizes of the committed "
                             "BENCH_*.json figures (slow; gates equality "
                             "with them at --seed 7)")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload without --workload"
                             " (compare.py wants four for quartiles)")
    parser.add_argument("--json", help="where the all-workloads run writes")
    args = parser.parse_args()
    # one thread: BLAS/OpenMP pools would make host times depend on idle
    # cores (set before anything imports numpy)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # the script's own directory leaves the path (its ``trace`` module would
    # shadow the standard library's); the checkout root and ``src`` join it
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
