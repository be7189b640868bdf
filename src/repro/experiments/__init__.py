"""Experiments: drivers, the declarative sweep engine, and reporting.

Layer map (ISSUE 7's refactor):

* :mod:`.spec` — declarative :class:`SweepSpec` (axes/points × seeds →
  deterministic run list), loadable from TOML/JSON, builtin registry;
* :mod:`.executor` + :mod:`.checkpoint` — parallel execution across
  worker processes with one atomic checkpoint record per run; resumes
  recompute nothing and merge byte-identically;
* :mod:`.artifacts` — the single ``repro-bench/1`` writer (seed-stamped
  meta, quarantined ``wall_clock``, float-hex fingerprints);
* :mod:`.scenarios` / :mod:`.assemble` — per-run callables and the pure
  row-merge step reproducing each committed ``BENCH_*.json`` shape;
* :mod:`.report` — merged artifacts → markdown with paper-vs-measured
  tables;
* :mod:`.runners` — the original per-figure drivers (still the backbone
  of the figure benchmarks and examples).
"""

from .artifacts import (
    BENCH_FORMAT,
    WALL_CLOCK_KEY,
    bench_document,
    bench_path,
    payload_fingerprint,
    wall_timer,
    write_bench,
)
from .config import (
    PAPER,
    experiment_lattice,
    experiment_resolutions,
    scale_name,
    scale_small,
)
from .executor import SweepResult, run_sweep
from .report import render_report
from .reporting import banner, format_series, format_table
from .spec import (
    RunSpec,
    SweepSpec,
    builtin_specs,
    load_spec_file,
    spec_named,
)
from .runners import (
    StreamingSuite,
    access_rate_stats,
    fig07_database_size,
    demand_miss_latency,
    observability_overhead,
    qgr_sweep,
    text_fps,
    text_generation_time,
)

__all__ = [
    "BENCH_FORMAT",
    "PAPER",
    "RunSpec",
    "StreamingSuite",
    "SweepResult",
    "SweepSpec",
    "WALL_CLOCK_KEY",
    "access_rate_stats",
    "banner",
    "bench_document",
    "bench_path",
    "builtin_specs",
    "demand_miss_latency",
    "experiment_lattice",
    "experiment_resolutions",
    "fig07_database_size",
    "format_series",
    "format_table",
    "load_spec_file",
    "observability_overhead",
    "payload_fingerprint",
    "qgr_sweep",
    "render_report",
    "run_sweep",
    "scale_name",
    "scale_small",
    "spec_named",
    "text_fps",
    "text_generation_time",
    "wall_timer",
    "write_bench",
]
