"""Experiments: the declarative sweep engine and its report layer.

Every Section-4 figure and text claim of the paper, and every committed
``BENCH_*.json``, is one builtin spec run the same way:
spec -> scenario -> assemble -> report.  Layer map:

* :mod:`.spec` — declarative :class:`SweepSpec` (axes/points × seeds →
  deterministic run list), loadable from TOML/JSON, builtin registry;
* :mod:`.executor` + :mod:`.checkpoint` — parallel execution across
  worker processes with one atomic checkpoint record per run; resumes
  recompute nothing and merge byte-identically;
* :mod:`.artifacts` — the single ``repro-bench/1`` writer (seed-stamped
  meta, quarantined ``wall_clock``, float-hex fingerprints);
* :mod:`.scenarios` / :mod:`.assemble` — per-run callables and the pure
  row-merge step reproducing each committed ``BENCH_*.json`` shape;
* :mod:`.claims` — the paper's numbers (``PAPER``) and the claims each
  merged artifact must meet, one predicate over the document each;
* :mod:`.report` — merged artifacts → markdown with paper-vs-measured
  tables and claim verdicts (``md_table`` is the one table renderer).
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
    experiment_lattice,
    experiment_resolutions,
    scale_name,
    scale_small,
)
from .executor import SweepResult, run_sweep
from .report import format_series, md_table, render_report
from .spec import (
    RunSpec,
    SweepSpec,
    builtin_specs,
    load_spec_file,
    spec_named,
)

__all__ = [
    "BENCH_FORMAT",
    "RunSpec",
    "SweepResult",
    "SweepSpec",
    "WALL_CLOCK_KEY",
    "bench_document",
    "bench_path",
    "builtin_specs",
    "experiment_lattice",
    "experiment_resolutions",
    "format_series",
    "load_spec_file",
    "md_table",
    "payload_fingerprint",
    "render_report",
    "run_sweep",
    "scale_name",
    "scale_small",
    "spec_named",
    "wall_timer",
    "write_bench",
]
