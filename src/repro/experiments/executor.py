"""Sweep execution: expand a spec, run it (in parallel), merge artifacts.

The engine turns a :class:`~repro.experiments.spec.SweepSpec` into its
deterministic run list, executes the runs that do not already have a valid
checkpoint record, and assembles the ordered rows into one
``repro-bench/1`` document.  Three properties the rest of the repo leans
on:

* **independence** — every run is a pure call of a scenario callable on
  JSON-serializable params, so runs execute in any order and on any
  worker without changing the merged result;
* **parallelism** — ``workers > 1`` distributes runs over worker
  processes (the :mod:`repro.lon.shard` pattern: a spawned/forked process
  per worker pulling from a shared job queue, errors shipped back rather
  than swallowed); checkpoint records are written by the parent only, so
  the store never sees concurrent writers;
* **resumability** — the merged document is a function of (spec, ordered
  rows) alone: rows recovered from checkpoints and rows computed this
  process are indistinguishable, which is what makes a resumed sweep's
  artifact byte-identical to an uninterrupted one for deterministic
  scenarios (host timings are quarantined under ``wall_clock`` and
  excluded from every fingerprint).
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from .artifacts import (
    bench_document,
    payload_fingerprint,
    split_wall_clock,
    write_bench,
)
from .checkpoint import CheckpointStore
from .spec import RunSpec, SweepSpec, resolve_dotted

__all__ = ["SweepResult", "execute_run", "run_sweep"]

#: progress callback: one short line per lifecycle event
Progress = Callable[[str], None]


def execute_run(scenario: str, params: Dict[str, object]) -> Dict[str, object]:
    """Execute one run in this process: resolve the scenario and call it."""
    fn = resolve_dotted(scenario)
    row = fn(**params)
    if not isinstance(row, dict):
        raise TypeError(
            f"scenario {scenario!r} must return a dict row, "
            f"got {type(row).__name__}"
        )
    return row


@dataclass
class SweepResult:
    """Everything a finished sweep produced."""

    spec: SweepSpec
    runs: List[RunSpec]
    #: deterministic result rows in run order (``wall_clock`` stripped)
    rows: List[Dict[str, object]] = field(default_factory=list)
    #: quarantined per-run wall sections, parallel to ``rows`` (None where
    #: a run reported no host timings)
    walls: List[Optional[Dict[str, object]]] = field(default_factory=list)
    #: raw rows (wall sections still nested), in run order
    raw_rows: List[Dict[str, object]] = field(default_factory=list)
    executed: int = 0
    reused: int = 0
    doc: Dict[str, object] = field(default_factory=dict)
    artifact_path: Optional[Path] = None

    @property
    def payload_fingerprint(self) -> str:
        """Float-hex SHA-256 of the deterministic document content."""
        return payload_fingerprint(self.doc)


def _pool_worker(jobs: "mp.queues.Queue[object]",
                 results: "mp.queues.Queue[object]") -> None:
    """Worker-process loop: pull (index, scenario, params), push results.

    Mirrors :func:`repro.lon.shard._worker`: exceptions are shipped back
    as data so the parent can fail the sweep with the real error instead
    of hanging on a dead child.
    """
    while True:
        job = jobs.get()
        if job is None:
            return
        index, scenario, params = job  # type: ignore[misc]
        try:
            row = execute_run(scenario, params)
            results.put((index, row, None))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            results.put((index, None, repr(exc)))


def _execute_parallel(
    pending: List[RunSpec],
    workers: int,
    start_method: Optional[str],
    on_done: Callable[[RunSpec, Dict[str, object]], None],
) -> None:
    """Run ``pending`` across a worker-process pool (parent collects)."""
    available = mp.get_all_start_methods()
    if start_method is not None and start_method not in available:
        raise ValueError(
            f"start method {start_method!r} unavailable; "
            f"choose from {available}"
        )
    method = start_method or ("fork" if "fork" in available else "spawn")
    ctx = mp.get_context(method)
    jobs: "mp.queues.Queue[object]" = ctx.Queue()
    results: "mp.queues.Queue[object]" = ctx.Queue()
    by_index = {run.index: run for run in pending}
    for run in pending:
        jobs.put((run.index, run.scenario, dict(run.params)))
    n_workers = min(workers, len(pending))
    for _ in range(n_workers):
        jobs.put(None)
    procs = [
        ctx.Process(target=_pool_worker, args=(jobs, results),
                    name=f"sweep-worker-{i}")
        for i in range(n_workers)
    ]
    for p in procs:
        p.start()
    error: Optional[str] = None
    try:
        for _ in pending:
            index, row, err = results.get()
            if err is not None:
                error = f"run {index} failed: {err}"
                break
            on_done(by_index[index], row)
    finally:
        if error is not None:
            for p in procs:
                p.terminate()
        for p in procs:
            p.join()
    if error is not None:
        raise RuntimeError(error)


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    checkpoint_dir: Union[str, Path, None] = None,
    resume: bool = False,
    out_dir: Union[str, Path, None] = None,
    write_artifact: bool = True,
    progress: Optional[Progress] = None,
    start_method: Optional[str] = None,
) -> SweepResult:
    """Execute a sweep end to end; returns rows + the merged document.

    ``resume=True`` reuses every valid checkpoint record in
    ``checkpoint_dir`` (``run_id``-validated against the expanded plan);
    ``resume=False`` clears the directory first so a fresh ``run`` never
    silently inherits stale records.  ``write_artifact`` controls whether
    ``BENCH_<spec.artifact>.json`` lands in ``out_dir`` (default: the
    repository root) — the merged document is returned either way.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    say: Progress = progress if progress is not None else (lambda _msg: None)
    runs = spec.expand()
    result = SweepResult(spec=spec, runs=runs)

    store: Optional[CheckpointStore] = None
    records: Dict[int, Dict[str, object]] = {}
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir, spec)
        if resume:
            for index, record in store.load_all(runs).items():
                records[index] = record.row
            say(f"resume: {len(records)}/{len(runs)} runs recovered from "
                f"{store.directory}")
        else:
            cleared = store.clear()
            if cleared:
                say(f"cleared {cleared} stale checkpoint records in "
                    f"{store.directory}")
    elif resume:
        raise ValueError("resume=True requires a checkpoint_dir")

    result.reused = len(records)
    pending = [run for run in runs if run.index not in records]

    def on_done(run: RunSpec, row: Dict[str, object]) -> None:
        records[run.index] = row
        if store is not None:
            store.save(run, row)
        result.executed += 1
        say(f"run {run.index + 1}/{len(runs)} [{run.label}] done "
            f"({len(records)}/{len(runs)} complete)")

    if pending:
        say(f"executing {len(pending)} of {len(runs)} runs "
            f"(workers={workers})")
        if workers == 1 or len(pending) == 1:
            for run in pending:
                on_done(run, execute_run(run.scenario, dict(run.params)))
        else:
            _execute_parallel(pending, workers, start_method, on_done)

    # ---- merge: ordered rows -> (payload, wall) -> document ------------
    result.raw_rows = [records[run.index] for run in runs]
    for raw in result.raw_rows:
        row, wall = split_wall_clock(raw)
        result.rows.append(row)
        result.walls.append(wall)

    assembler = resolve_dotted(
        spec.assemble or "repro.experiments.assemble.default_assemble")
    assembled = assembler(spec, result.rows, result.walls)
    if (not isinstance(assembled, tuple) or len(assembled) != 2
            or not isinstance(assembled[0], dict)):
        raise TypeError(
            f"assembler {spec.assemble!r} must return (payload, wall_clock)"
        )
    payload, wall_clock = assembled
    result.doc = bench_document(
        payload, wall_clock,
        meta_extra={"spec": spec.name, "runs_planned": len(runs)},
        seed=int(spec.seeds[0]),
    )

    if write_artifact and spec.artifact:
        result.artifact_path = write_bench(spec.artifact, result.doc, out_dir)
        say(f"wrote {result.artifact_path}")
    return result
