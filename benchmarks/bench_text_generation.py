"""Section 4.1 text claims: generation time and per-view-set sizes.

Paper: the full database takes 2-4.5 h on 32 processors (dominated by I/O)
and compressed view sets run 1.2 MB (200²) to 7.8 MB (600²).  The builtin
``generation`` sweep times real view-set generation and extrapolates to 288
view sets / 32 workers, races the macrocell kernel against the brute
marcher, and sweeps the zlib levels; this module runs it **once**
(module-scoped fixture), which merges the runs into
``BENCH_generation.json`` at the repo root, and each test asserts on its
own part of the merged document.
"""

import os

import pytest

from repro.experiments import (
    PAPER,
    execute_run,
    md_table,
    run_sweep,
    spec_named,
)

_SMALL = os.environ.get("REPRO_SCALE", "default") == "small"


@pytest.fixture(scope="module")
def generation():
    """The merged generation sweep (one engine run for both tests)."""
    result = run_sweep(spec_named("generation"), workers=1)
    print(f"wrote {result.artifact_path}")
    return result


def test_text_generation(benchmark, generation, report):
    stats = generation.doc["viewset_generation"]
    wall = generation.doc["wall_clock"]
    lo, hi = PAPER.generation_hours_band
    table = md_table(
        headers=["metric", "measured", "paper"],
        rows=[
            ["resolution", stats["resolution"], "200-600"],
            ["s per view set (1 worker)", wall["seconds_per_viewset"], "-"],
            ["full DB hours (32 cpu)", wall["full_db_hours_on_32cpu"],
             f"{lo}-{hi}"],
            ["compression ratio", stats["compression_ratio"], "5-7"],
        ],
    )
    report("text_generation",
           f"Section 4.1 — database generation time\n\n{table}")

    assert wall["seconds_per_viewset"] > 0
    assert stats["compression_ratio"] > 2.0
    # our numpy generator extrapolates to within a couple orders of
    # magnitude of the paper's 32-CPU cluster; the lower edge accounts for
    # macrocell empty-space skipping, which the paper's generator lacked
    if not _SMALL:
        assert 0.005 < wall["full_db_hours_on_32cpu"] < 50

    # representative kernel: generating one view set
    run = generation.runs[-1]
    row = benchmark.pedantic(
        lambda: execute_run(run.scenario,
                            {**run.params, "sample_viewsets": 1}),
        rounds=1, iterations=1,
    )
    assert row["views_rendered"] == 36


def test_generation_acceleration(generation, report):
    """Brute vs macrocell-accelerated generator kernel on the negHip scene:
    wall-clock per sample view, marched steps per ray before/after,
    empty-macrocell fraction, speedup, and the zlib speed/ratio sweep."""
    doc = generation.doc
    wall = doc["wall_clock"]
    table = md_table(
        headers=["metric", "brute", "accelerated"],
        rows=[
            ["s / view", wall["brute_seconds_per_view"],
             wall["accelerated_seconds_per_view"]],
            ["steps / ray", doc["brute"]["steps_per_ray"],
             doc["accelerated"]["steps_per_ray"]],
            ["speedup", 1.0, wall["speedup"]],
            ["max |err|", 0.0, doc["max_abs_error"]],
        ],
    )
    report("generation_acceleration",
           "Generator kernel — macrocell empty-space skipping\n\n" + table)

    # the macrocell classification must be effective on this scene and the
    # skipping lossless (ISSUE tolerance: 1e-3; in practice it is exact)
    assert doc["empty_cell_fraction"] >= 0.5
    assert doc["max_abs_error"] <= 1e-3
    assert (doc["accelerated"]["steps_per_ray"]
            < doc["brute"]["steps_per_ray"])
    # at the tiny smoke volume the kernel is too cheap for a stable
    # speedup bar; the full-scale bar matches the original benchmark
    if not _SMALL:
        assert wall["speedup"] > 1.5
    # zlib never compresses worse at a higher level (monotone ratios)
    ratios = [r["ratio"] for r in doc["zlib_levels"]]
    assert ratios[-1] >= ratios[0] * 0.99
    assert wall["seconds_per_viewset"] > 0
