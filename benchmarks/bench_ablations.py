"""Ablations of the design choices DESIGN.md calls out.

1. Prefetch policy (quadrant / all-neighbors / none) — miss rate vs
   extraneous transfers (Figure 4's design point).
2. Staging order (proximity vs FIFO) and concurrency — the "ordered by
   distance from the cursor" claim.
3. LoRS stripe width — multi-stream download speedup.
4. Codec (zlib levels, delta predictor) — the "more efficient compression
   scheme" the paper suggests.
5. Client-agent cache budget — the shared mid-tier's working-set knob.
6. View-set size l — the locality/granularity knob.

All six families are declared as points of the builtin ``ablations``
sweep spec; this module runs that sweep **once** (module-scoped fixture),
which merges every arm into ``BENCH_ablations.json``, and each test
asserts on its own family of the merged document.
"""

import os

import pytest

from repro.experiments import md_table, run_sweep, spec_named

_SMALL = os.environ.get("REPRO_SCALE", "default") == "small"


@pytest.fixture(scope="module")
def ablations():
    """The merged ablations artifact (one engine run for every family)."""
    result = run_sweep(spec_named("ablations"), workers=1)
    print(f"wrote {result.artifact_path}")
    return result.doc


def test_ablation_prefetch_policy(ablations, report):
    rows = ablations["families"]["prefetch"]
    table = md_table(
        headers=["policy", "hit rate", "wan rate", "mean latency s",
                 "prefetches"],
        rows=[[r["policy"], r["hit_rate"], r["wan_rate"],
               r["mean_latency_s"], r["prefetches"]] for r in rows],
    )
    report("ablation_prefetch_policy",
           f"Ablation — prefetch policy (case 2)\n\n{table}")
    by = {r["policy"]: r for r in rows}
    # no prefetch must be the worst on hit rate; quadrant beats none
    assert by["none"]["hit_rate"] <= by["quadrant"]["hit_rate"]
    # all-neighbors issues at least as many prefetch transfers
    assert by["all-neighbors"]["prefetches"] >= by["quadrant"]["prefetches"]


def test_ablation_staging(ablations, report):
    rows = ablations["families"]["staging"]
    table = md_table(
        headers=["order", "concurrency", "initial phase", "wan rate",
                 "mean latency s", "staged"],
        rows=[[r["order"], r["concurrency"], r["initial_phase"],
               r["wan_rate"], r["mean_latency_s"], r["staged"]]
              for r in rows],
    )
    report("ablation_staging",
           f"Ablation — staging order and concurrency (case 3)\n\n{table}")
    prox = [r for r in rows if r["order"] == "proximity"]
    fifo = [r for r in rows if r["order"] == "fifo"]
    # cursor-proximity staging localizes the useful view sets sooner:
    # equal-concurrency comparisons never favor FIFO on WAN rate
    for p, f in zip(prox, fifo):
        assert p["concurrency"] == f["concurrency"]
        assert p["wan_rate"] <= f["wan_rate"] + 0.15


def test_ablation_stripe_width(ablations, report):
    rows = ablations["families"]["stripe"]
    table = md_table(
        headers=["stripe width", "mean WAN fetch s", "wan rate",
                 "mean latency s"],
        rows=[[r["stripe_width"], r["mean_wan_fetch_s"], r["wan_rate"],
               r["mean_latency_s"]] for r in rows],
    )
    report("ablation_stripe_width",
           f"Ablation — LoRS stripe width (case 2)\n\n{table}")
    by = {r["stripe_width"]: r for r in rows}
    # multi-stream striping makes individual WAN fetches no slower (and
    # typically faster) than single-depot placement
    if by[1]["mean_wan_fetch_s"] and by[3]["mean_wan_fetch_s"]:
        assert (
            by[3]["mean_wan_fetch_s"] <= by[1]["mean_wan_fetch_s"] * 1.10
        )


def test_ablation_codec(ablations, report):
    rows = ablations["families"]["codec"]
    walls = ablations["wall_clock"]["codec"]
    table = md_table(
        headers=["codec", "ratio", "compress s", "decompress s",
                 "payload MB"],
        rows=[[r["codec"], r["ratio"], walls[r["codec"]]["compress_s"],
               walls[r["codec"]]["decompress_s"], r["payload_mb"]]
              for r in rows],
    )
    report("ablation_codec",
           f"Ablation — view-set codec\n\n{table}")
    by = {r["codec"]: r for r in rows}
    # higher zlib level never compresses worse
    assert by["zlib-9"]["ratio"] >= by["zlib-1"]["ratio"] * 0.99
    # every codec is lossless and produces a real payload, and its host
    # timings stay quarantined out of the deterministic payload
    for r in rows:
        assert r["ratio"] > 1.0
        assert "compress_s" not in r and "decompress_s" not in r
        assert walls[r["codec"]]["compress_s"] >= 0.0


def test_ablation_agent_cache(ablations, report):
    rows = ablations["families"]["agent_cache"]
    table = md_table(
        headers=["cache (payloads)", "hit rate", "wan rate",
                 "mean latency s"],
        rows=[[r["cache_payloads"], r["hit_rate"], r["wan_rate"],
               r["mean_latency_s"]] for r in rows],
    )
    report("ablation_agent_cache",
           f"Ablation — client-agent cache budget (case 2)\n\n{table}")
    by = {r["cache_payloads"]: r for r in rows}
    # a starved cache cannot out-hit an unbounded one
    assert by[2]["hit_rate"] <= by["unbounded"]["hit_rate"] + 1e-9


def test_ablation_viewset_size(ablations, report):
    rows = ablations["families"]["viewset_size"]
    table = md_table(
        headers=["l", "window deg", "payload MB",
                 "distinct viewsets in trace", "bytes for trace MB"],
        rows=[[r["l"], r["window_deg"], r["payload_mb"],
               r["distinct_viewsets_in_trace"], r["bytes_for_trace_mb"]]
              for r in rows],
    )
    report("ablation_viewset_size",
           f"Ablation — view-set edge length l (locality knob)\n\n{table}")
    by = {r["l"]: r for r in rows}
    # bigger l => bigger transfer unit
    assert by[6]["payload_mb"] > by[2]["payload_mb"]
