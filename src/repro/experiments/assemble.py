"""Assemblers: ordered sweep rows -> one ``repro-bench/1`` document.

An assembler is the pure merge step of the sweep engine: it receives the
spec, the deterministic rows (in run order, ``wall_clock`` stripped) and
the parallel list of quarantined wall sections, and returns
``(payload, wall_clock | None)`` for :func:`~repro.experiments.artifacts.
bench_document`.  Assemblers must be pure functions of their inputs —
resume correctness rests on the merged document depending on nothing but
(spec, rows) — and every host-timing-derived number they emit must land in
the returned wall section, never the payload.

Each ``assemble_*`` below reproduces the committed shape of one
``BENCH_*.json`` artifact so downstream consumers (the scale-regression
guard, EXPERIMENTS.md tables, report rendering) keep their keys.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from ..streaming.metrics import HIT_SOURCES, WAN_SOURCES, AccessSource
from .claims import PAPER
from .spec import SweepSpec

__all__ = [
    "assemble_ablations",
    "assemble_generation",
    "assemble_latency",
    "assemble_observability",
    "assemble_qgr",
    "assemble_scale",
    "assemble_scheduling",
    "default_assemble",
    "run_labels",
]

Row = Dict[str, object]
Wall = Optional[Dict[str, object]]
Assembled = Tuple[Dict[str, object], Optional[Dict[str, object]]]


def run_labels(spec: SweepSpec) -> List[str]:
    """Unique human labels in run order (seed-suffixed when seeds > 1)."""
    runs = spec.expand()
    if len(spec.seeds) <= 1:
        return [run.label for run in runs]
    return [f"{run.label}@s{run.params.get('seed')}" for run in runs]


def default_assemble(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Rows as-is under ``rows``; any wall sections keyed by run label."""
    payload: Dict[str, object] = {"benchmark": spec.name, "rows": rows}
    if not any(w is not None for w in walls):
        return payload, None
    labels = run_labels(spec)
    wall: Dict[str, object] = {
        "runs": {
            label: w for label, w in zip(labels, walls) if w is not None
        }
    }
    return payload, wall


# ----------------------------------------------------------------------
# BENCH_latency.json (Figures 9-12, Section 4.3)
# ----------------------------------------------------------------------


def _rate(sources: Sequence[object], pool: Tuple[AccessSource, ...]) -> float:
    if not sources:
        return 0.0
    return sum(1 for s in sources if s in pool) / len(sources)


def _comm(row: Row, source: AccessSource) -> List[float]:
    """The row's communication latencies of accesses served by ``source``."""
    comm: List[float] = row["comm_s"]  # type: ignore[assignment]
    sources: List[str] = row["source"]  # type: ignore[assignment]
    return [c for c, s in zip(comm, sources) if s == source]


def assemble_latency(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Nine sessions -> the rows plus the two cross-case tables.

    ``comm_tiers`` (Figure 12) are medians attributed as the paper's
    panels do: hits from any case (floored at the hit tier so a log axis
    can show them), the LAN-depot tier from Case 3 (where staging feeds
    it), the WAN tier from Case 2 (pure wide-area fetches — Case 3's
    "WAN" accesses can be partially staged mixes).  ``access_rates``
    (Section 4.3) compare Cases 2 and 3 over Case 3's initial phase.
    """
    by: Dict[Tuple[object, object], Row] = {
        (r["case"], r["resolution"]): r for r in rows
    }
    tiers: List[Row] = []
    rates: List[Row] = []
    for res in dict.fromkeys(r["resolution"] for r in rows):
        c1, c2, c3 = (by[(f"case{k}", res)] for k in (1, 2, 3))
        hits = [max(v, PAPER.tier_hit)
                for row in (c1, c2, c3)
                for v in _comm(row, AccessSource.AGENT_CACHE)]
        lan = _comm(c3, AccessSource.LAN_DEPOT)
        wan = _comm(c2, AccessSource.WAN_DEPOT)
        tiers.append({
            "resolution": res,
            "hit_s": median(hits) if hits else 0.0,
            "lan_depot_s": median(lan) if lan else 0.0,
            "wan_s": median(wan) if wan else 0.0,
        })
        phase3 = max(int(c3["initial_phase"]), 1)  # type: ignore[call-overload]
        src2: List[str] = c2["source"]  # type: ignore[assignment]
        src3: List[str] = c3["source"]  # type: ignore[assignment]
        rates.append({
            "resolution": res,
            "case2_wan_rate_initial": _rate(src2[:phase3], WAN_SOURCES),
            "case3_wan_rate_initial": _rate(src3[:phase3], WAN_SOURCES),
            "case2_hit_rate_initial": _rate(src2[:phase3], HIT_SOURCES),
            "case3_hit_rate_initial": _rate(src3[:phase3], HIT_SOURCES),
            "case2_initial_phase": c2["initial_phase"],
            "case3_initial_phase": phase3,
        })
    payload: Dict[str, object] = {
        "benchmark": "latency",
        "rows": rows,
        "comm_tiers": tiers,
        "access_rates": rates,
    }
    return payload, None


# ----------------------------------------------------------------------
# BENCH_qgr.json (Section 4.2)
# ----------------------------------------------------------------------
def assemble_qgr(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Per-seed hidden fractions -> their mean per (case, speed)."""
    n = len(spec.seeds)
    means: List[Row] = [
        {"case": group[0]["case"], "speed": group[0]["speed"],
         "hidden_fraction": sum(
             float(r["hidden_fraction"]) for r in group) / n}  # type: ignore[arg-type]
        for group in (rows[i:i + n] for i in range(0, len(rows), n))
    ]
    payload: Dict[str, object] = {
        "benchmark": "qgr",
        "resolution": spec.fixed.get("resolution"),
        "seeds": list(spec.seeds),
        "rows": means,
    }
    return payload, None


# ----------------------------------------------------------------------
# BENCH_generation.json
# ----------------------------------------------------------------------
def assemble_generation(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Kernel + zlib sweep + view-set timing -> the generation artifact."""
    by_stage = {str(row.get("stage")): (row, wall)
                for row, wall in zip(rows, walls)}
    kernel, kernel_wall = by_stage["kernel"]
    payload = {k: v for k, v in kernel.items() if k != "stage"}
    payload["zlib_levels"] = [
        {"level": row["level"], "ratio": row["ratio"]}
        for row, _ in (by_stage[s] for s in ("zlib-1", "zlib-6", "zlib-9"))
    ]
    wall: Dict[str, object] = dict(kernel_wall or {})
    wall["zlib_compress_s"] = {
        str(row["level"]): (w or {}).get("compress_s")
        for row, w in (by_stage[s] for s in ("zlib-1", "zlib-6", "zlib-9"))
    }
    viewset_row, viewset_wall = by_stage["viewset"]
    payload["viewset_generation"] = {
        k: v for k, v in viewset_row.items() if k != "stage"
    }
    for key in ("seconds_per_viewset", "full_db_hours_on_32cpu"):
        if viewset_wall and key in viewset_wall:
            wall[key] = viewset_wall[key]
    return payload, wall


# ----------------------------------------------------------------------
# BENCH_streaming.json
# ----------------------------------------------------------------------
def assemble_scheduling(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Per-arm scheduling rows -> the transfer-scheduling artifact."""
    arms = {
        str(row["arm"]): {k: v for k, v in row.items() if k != "arm"}
        for row in rows
    }
    off = float(arms["staging+off"]["demand_miss_latency_s"])  # type: ignore[arg-type]

    def speedup(arm: str) -> float:
        lat = float(arms[arm]["demand_miss_latency_s"])  # type: ignore[arg-type]
        return round(off / lat, 4) if lat else 0.0

    payload: Dict[str, object] = {
        "benchmark": "transfer_scheduling",
        "metric": "demand_miss_latency_s",
        "resolution": spec.fixed.get("resolution"),
        "arms": arms,
        "speedup_weighted_vs_off": speedup("staging+weighted"),
        "speedup_strict_vs_off": speedup("staging+strict"),
    }
    return payload, None


# ----------------------------------------------------------------------
# BENCH_observability.json
# ----------------------------------------------------------------------
def assemble_observability(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Session + fleet tiers -> the observability artifact.

    The single-session row keeps its historical top-level shape
    (``resolution``/``case``/``accesses``/``spans`` in the payload,
    ``untraced_s``/``traced_s``/``ratio`` in the wall section); the fleet
    tiers land under ``payload["fleet"]["<clients>/<shards>"]`` with their
    wall costs under ``wall_clock["fleet"]`` keyed the same way.
    """
    payload: Dict[str, object] = {"benchmark": "observability_overhead"}
    wall: Dict[str, object] = {}
    fleet_rows: Dict[str, Row] = {}
    fleet_walls: Dict[str, Dict[str, object]] = {}
    for row, w in zip(rows, walls):
        if "n_clients" in row:
            key = f"{row['n_clients']}/{row['n_shards']}"
            fleet_rows[key] = dict(row)
            if w is not None:
                fleet_walls[key] = dict(w)
        else:
            payload.update(row)
            if w is not None:
                wall.update(w)

    def tier(key: str) -> Tuple[int, int]:
        clients, shards = key.split("/")
        return (int(clients), int(shards))

    if fleet_rows:
        payload["fleet"] = {
            k: fleet_rows[k] for k in sorted(fleet_rows, key=tier)
        }
        wall["fleet"] = {
            k: fleet_walls[k] for k in sorted(fleet_walls, key=tier)
        }
    return payload, (wall or None)


# ----------------------------------------------------------------------
# BENCH_scale.json
# ----------------------------------------------------------------------
_CONTENDED_KEYS = ("accesses", "events_fired", "recomputes", "vectorized",
                   "coalesced", "component_flows", "flows_rerated",
                   "events_rescheduled", "admission_batches_flushed",
                   "admission_submissions_coalesced",
                   "admission_scalar_fallbacks")


def assemble_scale(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Four regimes (scaling / contended / sharded / cross-shard) -> the
    scale curve.

    Reproduces the key structure the regression guard reads:
    ``wall_clock.runs["<N>"]``, ``wall_clock.contended["<N>"]``,
    ``wall_clock.sharded["<S>"]`` and ``wall_clock.cross_shard["<frac>"]``.
    """
    scaling = [(r, w) for r, w in zip(rows, walls)
               if r.get("regime") == "scaling"]
    contended = [(r, w) for r, w in zip(rows, walls)
                 if r.get("regime") == "contended"]
    sharded = [(r, w) for r, w in zip(rows, walls)
               if r.get("regime") == "sharded"]
    cross = [(r, w) for r, w in zip(rows, walls)
             if r.get("regime") == "cross_shard"]

    payload: Dict[str, object] = {
        "benchmark": "multiclient_scaling",
        "case": 3,
        "client_counts": sorted({int(r["n_clients"]) for r, _ in scaling}),  # type: ignore[arg-type]
        "runs": [{k: v for k, v in r.items() if k != "regime"}
                 for r, _ in scaling],
    }
    wall: Dict[str, object] = {
        "runs": {str(r["n_clients"]): dict(w or {}) for r, w in scaling},
    }
    if contended:
        row, w = contended[0]
        payload["contended"] = {
            "n_clients": row["n_clients"],
            **{k: row[k] for k in _CONTENDED_KEYS if k in row},
        }
        wall["contended"] = {str(row["n_clients"]): dict(w or {})}
    if sharded:
        payload["sharded"] = {
            "n_clients": sharded[0][0]["n_clients"],
            "shard_counts": [r["n_shards"] for r, _ in sharded],
            "events_fired": {str(r["n_shards"]): r["events_fired"]
                             for r, _ in sharded},
            "accesses": {str(r["n_shards"]): r["accesses"]
                         for r, _ in sharded},
        }
        wall["sharded"] = {str(r["n_shards"]): dict(w or {})
                           for r, w in sharded}
    if cross:
        payload["cross_shard"] = {
            "n_clients": cross[0][0]["n_clients"],
            "n_shards": cross[0][0]["n_shards"],
            "fractions": [r["cross_fraction"] for r, _ in cross],
            "runs": {
                str(r["cross_fraction"]): {
                    k: r[k] for k in (
                        "events_fired", "accesses",
                        "admission_batches_flushed",
                        "admission_submissions_coalesced",
                        "boundary_windows", "boundary_staleness_bound",
                        "boundary_max_oversubscription",
                    ) if k in r
                }
                for r, _ in cross
            },
        }
        wall["cross_shard"] = {str(r["cross_fraction"]): dict(w or {})
                              for r, w in cross}
    return payload, wall


# ----------------------------------------------------------------------
# BENCH_ablations.json
# ----------------------------------------------------------------------
def assemble_ablations(
    spec: SweepSpec, rows: List[Row], walls: List[Wall]
) -> Assembled:
    """Six ablation families -> one grouped artifact (codec walls kept)."""
    families: Dict[str, List[Row]] = {}
    codec_walls: Dict[str, object] = {}
    for row, w in zip(rows, walls):
        family = str(row.get("family"))
        families.setdefault(family, []).append(
            {k: v for k, v in row.items() if k != "family"}
        )
        if w is not None and family == "codec":
            codec_walls[str(row["codec"])] = w
    payload: Dict[str, object] = {
        "benchmark": "ablations",
        "families": families,
    }
    wall = {"codec": codec_walls} if codec_walls else None
    return payload, wall
